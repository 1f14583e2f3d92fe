"""Closed-form values that lifted multipliers must carry: the test oracles.

Each function restates, independently of the circuit builders in
:mod:`nashreduce.multipliers`, the exact value a lifted multiplier's output
player takes.  They live with the tests because only the tests call them.
"""

from typing import Any, Sequence

from nashreduce import ParameterError
from nashreduce._rational import ifloor, rational
from nashreduce.multipliers import beta_for_eps, unary_cells

Rat = Any


def unary_lift_value(v1: Rat, v2: Rat, eps: Rat) -> Rat:
    """Output value of the lifted unary multiplier: tau^2 * i* * j* capped at 1,
    where i* counts thresholds at or below v1 (ties light up)."""
    tau = 3 * eps
    cells = unary_cells(eps)
    lit1 = min(ifloor(v1 / tau), cells) if v1 < 1 else cells
    lit2 = min(ifloor(v2 / tau), cells) if v2 < 1 else cells
    return min(tau * tau * lit1 * lit2, rational(1))


def brittle_lift_value(v1: Rat, v2: Rat, eps: Rat) -> Rat:
    """Output value of the lifted brittle multiplier: v2 * floor(v1 * 2^beta) / 2^beta
    (the all-ones code caps at 2^beta - 1)."""
    beta = beta_for_eps(eps)
    scale = 2**beta
    code = min(ifloor(v1 * scale), scale - 1)
    return v2 * rational(code, scale)


def robust_lift_value(v1: Rat, v2: Rat, eps: Rat) -> Rat:
    """Output value of the lifted robust multiplier: the median of three
    brittle outputs at staggered first inputs."""
    beta = beta_for_eps(eps)
    delta = 7 * beta * eps
    raised = max(v1, 2 * delta + 7 * eps)
    votes = [
        brittle_lift_value(x, v2, eps)
        for x in (raised, max(rational(0), raised - delta), max(rational(0), raised - 2 * delta))
    ]
    return sorted(votes)[1]


def chain_lift_value(values: Sequence[Rat], eps: Rat, construction: str = "unary") -> Rat:
    """Output value of a lifted multiplication chain."""
    if not values:
        raise ParameterError("a multiplication chain needs at least one input")
    lift = unary_lift_value if construction == "unary" else robust_lift_value
    acc = values[0]
    for nxt in values[1:]:
        acc = lift(acc, nxt, eps)
    return acc
