"""Values that lifted circuits must carry: the test oracles.

Each closed form restates, independently of the circuit builders in
:mod:`nashreduce.multipliers`, the exact value a lifted multiplier's output
player takes.  :func:`spec_walk_lift` restates ``GadgetCircuit.lift`` as a
plain walk of the circuit's spec trees.  They live with the tests because
only the tests call them.
"""

from math import floor
from typing import Any, Mapping, Sequence

from nashreduce import ParameterError
from nashreduce._rational import rational
from nashreduce.gadgets import GADGET_INFO, GadgetCircuit, GadgetSpec, primitive_gap
from nashreduce.model import validate_mixed
from nashreduce.multipliers import beta_for_eps, unary_cells

Rat = Any


def unary_lift_value(v1: Rat, v2: Rat, eps: Rat) -> Rat:
    """Output value of the lifted unary multiplier: tau^2 * i* * j* capped at 1,
    where i* counts thresholds at or below v1 (ties light up)."""
    tau = 3 * eps
    cells = unary_cells(eps)
    lit1 = min(floor(v1 / tau), cells) if v1 < 1 else cells
    lit2 = min(floor(v2 / tau), cells) if v2 < 1 else cells
    return min(tau * tau * lit1 * lit2, rational(1))


def brittle_lift_value(v1: Rat, v2: Rat, eps: Rat) -> Rat:
    """Output value of the lifted brittle multiplier: v2 * floor(v1 * 2^beta) / 2^beta
    (the all-ones code caps at 2^beta - 1)."""
    beta = beta_for_eps(eps)
    scale = 2**beta
    code = min(floor(v1 * scale), scale - 1)
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


def spec_walk_lift(circuit: GadgetCircuit, inputs: Mapping[int, Any]) -> list[tuple]:
    """The lifted profile, by walking ``circuit.specs`` in Fraction arithmetic:
    every product is taken and every binary strategy is built anew as
    ``(1 - value, value)``.  ``inputs`` must cover the undriven players."""
    profile: list = [None] * circuit.num_players
    for player, value in inputs.items():
        if isinstance(value, (tuple, list)):
            profile[player] = validate_mixed(value, circuit.strategy_counts[player])
        else:
            profile[player] = (1 - value, value)
    one = rational(1)

    def set_binary(player: int, value) -> None:
        profile[player] = (one - value, value)

    def evaluate(spec: GadgetSpec) -> None:
        if spec.internal:
            for sub in spec.internal:
                evaluate(sub)
            return
        zeta = spec.param("zeta") if GADGET_INFO[spec.kind].takes_zeta else None
        form = primitive_gap(spec.kind, zeta, len(spec.inputs))
        gap = form.const
        for coef, tap in zip(form.coefs, spec.inputs):
            gap += coef * profile[tap.player][tap.strategy]
        if form.decision:
            set_binary(spec.output.player, rational(int(gap >= 0)))
            return
        # W is indifferent exactly when the output equals the gap
        if gap <= 0:
            w = value = rational(0)
        elif gap >= 1:
            w = value = rational(1)
        else:
            w, value = rational(1, 2), gap
        set_binary(spec.aux[0], w)
        set_binary(spec.output.player, value)

    for spec in circuit.specs:
        evaluate(spec)
    return [tuple(vec) for vec in profile]
