"""Values that lifted circuits must carry: the test oracles.

Each closed form restates, independently of the circuit builders in
:mod:`nashreduce.multipliers`, the exact value a lifted multiplier's output
player takes.  :func:`spec_walk_lift` restates ``GadgetCircuit.lift`` as a
plain walk of the circuit's spec trees, and :func:`per_block_lift_to_bimatrix`
restates ``lift_to_bimatrix`` as a loop that weighs every block anew.  The
planted sources are games with a known equilibrium for the lifts to carry.
They live with the tests because only the tests call them.
"""

import math
import random
from math import floor
from typing import Any, Mapping, Sequence

from nashreduce import ParameterError, R
from nashreduce._rational import exact_sum, rational
from nashreduce.gadgets import GADGET_INFO, GadgetCircuit, GadgetSpec, primitive_gap
from nashreduce.model import (
    NormalFormGame,
    ScaledStrategy,
    _best_index,
    _scaled_profile,
    edge_payoffs,
    random_normal_form,
    validate_mixed,
)
from nashreduce.multipliers import beta_for_eps, unary_cells
from nashreduce.reductions import _check_bimatrix_mapping

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


def staggered_inputs(v1: Rat, eps: Rat) -> tuple[Rat, Rat, Rat]:
    """The robust multiplier's three staggered first inputs: v1 raised to
    the staggering floor, then lowered by 0, delta and 2 * delta."""
    delta = 7 * beta_for_eps(eps) * eps
    raised = max(v1, 2 * delta + 7 * eps)
    return raised, max(rational(0), raised - delta), max(rational(0), raised - 2 * delta)


def robust_lift_value(v1: Rat, v2: Rat, eps: Rat) -> Rat:
    """Output value of the lifted robust multiplier: the median of three
    brittle outputs at staggered first inputs."""
    return sorted(brittle_lift_value(x, v2, eps) for x in staggered_inputs(v1, eps))[1]


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
        gap = rational(form.const, form.den)
        for coef, tap in zip(form.coefs, spec.inputs):
            gap += rational(coef, form.den) * profile[tap.player][tap.strategy]
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


def per_block_lift_to_bimatrix(g2, profile, mapping) -> tuple[ScaledStrategy, ScaledStrategy]:
    """The witness of :func:`nashreduce.solvers.lift_to_bimatrix`, with each
    block's weight ``w_i = (alpha m + m u_i - sum(u)) / (alpha m^2)``, its
    ``gcd`` and its scaled units worked out anew for every block."""
    _check_bimatrix_mapping(g2, mapping)
    m = len(g2.block_sizes)
    offsets = g2._offsets
    scales, units = _scaled_profile(profile, offsets, what="block")
    totals, dens = edge_payoffs(offsets, g2.edges, scales, units)
    block_best = [
        (totals[r], dens[r])
        for r in (_best_index(totals, dens, a, b) for a, b in zip(offsets, offsets[1:]))
    ]
    a, b = g2.alpha.as_integer_ratio()
    total, scale = exact_sum(block_best)
    y_scales, y_units = [], []
    for (n, d), v_scale, start, stop in zip(block_best, scales, offsets, offsets[1:]):
        num = m * scale * (a * d + b * n) - total * b * d
        if num * a <= 0:
            raise ParameterError("alpha is too small to rebalance the block weights")
        den = a * m * m * d * scale
        g = math.gcd(num, den)
        y_scales.append(den // g * v_scale)
        y_units += [num // g * v for v in units[start:stop]]
    x_units = [int(v > 0) for v in units]
    x = ScaledStrategy(offsets, [sum(x_units)] * m, x_units, "leader strategy")
    return x, ScaledStrategy(offsets, y_scales, y_units, "follower strategy")


def planted_pure_source(seed: int, counts: Sequence[int]) -> tuple[NormalFormGame, list[tuple]]:
    """A random game and a seeded pure profile that is a strict equilibrium
    of it: in each player's column for the planted opponents, the planted
    strategy pays 1 and every rival at most 99/100."""
    rng = random.Random(seed)
    game = random_normal_form(rng, counts)
    planted = [rng.randrange(n) for n in counts]
    payoffs = []
    for i, n in enumerate(counts):
        col = game.opponent_index(i, [planted[j] for j in range(len(counts)) if j != i])
        rows = [list(row) for row in game.payoffs[i]]
        for r in range(n):
            rows[r][col] = R(1) if r == planted[i] else min(rows[r][col], R(99, 100))
        payoffs.append(rows)
    pure = [tuple(R(int(r == j)) for r in range(n)) for n, j in zip(counts, planted)]
    return NormalFormGame(counts, payoffs), pure


#: fully mixed 2x2x2 profiles, by the seed that plants each with planted_mixed_source
MIXED_PLANTS = {
    3: [(R(1, 3), R(2, 3)), (R(2, 5), R(3, 5)), (R(3, 7), R(4, 7))],
    5: [(R(5, 11), R(6, 11)), (R(1, 9), R(8, 9)), (R(13, 17), R(4, 17))],
}


def planted_mixed_source(p, seed: int = 3) -> NormalFormGame:
    """A 2x2x2 game in which the fully mixed profile ``p`` is an exact
    equilibrium: each player's second row is its first plus differences
    whose mean under the opponents' joint distribution is zero."""
    rng = random.Random(seed)
    payoffs = []
    for i in range(3):
        first, second = (p[j] for j in range(3) if j != i)
        joint = [a * b for a in first for b in second]  # the first opponent slowest
        top = [R(rng.randint(25, 75), 100) for _ in joint]
        diff = [R(rng.randint(-12, 12), 100) for _ in joint]
        mean = sum(w * d for w, d in zip(joint, diff))
        payoffs.append([top, [t + d - mean for t, d in zip(top, diff)]])
    return NormalFormGame((2, 2, 2), payoffs)
