"""The Fraction formulas that the int kernels replaced: the test oracles.

Each function restates, with one ``Fraction`` operation per entry, what
:func:`nashreduce.model.edge_payoffs`,
:func:`nashreduce.model._wsne_violations`, the ``verify_wsne`` and
``expected_payoffs`` methods of all four game forms, the polymatrix and
structured ``payoff_range`` methods and :func:`nashreduce.solvers.lift_to_bimatrix`
compute on int numerators and denominators.  They live with the tests
because only the tests call them.
"""

import itertools
from fractions import Fraction
from typing import Any, Sequence

from nashreduce import ParameterError
from nashreduce._rational import rational
from nashreduce.model import Violation

Rat = Any


def wsne_violations(payoff_vectors, profile, eps: Rat, skip=frozenset()) -> tuple:
    """Every supported strategy more than ``eps`` below its player's best
    response; the best response is the first maximal index."""
    found = []
    for i, (u, p) in enumerate(zip(payoff_vectors, profile)):
        if i in skip:
            continue
        best = max(range(len(u)), key=u.__getitem__)
        floor = u[best] - eps
        for j, pj in enumerate(p):
            if pj > 0 and u[j] < floor:
                found.append(Violation(i, j, u[j], best, u[best]))
    return tuple(found)


def normal_form_payoffs(game, profile) -> list[tuple]:
    """``u_i[r] = sum_c payoffs[i][r][c] * q_i[c]``, where ``q_i`` is the
    product distribution of player ``i``'s opponents over their pure
    profiles, the lowest-numbered opponent varying slowest."""
    payoffs = []
    for i, mat in enumerate(game.payoffs):
        others = [p for j, p in enumerate(profile) if j != i]
        joint = []
        for combo in itertools.product(*others):
            weight = Fraction(1)
            for x in combo:
                weight *= x
            joint.append(weight)
        payoffs.append(tuple(sum((a * q for a, q in zip(row, joint)), Fraction(0)) for row in mat))
    return payoffs


def normal_form_verify(game, profile, eps: Rat) -> tuple:
    """The violations of ``profile`` in a normal-form game."""
    return wsne_violations(normal_form_payoffs(game, profile), profile, eps)


def dense_payoffs(game, x, y) -> tuple:
    """``(A y, B^T x)`` of a dense bimatrix game."""
    n = game.n
    u1 = tuple(sum((game.a[r][c] * y[c] for c in range(n)), Fraction(0)) for r in range(n))
    u2 = tuple(sum((game.b[r][c] * x[r] for r in range(n)), Fraction(0)) for c in range(n))
    return u1, u2


def dense_verify(game, x, y, eps: Rat, clamped=()) -> tuple:
    """The violations of ``(x, y)`` in a dense bimatrix game."""
    return wsne_violations(dense_payoffs(game, x, y), [x, y], eps, frozenset(clamped))


def edge_payoffs(offsets, edges, scales, units, diagonal: Rat = 0) -> list:
    """``diagonal * sum(v_i) + sum_j M^{ij} v_j`` for every player ``i``,
    flat like ``units``, where ``v_j = units[a:b] / scales[j]`` over
    player ``j``'s indices ``a:b``; one Fraction per term."""
    blocks = [tuple(Fraction(n, s) for n in units[a:b]) for s, a, b in zip(scales, offsets, offsets[1:])]
    payoffs = [[diagonal * sum(v, Fraction(0))] * len(v) for v in blocks]
    for (i, j), mat in edges.items():
        for r, row in enumerate(mat):
            for a, v in zip(row, blocks[j]):
                payoffs[i][r] += a * v
    return [u for block in payoffs for u in block]


def polymatrix_payoffs(game, profile) -> list[tuple]:
    """``u_i[r] = sum_j M^{ij}[r] . p_j``, one Fraction per payoff."""
    payoffs = [[Fraction(0)] * n for n in game.strategy_counts]
    for (i, j), mat in game.edges.items():
        for r, row in enumerate(mat):
            for a, v in zip(row, profile[j]):
                payoffs[i][r] += a * v
    return [tuple(u) for u in payoffs]


def polymatrix_verify(game, profile, eps: Rat, clamped=()) -> tuple:
    """The violations of ``profile`` in a polymatrix game."""
    return wsne_violations(polymatrix_payoffs(game, profile), profile, eps, frozenset(clamped))


def structured_payoffs(game, x, y) -> tuple:
    """``(A y, B^T x)`` of a structured imitation game: the leader earns
    ``-alpha`` times the follower's mass on its own block plus the edge
    blocks against the follower's blocks; the follower earns ``x``.  Both
    are mapped by ``v -> (v + alpha) / divisor`` when the game is
    normalized."""
    offsets = [0]
    for n in game.block_sizes:
        offsets.append(offsets[-1] + n)
    blocks = [tuple(y[a:b]) for a, b in zip(offsets, offsets[1:])]
    u1 = []
    for u, block in zip(polymatrix_payoffs(game.polymatrix, blocks), blocks):
        mass = sum(block, Fraction(0))
        u1 += [v - game.alpha * mass for v in u]
    u2 = tuple(x)
    if game.normalized:
        u1 = [(v + game.alpha) / game.divisor for v in u1]
        u2 = tuple((v + game.alpha) / game.divisor for v in u2)
    return tuple(u1), u2


def structured_verify(game, x, y, eps: Rat, clamped=()) -> tuple:
    """The violations of ``(x, y)`` in a structured imitation game."""
    return wsne_violations(structured_payoffs(game, x, y), [x, y], eps, frozenset(clamped))


def polymatrix_payoff_range(game) -> tuple:
    """(min, max) edge entry, starting from (0, 0); extremes move only on a
    strict inequality."""
    lo, hi = 0, 0
    for mat in game.edges.values():
        for row in mat:
            for x in row:
                if x < lo:
                    lo = x
                if x > hi:
                    hi = x
    return lo, hi


def structured_payoff_range(game) -> tuple:
    """(min(-alpha, edge entries), max(1, edge entries)), normalized when
    the game is."""
    lo, hi = -game.alpha, 1
    for mat in game.edges.values():
        for row in mat:
            for x in row:
                if x < lo:
                    lo = x
                if x > hi:
                    hi = x
    return game._norm(lo), game._norm(hi)


def lift_to_bimatrix(g2, profile: Sequence[Sequence[Rat]], mapping) -> tuple:
    """The witness of :func:`nashreduce.solvers.lift_to_bimatrix`, weighed
    with Fraction arithmetic: ``w_i = 1/m + (u_i - mean(u)) / (alpha m)``.
    ``profile`` must be a valid profile of ``g2``'s polymatrix game, and
    ``mapping`` must agree with ``g2``."""
    m = len(g2.block_sizes)
    alpha = g2.alpha
    block_best = [max(ui) for ui in polymatrix_payoffs(g2.polymatrix, profile)]
    mean_best = sum(block_best) / m
    weights = [rational(1, m) + (u - mean_best) / (alpha * m) for u in block_best]
    if any(w <= 0 for w in weights):
        raise ParameterError("alpha is too small to rebalance the block weights")
    y = []
    for w, p in zip(weights, profile):
        y.extend(w * v for v in p)
    support = [r for r, v in enumerate(y) if v > 0]
    share = rational(1, len(support))
    x = [rational(0)] * len(y)
    for r in support:
        x[r] = share
    return tuple(x), tuple(y)
