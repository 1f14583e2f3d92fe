"""The Fraction formulas that the int kernels replaced: the test oracles.

Each function restates, with one ``Fraction`` operation per entry, what
:func:`nashreduce.model._wsne_violations`, the two ``payoff_range``
methods and :func:`nashreduce.solvers.lift_to_bimatrix` compute on int
numerators and denominators.  They live with the tests because only the
tests call them.
"""

from typing import Any, Sequence

from nashreduce import ParameterError
from nashreduce._rational import rational
from nashreduce.model import Violation, edge_payoffs, validate_mixed

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
    with Fraction arithmetic: ``w_i = 1/m + (u_i - mean(u)) / (alpha m)``."""
    blocks = mapping.block_sizes
    m = len(blocks)
    alpha = mapping.alpha
    profile = [
        validate_mixed(p, n, what=f"block {i} strategy")
        for i, (p, n) in enumerate(zip(profile, blocks))
    ]
    block_best = [max(ui) for ui in edge_payoffs(blocks, g2.edges, profile)]
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
