"""Differential tests of the int kernels against their Fraction oracles.

``model._wsne_violations``, the ``verify_wsne`` and ``expected_payoffs``
methods of all four game forms, the polymatrix and structured
``payoff_range`` methods and ``solvers.lift_to_bimatrix`` compare and
weigh on int numerators and denominators; ``kernel_oracles.py`` keeps the
Fraction formulas they replaced.  Every comparison checks types as well as
values, so an int where the oracle returns a Fraction (or the reverse)
fails.
"""

import itertools
import math
import random
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest

import kernel_oracles as oracle
from nashreduce import ParameterError, R
from nashreduce.model import (
    BimatrixGame,
    NormalFormGame,
    PolymatrixGame,
    ScaledProfile,
    ScaledStrategy,
    Violation,
    _wsne_violations,
    pure_strategy,
    random_polymatrix,
)
from nashreduce.reductions import bimatrixify, lift_to_polymatrix, linearize, normalize_bimatrix
from nashreduce.solvers import lift_to_bimatrix


def typed(value):
    """``value`` with every leaf paired with its type; a scaled strategy or
    profile is a sequence like a tuple or list, and its entries are checked."""
    if isinstance(value, Violation):
        return typed(tuple(getattr(value, f.name) for f in fields(value)))
    if isinstance(value, (tuple, list, ScaledStrategy, ScaledProfile)):
        return tuple(typed(v) for v in value)
    return (type(value), value)


def assert_same(got, want):
    assert typed(got) == typed(want)


# ---------------------------------------------------------------------------
# _wsne_violations, on the int pairs of payoff vectors of rationals


def kernel_violations(payoff_vectors, profile, eps, skip=frozenset()) -> tuple:
    """:func:`_wsne_violations` on the numerators and denominators of
    ``payoff_vectors``; a violation reports the vectors' own entries."""
    values = [x for u in payoff_vectors for x in u]
    return _wsne_violations(
        [x.numerator for x in values],
        [x.denominator for x in values],
        tuple(itertools.accumulate(map(len, payoff_vectors), initial=0)),
        [x.numerator for p in profile for x in p],
        eps,
        skip,
        values.__getitem__,
    )


WSNE_CASES = {
    # (payoff vectors, profile, eps, number of violations without skip)
    "ties": (
        [(F(1, 2), F(2, 4), F(1, 3)), (F(1, 3), F(1, 3)), (F(1, 5), F(1, 5), F(1, 5))],
        [(F(1, 3), F(1, 3), F(1, 3)), (F(1, 2), F(1, 2)), (F(0), F(1), F(0))],
        F(1, 10),
        1,
    ),
    "tie_int_before_fraction": (
        [(1, F(1), F(1, 2)), (F(3, 4), 0, 1)],
        [(F(1, 2), 0, F(1, 2)), (0, F(1, 2), F(1, 2))],
        0,
        2,
    ),
    "eps_zero": (
        [(F(1, 3), F(1, 3), F(1, 3) - F(1, 10**12)), (F(0), F(0))],
        [(F(1, 3), F(1, 3), F(1, 3)), (F(1, 2), F(1, 2))],
        F(0),
        1,
    ),
    "eps_boundary": (
        [(F(1, 2), F(2, 5), F(2, 5) - F(1, 10**9))],
        [(F(1, 3), F(1, 3), F(1, 3))],
        F(1, 10),
        1,
    ),
    "negative_payoffs": (
        [(F(-1, 3), F(-1, 2), F(-7, 5)), (F(-2), F(-2, 3))],
        [(F(1, 3), F(1, 3), F(1, 3)), (F(1, 7), F(6, 7))],
        F(1, 6),
        2,
    ),
    "int_entries": (
        [(2, -1, 0), (F(3, 2), 1), (0, 0)],
        [(0, 1, 0), (1, 0), (F(1, 2), F(1, 2))],
        1,
        1,
    ),
    "int_eps_large": (
        [(F(-1), F(2), F(1, 7))],
        [(F(1, 3), F(1, 3), F(1, 3))],
        3,
        0,
    ),
}


@pytest.mark.parametrize("case", sorted(WSNE_CASES))
@pytest.mark.parametrize("skip", [frozenset(), frozenset({0}), frozenset({1, 2})])
def test_wsne_violations_match_oracle(case, skip):
    vectors, profile, eps, count = WSNE_CASES[case]
    want = oracle.wsne_violations(vectors, profile, eps, skip)
    assert_same(kernel_violations(vectors, profile, eps, skip), want)
    if not skip:
        assert len(want) == count


def dominant_source(k: int = 3) -> NormalFormGame:
    """Strategy 0 strictly dominant for every player: a strict pure equilibrium."""
    cols = 2 ** (k - 1)
    return NormalFormGame((2,) * k, [[[R(1)] * cols, [R(0)] * cols]] * k)


@pytest.fixture(scope="module")
def reduced():
    source = dominant_source()
    gm, lin_map, lin_params = linearize(source, R(9, 10), "log")
    g2, bi_map, bi_params = bimatrixify(gm, lin_params.eps_m)
    poly = lift_to_polymatrix([pure_strategy(2, 0)] * 3, lin_map)
    return gm, lin_params, g2, bi_map, bi_params, poly


def test_wsne_violations_match_oracle_on_a_reduction(reduced):
    gm, lin_params, g2, bi_map, bi_params, poly = reduced
    assert gm.verify_wsne(poly, lin_params.eps_m).ok
    # every seventh player flipped: many violations
    flipped = [tuple(reversed(p)) if i % 7 == 0 else p for i, p in enumerate(poly)]
    vectors = gm.expected_payoffs(flipped)
    for eps in (0, R(0), lin_params.eps_m):
        for skip in (frozenset(), frozenset(range(0, gm.m, 5))):
            want = oracle.wsne_violations(vectors, flipped, eps, skip)
            assert_same(kernel_violations(vectors, flipped, eps, skip), want)
    assert len(oracle.wsne_violations(vectors, flipped, lin_params.eps_m)) > gm.m // 20
    x, y = lift_to_bimatrix(g2, poly, bi_map)
    u1, u2 = g2.expected_payoffs(x, y)
    for eps in (0, bi_params.eps_2):
        for skip in (frozenset(), frozenset({1})):
            want = oracle.wsne_violations([u1, u2], [x, y], eps, skip)
            assert_same(kernel_violations([u1, u2], [x, y], eps, skip), want)


# ---------------------------------------------------------------------------
# polymatrix and structured verify_wsne, on int payoff pairs


def tie_profile(seed: int, counts) -> list[tuple]:
    """Pure strategies as plain ints, uniform strategies and strategies with
    an int 0 beside Fractions, in turn; against the small denominators of
    :func:`tie_game` their payoffs often tie."""
    rng = random.Random(seed)
    profile = []
    for i, n in enumerate(counts):
        kind = (i + seed) % 3
        if kind == 0:
            j = rng.randrange(n)
            profile.append(tuple(int(c == j) for c in range(n)))
        elif kind == 1:
            profile.append((F(1, n),) * n)
        else:
            profile.append((0,) * (n - 2) + (F(1, 3), F(2, 3)))
    return profile


def tie_game(seed: int, counts) -> PolymatrixGame:
    """A random polymatrix game over halves and thirds in [-1, 2]: many ties."""
    return random_polymatrix(seed, counts, denominator=2 + seed % 2, lo=R(-1), hi=R(2))


def flat(blocks) -> tuple:
    return tuple(v for block in blocks for v in block)


def verify_cases(g2, blocks):
    """Bimatrix profiles of ``g2``: the lifted witness of ``blocks`` first,
    then a pure leader as plain ints against the follower spread over the
    blocks (follower violations whose payoffs are ints), both players
    uniform on block 0 (leader violations), and the leader spread against
    a pure follower as plain ints."""
    m, n = len(blocks), g2.n
    x, y = lift_to_bimatrix(g2, blocks, bimatrix_mapping(g2))
    spread = tuple(v * F(1, m) for v in flat(blocks))
    pure_leader = tuple(int(r == 0) for r in range(n))
    size = g2.block_sizes[0]
    piled = (F(1, size),) * size + (0,) * (n - size)
    return [(x, y), (pure_leader, spread), (piled, piled), (spread, pure_leader)]


def bimatrix_mapping(g2):
    _, mapping, _ = bimatrixify(g2.polymatrix, R(3, 10))
    return replace(mapping, alpha=g2.alpha, divisor=g2.divisor)


@pytest.mark.parametrize("seed", range(6))
def test_polymatrix_verify_matches_oracle(seed):
    counts = ((2, 3, 2), (3, 3), (2, 2, 4, 2))[seed % 3]
    game = tie_game(seed, counts)
    profile = tie_profile(seed, counts)
    found = 0
    for eps in (0, F(0), F(1, 6), 1):
        for clamped in ((), (0,), (1, 2)):
            want = oracle.polymatrix_verify(game, profile, eps, clamped)
            got = game.verify_wsne(profile, eps, clamped=clamped)
            assert_same(got.violations, want)
            assert got.ok is not want
            found += len(want)
    assert_same(game.expected_payoffs(profile), oracle.polymatrix_payoffs(game, profile))
    assert found


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_structured_verify_matches_oracle(seed, normalized):
    counts = ((2, 3, 2), (2, 2, 4, 2))[seed % 2]
    alpha = (R(5), R(7, 2))[seed // 2]
    g2 = BimatrixGame.structured(tie_game(seed, counts), alpha, normalized)
    found = set()
    for x, y in verify_cases(g2, tie_profile(seed, counts)):
        assert_same(g2.expected_payoffs(x, y), oracle.structured_payoffs(g2, x, y))
        for eps in (0, F(1, 6), 1):
            for clamped in ((), (0,), (1,)):
                want = oracle.structured_verify(g2, x, y, eps, clamped)
                got = g2.verify_wsne(x, y, eps, clamped=clamped)
                assert_same(got.violations, want)
                assert got.ok is not want
                found |= {v.player for v in want}
    assert found == {0, 1}


def test_verify_matches_oracle_on_a_reduction(reduced):
    gm, lin_params, g2, bi_map, bi_params, poly = reduced
    # every seventh player flipped, and pure players given as plain ints
    profile = [
        tuple(reversed(p)) if i % 7 == 0 else tuple(int(v) if v in (0, 1) else v for v in p)
        for i, p in enumerate(poly)
    ]
    assert {type(v) for p in profile for v in p} == {int, F}
    payoffs = oracle.polymatrix_payoffs(gm, profile)
    for eps in (0, lin_params.eps_m):
        for clamped in (frozenset(), frozenset(range(0, gm.m, 5))):
            want = oracle.wsne_violations(payoffs, profile, eps, clamped)
            assert_same(gm.verify_wsne(profile, eps, clamped=clamped).violations, want)
    assert len(want) > gm.m // 20
    blocks = [tuple(p) for p in poly]
    for game, eps in ((g2, bi_params.eps_2), (normalize_bimatrix(g2), bi_params.eps_2_normalized)):
        cases = verify_cases(game, blocks)
        assert game.verify_wsne(*cases[0], eps).ok
        for x, y in cases:
            payoffs = oracle.structured_payoffs(game, x, y)
            for clamped in (frozenset(), frozenset({1})):
                want = oracle.wsne_violations(payoffs, [x, y], eps, clamped)
                assert_same(game.verify_wsne(x, y, eps, clamped=clamped).violations, want)


# ---------------------------------------------------------------------------
# normal-form and dense bimatrix verify_wsne, on int payoff pairs


def exact_entry(rng: random.Random):
    """An int 0 or 1, or a Fraction over 6, 10 or 7."""
    return rng.choice((0, 1, F(rng.randrange(7), 6), F(rng.randrange(11), 10), F(rng.randrange(8), 7)))


def mixed_profile(seed: int, counts) -> list[tuple]:
    """Pure strategies as plain ints (always for one strategy), strategies
    weighted 1, 2, ... over their sum, and strategies with int zeros beside
    Fractions over ``3 + i``, in turn: mixed denominators across players."""
    profile = []
    for i, n in enumerate(counts):
        kind = (i + seed) % 3
        if kind == 0 or n == 1:
            profile.append(tuple(int(c == (seed + i) % n) for c in range(n)))
        elif kind == 1:
            profile.append(tuple(F(c + 1, n * (n + 1) // 2) for c in range(n)))
        else:
            profile.append((0,) * (n - 2) + (F(1, 3 + i), F(2 + i, 3 + i)))
    return profile


NORMAL_FORM_COUNTS = [(1,), (3,), (2, 3), (1, 3), (3, 1, 2), (2, 2, 2), (2, 3, 1, 2), (2, 2, 2, 2)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("counts", NORMAL_FORM_COUNTS, ids=str)
def test_normal_form_verify_matches_oracle(counts, seed):
    rng = random.Random(seed)
    payoffs = []
    for i, n in enumerate(counts):
        cols = math.prod(counts[:i] + counts[i + 1 :])
        payoffs.append([[exact_entry(rng) for _ in range(cols)] for _ in range(n)])
    game = NormalFormGame(counts, payoffs)
    profile = mixed_profile(seed, counts)
    assert_same(game.expected_payoffs(profile), oracle.normal_form_payoffs(game, profile))
    found = 0
    for eps in (0, F(0), F(1, 6), 1):
        want = oracle.normal_form_verify(game, profile, eps)
        got = game.verify_wsne(profile, eps)
        assert_same(got.violations, want)
        assert got.ok is not want
        found += len(want)
    assert found or max(counts) == 1


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dense_verify_matches_oracle(n, seed):
    rng = random.Random(100 * n + seed)
    a, b = ([[exact_entry(rng) for _ in range(n)] for _ in range(n)] for _ in range(2))
    game = BimatrixGame.dense(a, b)
    x, y = mixed_profile(seed, (n, n))
    found = set()
    for leader, follower in ((x, y), (y, x), (x, x)):
        assert_same(game.expected_payoffs(leader, follower), oracle.dense_payoffs(game, leader, follower))
        for eps in (0, F(1, 6), 1):
            for clamped in ((), (0,), (1,), (0, 1)):
                want = oracle.dense_verify(game, leader, follower, eps, clamped)
                got = game.verify_wsne(leader, follower, eps, clamped=clamped)
                assert_same(got.violations, want)
                assert got.ok is not want
                found |= {v.player for v in want}
    if n > 1:
        assert found


def test_dense_verify_matches_oracle_on_a_dense_imitation_game():
    g2 = BimatrixGame.structured(tie_game(1, (2, 3, 2)), R(7, 2))
    for game in (g2, normalize_bimatrix(g2)):
        dense = game.to_dense()
        for x, y in verify_cases(game, tie_profile(1, (2, 3, 2))):
            assert_same(dense.expected_payoffs(x, y), oracle.dense_payoffs(dense, x, y))
            for clamped in ((), (1,)):
                want = oracle.dense_verify(dense, x, y, F(1, 6), clamped)
                assert_same(dense.verify_wsne(x, y, F(1, 6), clamped=clamped).violations, want)
                assert [v.player for v in want] == [
                    v.player for v in game.verify_wsne(x, y, F(1, 6), clamped=clamped).violations
                ]


# ---------------------------------------------------------------------------
# payoff_range


def mixed_polymatrix() -> PolymatrixGame:
    """Ints and Fractions side by side, with ties at both extremes."""
    return PolymatrixGame(
        (2, 3, 2),
        {
            (0, 1): [[2, F(2), F(-1, 2)], [-1, F(-1), 0]],
            (1, 0): [[F(1, 3), 1], [0, 0], [F(2), 2]],
            (2, 0): [[F(-1), F(5, 3)], [F(-1, 7), F(1, 11)]],
        },
    )


POLYMATRIX_GAMES = {
    "no_edges": lambda: PolymatrixGame((2, 2), {}),
    "no_players": lambda: PolymatrixGame((), {}),
    "ints_and_fractions": mixed_polymatrix,
    "fractions_first": lambda: PolymatrixGame(
        (2, 2), {(0, 1): [[F(2), 2], [F(-1), -1]], (1, 0): [[F(1, 2), 0], [0, 0]]}
    ),
    "nonnegative": lambda: PolymatrixGame((2, 2), {(0, 1): [[F(1, 3), 0], [1, F(1, 9)]]}),
    "random_0": lambda: random_polymatrix(0, (2, 3, 4), lo=R(-1), hi=R(2)),
    "random_1": lambda: random_polymatrix(1, (3, 3), denominator=7, lo=R(-1, 2), hi=R(3, 2)),
}


@pytest.mark.parametrize("name", sorted(POLYMATRIX_GAMES))
def test_polymatrix_payoff_range_matches_oracle(name):
    game = POLYMATRIX_GAMES[name]()
    assert_same(game.payoff_range(), oracle.polymatrix_payoff_range(game))


def structured_games():
    gm = random_polymatrix(3, (2, 3, 2), lo=R(-1), hi=R(2))
    g2, _, _ = bimatrixify(gm, R(3, 10))
    edges = {(0, 1): [[1, F(1)], [F(3, 2), 2]], (1, 0): [[F(2), 0], [F(-1), 2]]}
    ints = BimatrixGame.structured(PolymatrixGame((2, 2), edges), 5)
    no_edges = PolymatrixGame((2, 2), {})
    return {
        "no_edges": BimatrixGame.structured(no_edges, R(5)),
        "no_edges_normalized": BimatrixGame.structured(no_edges, R(5), normalized=True),
        "reduced": g2,
        "normalized": normalize_bimatrix(g2),
        "ints_and_fractions": ints,
        "ints_and_fractions_normalized": normalize_bimatrix(ints),
        "max_below_one": BimatrixGame.structured(
            PolymatrixGame((2, 2), {(0, 1): [[F(1, 2), F(-1)], [0, F(9, 10)]]}), R(7, 3)
        ),
    }


@pytest.mark.parametrize("name", sorted(structured_games()))
def test_structured_payoff_range_matches_oracle(name):
    game = structured_games()[name]
    assert_same(game.payoff_range(), oracle.structured_payoff_range(game))


# ---------------------------------------------------------------------------
# lift_to_bimatrix

PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def prime_profile(counts, shift: int = 0) -> list[tuple]:
    """Block ``i`` mixes over its strategies with denominator ``PRIMES[i]``."""
    profile = []
    for i, n in enumerate(counts):
        p = PRIMES[i]
        weights = [(i + shift + j) % 2 + 1 for j in range(n - 1)]
        weights.append(p - sum(weights))
        profile.append(tuple(F(w, p) for w in weights))
    return profile


def lift_outcome(lift, g2, profile, mapping):
    try:
        return typed(lift(g2, profile, mapping))
    except ParameterError as err:
        return ("ParameterError", str(err))


@pytest.mark.parametrize("seed", range(4))
def test_lift_matches_oracle_on_prime_denominators(seed):
    counts = (2, 3, 2, 4, 2)
    gm = random_polymatrix(seed, counts, lo=R(-1), hi=R(2))
    g2, mapping, _ = bimatrixify(gm, R(3, 10))
    profile = prime_profile(counts, seed)
    assert len({q for p in profile for q in (v.denominator for v in p)}) == len(counts)
    want = lift_outcome(oracle.lift_to_bimatrix, g2, profile, mapping)
    assert lift_outcome(lift_to_bimatrix, g2, profile, mapping) == want
    assert want[0] != "ParameterError"


def test_lift_matches_oracle_with_an_edgeless_block():
    # player 2 has no edges at all; block 1 earns ints
    gm = PolymatrixGame(
        (2, 2, 3),
        {(0, 1): [[F(1, 3), F(2)], [F(-1), F(1, 2)]], (1, 0): [[1, 0], [0, 2]]},
    )
    g2, mapping, _ = bimatrixify(gm, R(1, 4))
    for profile in (
        prime_profile((2, 2, 3)),
        [(F(1), F(0)), (F(0), F(1)), (F(1, 2), F(0), F(1, 2))],
        [(1, 0), (F(1, 2), F(1, 2)), (0, 0, 1)],
    ):
        want = lift_outcome(oracle.lift_to_bimatrix, g2, profile, mapping)
        assert lift_outcome(lift_to_bimatrix, g2, profile, mapping) == want
        assert want[0] != "ParameterError"


@pytest.mark.parametrize("alpha", [R(1, 50), R(1, 5), R(1, 2), R(3), 7])
def test_lift_matches_oracle_on_small_alpha(alpha):
    counts = (2, 3, 2)
    gm = random_polymatrix(5, counts, lo=R(-1), hi=R(2))
    _, mapping, _ = bimatrixify(gm, R(3, 10))
    g2 = BimatrixGame.structured(gm, alpha)
    small = replace(mapping, alpha=alpha, divisor=g2.divisor)
    profile = prime_profile(counts)
    want = lift_outcome(oracle.lift_to_bimatrix, g2, profile, small)
    assert lift_outcome(lift_to_bimatrix, g2, profile, small) == want
    if alpha == R(1, 50):
        assert want == ("ParameterError", "alpha is too small to rebalance the block weights")
