"""Differential tests of the int kernels against their Fraction oracles.

``model._wsne_violations``, the ``verify_wsne`` and ``expected_payoffs``
methods of all four game forms, the polymatrix and structured
``payoff_range`` methods, ``model.edge_payoffs`` and
``solvers.lift_to_bimatrix`` compare and weigh on int numerators and
denominators; ``kernel_oracles.py`` keeps the Fraction formulas they
replaced.  Every comparison checks types as well as values, so an int
where the oracle returns a Fraction (or the reverse) fails.
"""

import itertools
import math
import random
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest

import kernel_oracles as oracle
from nashreduce import ParameterError, R, fileio, model
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


# ---------------------------------------------------------------------------
# edge_payoffs: each distinct (matrix object, opponent strategy) pair is
# weighed once, and its rows are added to every edge that has it

# one 3x3 matrix with an all-zero row, a negative row and a zero in front
SHARED = ((F(0), F(1, 2), F(-1)), (0, 0, F(0)), (F(-2, 3), F(-1, 6), -1))
# equal to SHARED by value, a distinct object
COPY = tuple(tuple(list(row)) for row in SHARED)
OTHER = ((1, F(1, 3), F(2)), (F(-1), 0, F(1, 5)), (F(1, 7), F(3, 4), 0))


def weigh_calls(monkeypatch) -> list:
    """The argument lists of every ``model._weigh`` call from here on."""
    calls = []
    weigh = model._weigh
    monkeypatch.setattr(model, "_weigh", lambda *args: calls.append(args) or weigh(*args))
    return calls


def distinct_pairs(offsets, edges, scales, units) -> int:
    """The number of distinct ``(id(mat), strategy value)`` pairs over the edges."""
    return len(
        {
            (id(mat), tuple(F(n, scales[j]) for n in units[offsets[j] : offsets[j + 1]]))
            for (_, j), mat in edges.items()
        }
    )


def kernel_case(name: str):
    """``(offsets, edges, scales, units, diagonal)`` for :func:`edge_payoffs`.

    Six players of three strategies.  Players 1 and 2 play equal units
    over one scale; player 3 the same units over twice the scale, half the
    mass, as a follower's block may; player 4 player 1's values in another
    form; player 5 zero units in front of and between nonzero ones.
    """
    offsets = tuple(range(0, 19, 3))
    scales = (1, 3, 3, 6, 6, 5)
    units = (1, 0, 0, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 2, 4, 0, 5, 0)
    star = {(i, j): SHARED for i in range(6) for j in range(6) if i != j}
    edges = {
        # one matrix object against every opponent
        "shared": star,
        # equal values held by distinct objects, beside a third matrix
        "copies": {**star, **{key: COPY for key in star if sum(key) % 2}, (0, 5): OTHER, (5, 0): OTHER},
        # a sparse game: players 1 and 3 have no out-edges
        "sparse": {(0, 1): SHARED, (2, 3): SHARED, (4, 1): OTHER, (5, 2): SHARED, (0, 4): COPY},
    }[name.split("-")[0]]
    diagonal = -F(7, 2) if name.endswith("-diagonal") else 0
    return offsets, edges, scales, units, diagonal


KERNEL_CASES = [f"{edges}{diag}" for edges in ("shared", "copies", "sparse") for diag in ("", "-diagonal")]


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_edge_payoffs_match_oracle(name, monkeypatch):
    offsets, edges, scales, units, diagonal = kernel_case(name)
    calls = weigh_calls(monkeypatch)
    totals, dens = model.edge_payoffs(offsets, edges, scales, units, diagonal)
    assert {type(v) for v in totals + dens} == {int}
    assert min(dens) > 0
    assert list(map(F, totals, dens)) == oracle.edge_payoffs(offsets, edges, scales, units, diagonal)
    # player 4's strategy equals player 1's in another form: it misses the cache
    assert distinct_pairs(offsets, edges, scales, units) <= len(calls) < len(edges)
    assert len({(id(mat), scale, nums) for mat, scale, nums in calls}) == len(calls)


def test_equal_units_under_different_scales_are_weighed_apart(monkeypatch):
    offsets, edges, scales, units, _ = kernel_case("shared")
    calls = weigh_calls(monkeypatch)
    model.edge_payoffs(offsets, {(0, 2): SHARED, (0, 3): SHARED, (1, 2): SHARED}, scales, units)
    assert [(scale, tuple(nums)) for _, scale, nums in calls] == [(3, (0, 1, 2)), (6, (0, 1, 2))]


def cache_polymatrix() -> tuple[PolymatrixGame, list[tuple]]:
    """A polymatrix game whose edges share few matrix objects, with a
    profile whose players share tuple objects and values."""
    pure, third = (1, 0, 0), (0, F(1, 3), F(2, 3))
    profile = [pure, third, third, (0, F(1, 3), F(2, 3)), (F(0), F(2, 6), F(4, 6)), (0, 1, 0), pure]
    edges = {(i, j): SHARED for i in range(7) for j in range(7) if i != j and (i * j) % 3 != 1}
    edges.update({(0, 6): COPY, (6, 0): COPY, (3, 4): OTHER, (4, 3): OTHER, (5, 1): OTHER})
    return PolymatrixGame((3,) * 7, edges), profile


def test_polymatrix_verify_on_shared_matrices_matches_oracle(monkeypatch):
    game, profile = cache_polymatrix()
    calls = weigh_calls(monkeypatch)
    assert_same(game.expected_payoffs(profile), oracle.polymatrix_payoffs(game, profile))
    assert len(calls) < len(game.edges)
    found = 0
    for eps in (0, F(1, 6), 1):
        for clamped in ((), (0, 6)):
            want = oracle.polymatrix_verify(game, profile, eps, clamped)
            got = game.verify_wsne(profile, eps, clamped=clamped)
            assert_same(got.violations, want)
            assert got.ok is not want
            found += len(want)
    assert found


def follower_with_equal_units(offsets) -> ScaledStrategy:
    """Blocks 1 and 2 play the units ``(0, 1, 2)`` over the scales 12 and 6,
    blocks 0 and 3 the units ``(1, 0, 0)`` over 8 and 24, and the rest
    split the remaining mass: equal units under different scales."""
    blocks = [(8, (1, 0, 0)), (12, (0, 1, 2)), (6, (0, 1, 2)), (24, (1, 0, 0))]
    rest = 1 - sum(F(sum(nums), scale) for scale, nums in blocks)
    m = len(offsets) - 1
    share = rest / (m - len(blocks))
    blocks += [(share.denominator * 3, (0, share.numerator * 3, 0))] * (m - len(blocks))
    return ScaledStrategy(offsets, [s for s, _ in blocks], [n for _, nums in blocks for n in nums])


@pytest.mark.parametrize("normalized", [False, True])
def test_structured_verify_on_shared_matrices_matches_oracle(normalized):
    gm, profile = cache_polymatrix()
    g2 = BimatrixGame.structured(gm, R(7, 2), normalized)
    y = follower_with_equal_units(g2._offsets)
    leader = tuple(int(r == 4) for r in range(g2.n))
    cases = [(leader, y), (y, y), (flat(profile[:1]) + (0,) * (g2.n - 3), tuple(y))]
    found = set()
    for x, follower in cases:
        assert_same(g2.expected_payoffs(x, follower), oracle.structured_payoffs(g2, x, follower))
        for eps in (0, F(1, 6)):
            want = oracle.structured_verify(g2, x, follower, eps)
            assert_same(g2.verify_wsne(x, follower, eps).violations, want)
            found |= {v.player for v in want}
    assert found == {0, 1}


def test_dense_verify_with_equal_strategies_matches_oracle():
    # a symmetric game: B^T equals A by value, and both players play alike
    a = [list(row) for row in ((F(1, 2), 0, 1), (F(1, 3), F(2, 3), 0), (0, 1, F(1, 4)))]
    game = BimatrixGame.dense(a, [list(col) for col in zip(*a)])
    for x in ((F(1, 3),) * 3, (0, F(1, 2), F(1, 2)), (1, 0, 0)):
        assert_same(game.expected_payoffs(x, x), oracle.dense_payoffs(game, x, x))
        for eps in (0, F(1, 6)):
            assert_same(game.verify_wsne(x, x, eps).violations, oracle.dense_verify(game, x, x, eps))


def test_normal_form_verify_with_equal_strategies_matches_oracle():
    rng = random.Random(11)
    counts = (3, 3, 3)
    payoffs = [[[exact_entry(rng) for _ in range(9)] for _ in range(3)] for _ in range(3)]
    game = NormalFormGame(counts, payoffs)
    third = (0, F(1, 3), F(2, 3))
    for profile in ([third] * 3, [third, (0, F(1, 3), F(2, 3)), (1, 0, 0)], [(0, 0, 1)] * 3):
        assert_same(game.expected_payoffs(profile), oracle.normal_form_payoffs(game, profile))
        for eps in (0, F(1, 6)):
            want = oracle.normal_form_verify(game, profile, eps)
            assert_same(game.verify_wsne(profile, eps).violations, want)


def test_the_check_sequence_weighs_each_distinct_pair_once(reduced, tmp_path, monkeypatch):
    """Both verifies and ``lift_to_bimatrix`` of reduce-log's check sequence,
    on a 2x2x2 log reduction read back from its file: each weighs exactly
    its distinct (matrix object, strategy value) pairs, far fewer than its
    edges.  A guard on the structure that needs no clock."""
    gm, lin_params, g2, bi_map, bi_params, poly = reduced
    fileio.write_game(tmp_path / "g.json", g2)
    g2_read = fileio.read_game(tmp_path / "g.json")
    calls = weigh_calls(monkeypatch)
    counts = {}

    def count(stage, call, edges, strategy):
        del calls[:]
        result = call()
        pairs = distinct_pairs(gm._offsets, edges, strategy.scales, strategy.units)
        counts[stage] = (len(calls), pairs, len(edges))
        return result

    assert count("poly_verify", lambda: gm.verify_wsne(poly, lin_params.eps_m).ok, gm.edges, poly)
    x, y = count("lift_to_bimatrix", lambda: lift_to_bimatrix(g2_read, poly, bi_map), g2_read.edges, poly)
    verified = count("bimatrix_verify", lambda: g2_read.verify_wsne(x, y, bi_params.eps_2), g2_read.edges, y)
    assert verified.ok
    for weighed, distinct, edges in counts.values():
        assert weighed == distinct
        assert weighed * 10 < edges
    # the follower's blocks carry their weights: more distinct strategies
    assert counts["bimatrix_verify"][0] > counts["poly_verify"][0]
