"""Core model tests: indexing, payoffs, verification, encodings."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashreduce import (
    BimatrixGame,
    DimensionMismatch,
    NormalFormGame,
    ParameterError,
    PolymatrixGame,
    R,
    iter_profiles,
    profile_index,
    profile_unindex,
    pure_strategy,
    random_normal_form,
    random_polymatrix,
    uniform_strategy,
    validate_mixed,
)
from nashreduce.errors import ZeroBlockMass
from nashreduce.model import edge_payoffs
from nashreduce.reductions import bimatrixify, normalize_bimatrix, recover_from_bimatrix
from nashreduce.solvers import grid_enumerate_wsne, lift_to_bimatrix


# ---------------------------------------------------------------------------
# indexing


def test_profile_index_first_player_most_significant():
    counts = (2, 3, 2)
    assert profile_index(counts, (0, 0, 0)) == 0
    assert profile_index(counts, (0, 0, 1)) == 1
    assert profile_index(counts, (0, 1, 0)) == 2
    assert profile_index(counts, (1, 0, 0)) == 6
    assert profile_index(counts, (1, 2, 1)) == 11


def test_profile_index_bounds():
    with pytest.raises(ParameterError):
        profile_index((2, 2), (0, 2))
    with pytest.raises(DimensionMismatch):
        profile_index((2, 2), (0,))
    with pytest.raises(ParameterError):
        profile_unindex((2, 2), 4)


def test_iter_profiles_matches_index_order():
    counts = (2, 3, 2)
    profiles = list(iter_profiles(counts))
    assert len(profiles) == 12
    for idx, prof in enumerate(profiles):
        assert profile_index(counts, prof) == idx
        assert profile_unindex(counts, idx) == prof


@given(
    counts=st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
    data=st.data(),
)
def test_profile_roundtrip(counts, data):
    strategies = tuple(data.draw(st.integers(0, n - 1)) for n in counts)
    idx = profile_index(counts, strategies)
    assert profile_unindex(counts, idx) == strategies


# ---------------------------------------------------------------------------
# mixed strategies


def test_validate_mixed():
    validate_mixed((R(1, 3), R(2, 3)))
    with pytest.raises(ParameterError):
        validate_mixed((R(1, 3), R(1, 3)))
    with pytest.raises(ParameterError):
        validate_mixed((R(-1, 3), R(4, 3)))
    with pytest.raises(DimensionMismatch):
        validate_mixed((R(1),), length=2)


def test_validate_mixed_checks_the_exact_sum():
    tiny = R(1, 2**200)
    with pytest.raises(ParameterError, match="sum to 1"):
        validate_mixed((R(1, 2), R(1, 2) + tiny))
    with pytest.raises(ParameterError, match="sum to 1"):
        validate_mixed((R(1, 3), R(2, 3) - tiny))
    with pytest.raises(ParameterError, match="negative"):
        validate_mixed((-tiny, R(1) + tiny))
    assert validate_mixed((R(1, 3), R(1, 5), R(7, 15))) == (R(1, 3), R(1, 5), R(7, 15))
    mixed_types = [1, 0, R(0)]  # ints are exact rationals too, and are kept
    assert validate_mixed(mixed_types) == (1, 0, 0)


@pytest.mark.parametrize("vec", [(0.5, 0.5), (R(1, 2), 0.5), (1.0, 0), (complex(1), 0)])
def test_validate_mixed_rejects_inexact_entries(vec):
    with pytest.raises(ParameterError, match="exact rational"):
        validate_mixed(vec)


def test_verifiers_reject_float_profiles():
    g = three_player_poly()
    floats = [(0.5, 0.5)] * 3
    with pytest.raises(ParameterError, match="exact rational"):
        g.verify_wsne(floats, R(1, 10))
    exact = (R(1, 4),) * 4
    for game in (small_structured(), small_structured().to_dense()):
        with pytest.raises(ParameterError, match="exact rational"):
            game.verify_wsne((0.25,) * 4, exact, R(1, 10))
        with pytest.raises(ParameterError, match="exact rational"):
            game.verify_wsne(exact, (0.25,) * 4, R(1, 10))


def games_with_profiles():
    """A game of each class, each bimatrix form too, with a profile to verify."""
    half = (R(1, 2), R(1, 2))
    quarter = (R(1, 4),) * 4
    yield two_player_game(), [half, half]
    yield three_player_poly(), [half] * 3
    for game in (small_structured(), small_structured().to_dense(), normalize_bimatrix(small_structured())):
        yield game, (quarter, quarter)


@pytest.mark.parametrize(
    "eps, message",
    [(0.1, "eps has an entry that is not an exact rational"), (-1, "eps must be nonnegative"),
     (R(-1, 2), "eps must be nonnegative")],
    ids=["float", "minus_one", "minus_half"],
)
def test_verifiers_reject_an_inexact_or_negative_tolerance(eps, message):
    for game, profile in games_with_profiles():
        args = profile if isinstance(game, BimatrixGame) else (profile,)
        with pytest.raises(ParameterError) as err:
            game.verify_wsne(*args, eps)
        assert str(err.value) == message
        game.verify_wsne(*args, 0)  # an exact zero tolerance is exact Nash
    with pytest.raises(ParameterError) as err:  # at the call, not when the stream starts
        grid_enumerate_wsne(two_player_game(), eps, R(1, 2))
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [2.9, "2", True], ids=["float", "string", "bool"])
def test_strategy_counts_must_be_ints(bad):
    message = rf"^strategy counts must be ints, got \({bad!r}, 2\)$"
    with pytest.raises(ParameterError, match=message):
        PolymatrixGame([bad, 2], {})
    with pytest.raises(ParameterError, match=message):
        NormalFormGame([bad, 2], [[[R(0)] * 2] * 2] * 2)


INEXACT_MATRICES = {
    "float": [[0.5, 0], [0, 0]],
    "float-one": [[R(1, 2), 1.0], [0, 0]],
    "complex": [[complex(1), 0], [0, 0]],
    "string": [["1/2", 0], [0, 0]],
}
GAME_BUILDERS = {
    "normal-form": lambda mat: NormalFormGame((2, 2), [mat, [[R(0)] * 2] * 2]),
    "polymatrix": lambda mat: PolymatrixGame((2, 2), {(0, 1): mat}),
    "dense": lambda mat: BimatrixGame.dense(mat, [[R(0)] * 2] * 2),
    "structured": lambda mat: BimatrixGame.structured(PolymatrixGame((2, 2), {(0, 1): mat}), R(4)),
}


@pytest.mark.parametrize("alpha,normalized", [(4.0, False), (complex(4), True)])
def test_structured_rejects_inexact_scalars(alpha, normalized):
    gm = PolymatrixGame((2, 2), {})
    with pytest.raises(ParameterError, match="alpha .*exact rational"):
        BimatrixGame.structured(gm, alpha, normalized)
    BimatrixGame.structured(gm, 4, normalized)


@pytest.mark.parametrize("entries", INEXACT_MATRICES.values(), ids=INEXACT_MATRICES)
@pytest.mark.parametrize("build", GAME_BUILDERS.values(), ids=GAME_BUILDERS)
def test_game_constructors_reject_inexact_entries(build, entries):
    with pytest.raises(ParameterError, match="exact rational"):
        build(entries)
    build([[R(1, 2), 1], [0, 0]])  # exact entries of the same shape build


def test_strategy_helpers():
    assert sum(uniform_strategy(3)) == 1
    assert pure_strategy(3, 1) == (0, 1, 0)
    with pytest.raises(ParameterError):
        pure_strategy(2, 2)


# ---------------------------------------------------------------------------
# normal-form games


def two_player_game():
    # row player wants to mismatch, column player wants to match
    return NormalFormGame(
        (2, 2),
        [
            [[R(0), R(1)], [R(1), R(0)]],
            [[R(1), R(0)], [R(0), R(1)]],
        ],
    )


def test_normal_form_expected_payoffs_two_player():
    g = two_player_game()
    u = g.expected_payoffs([(R(1, 2), R(1, 2)), (R(1, 4), R(3, 4))])
    assert u[0] == (R(3, 4), R(1, 4))
    assert u[1] == (R(1, 2), R(1, 2))


def test_normal_form_expected_payoffs_three_player():
    # player 0's columns run over profiles of players (1, 2): 00, 01, 10, 11
    m0 = [[R(0), R(1, 4), R(1, 2), R(3, 4)], [R(1), R(0), R(0), R(1)]]
    ones = [[R(0), R(0), R(0), R(0)], [R(1), R(1), R(1), R(1)]]
    g = NormalFormGame((2, 2, 2), [m0, ones, ones])
    prof = [(R(1), R(0)), (R(1, 2), R(1, 2)), (R(1, 3), R(2, 3))]
    u = g.expected_payoffs(prof)
    assert u[0] == (R(5, 12), R(1, 2))


def test_normal_form_verify_wsne_tolerance():
    g = two_player_game()
    prof = [(R(1, 2), R(1, 2)), (R(1, 4), R(3, 4))]
    assert g.verify_wsne(prof, R(1, 2)).ok
    res = g.verify_wsne(prof, R(1, 4))
    assert not res.ok
    (v,) = res.violations
    assert (v.player, v.strategy, v.best_strategy) == (0, 1, 0)
    assert v.gap == R(1, 2)


def test_normal_form_pure_equilibrium():
    g = NormalFormGame(
        (2, 2),
        [
            [[R(1), R(0)], [R(0), R(1, 2)]],
            [[R(1, 2), R(0)], [R(0), R(1)]],
        ],
    )
    ok = g.verify_wsne([pure_strategy(2, 0), pure_strategy(2, 0)], R(0))
    assert ok.ok
    bad = g.verify_wsne([pure_strategy(2, 0), pure_strategy(2, 1)], R(1, 4))
    assert not bad.ok


def test_normal_form_validation():
    with pytest.raises(ParameterError):
        NormalFormGame((2, 2), [[[R(2), R(0)], [R(0), R(0)]], [[R(0), R(0)], [R(0), R(0)]]])
    with pytest.raises(DimensionMismatch):
        NormalFormGame((2, 2), [[[R(0), R(0)]], [[R(0), R(0)], [R(0), R(0)]]])
    with pytest.raises(DimensionMismatch):
        two_player_game().expected_payoffs([(R(1), R(0))])


@settings(max_examples=30)
@given(seed=st.integers(0, 10**6))
def test_normal_form_eps_one_never_violated(seed):
    """Payoffs live in [0, 1], so no gap can exceed 1."""
    g = random_normal_form(seed, (2, 3))
    prof = [uniform_strategy(2), uniform_strategy(3)]
    assert g.verify_wsne(prof, R(1)).ok


# ---------------------------------------------------------------------------
# polymatrix games


def three_player_poly():
    edges = {
        (0, 1): [[R(0), R(1)], [R(1), R(0)]],
        (1, 2): [[R(0), R(2)], [R(1), R(0)]],
        (2, 0): [[R(-1), R(0)], [R(0), R(1)]],
    }
    return PolymatrixGame((2, 2, 2), edges)


def test_polymatrix_expected_payoffs():
    g = three_player_poly()
    prof = [(R(1, 2), R(1, 2)), (R(1), R(0)), (R(1, 4), R(3, 4))]
    u = g.expected_payoffs(prof)
    assert u[0] == (R(0), R(1))
    assert u[1] == (R(3, 2), R(1, 4))
    assert u[2] == (R(-1, 2), R(1, 2))


def test_polymatrix_verify_clamped():
    g = three_player_poly()
    prof = [(R(1, 2), R(1, 2)), (R(1), R(0)), (R(1, 4), R(3, 4))]
    assert not g.verify_wsne(prof, R(0)).ok
    res = g.verify_wsne(prof, R(0), clamped={0})
    assert [v.player for v in res.violations] == [2]
    assert g.verify_wsne(prof, R(0), clamped={0, 2}).ok


def test_polymatrix_drops_zero_edges():
    g = PolymatrixGame(
        (2, 2),
        {(0, 1): [[R(0), R(0)], [R(0), R(0)]], (1, 0): [[R(1), R(0)], [R(0), R(1)]]},
    )
    assert (0, 1) not in g.edges
    assert (1, 0) in g.edges


def test_polymatrix_validation():
    with pytest.raises(ParameterError):
        PolymatrixGame((2, 2), {(0, 0): [[R(0), R(1)], [R(1), R(0)]]})
    with pytest.raises(ParameterError):
        PolymatrixGame((2, 2), {(0, 1): [[R(3), R(0)], [R(0), R(0)]]})
    with pytest.raises(ParameterError):
        PolymatrixGame((1, 2), {})
    with pytest.raises(DimensionMismatch):
        PolymatrixGame((2, 3), {(0, 1): [[R(1), R(0)], [R(0), R(1)]]})


def test_polymatrix_empty_game():
    g = PolymatrixGame((), {})
    assert g.m == 0
    assert g.expected_payoffs([]) == []
    assert g.verify_wsne([], R(0)).ok


def test_polymatrix_payoff_range():
    g = three_player_poly()
    assert g.payoff_range() == (R(-1), R(2))
    assert PolymatrixGame((), {}).payoff_range() == (0, 0)


# ---------------------------------------------------------------------------
# bimatrix games


def small_structured():
    edges = {
        (0, 1): [[R(0), R(1)], [R(1), R(0)]],
        (1, 0): [[R(1), R(0)], [R(0), R(1)]],
    }
    return BimatrixGame.structured(PolymatrixGame((2, 2), edges), R(10))


def test_structured_entries():
    g = small_structured()
    assert g.n == 4
    assert g.entry(0, 0, 0) == R(-10)
    assert g.entry(0, 1, 1) == R(-10)
    assert g.entry(0, 0, 2) == R(0)
    assert g.entry(0, 0, 3) == R(1)
    assert g.entry(0, 2, 0) == R(1)
    assert g.entry(1, 2, 2) == R(1)
    assert g.entry(1, 2, 1) == R(0)


def test_structured_matches_dense():
    g = small_structured()
    d = g.to_dense()
    x = (R(1, 4), R(1, 4), R(1, 4), R(1, 4))
    y = (R(1, 2), R(0), R(1, 3), R(1, 6))
    u1s, u2s = g.expected_payoffs(x, y)
    u1d, u2d = d.expected_payoffs(x, y)
    assert u1s == u1d
    assert u2s == u2d
    for r in range(4):
        for c in range(4):
            assert g.entry(0, r, c) == d.entry(0, r, c)
            assert g.entry(1, r, c) == d.entry(1, r, c)


def test_normalized_structured_payoffs_affine():
    edges = {
        (0, 1): [[R(0), R(1)], [R(1), R(0)]],
        (1, 0): [[R(1), R(0)], [R(0), R(1)]],
    }
    alpha = R(10)
    div = alpha + 1
    gm = PolymatrixGame((2, 2), edges)
    raw = BimatrixGame.structured(gm, alpha)
    norm = BimatrixGame.structured(gm, alpha, normalized=True)
    assert raw.divisor == norm.divisor == div
    x = (R(1, 2), R(0), R(1, 4), R(1, 4))
    y = (R(1, 8), R(3, 8), R(1, 4), R(1, 4))
    u1, u2 = raw.expected_payoffs(x, y)
    v1, v2 = norm.expected_payoffs(x, y)
    assert v1 == tuple((u + alpha) / div for u in u1)
    assert v2 == tuple((u + alpha) / div for u in u2)
    lo, hi = norm.payoff_range()
    assert 0 <= lo <= hi <= 1
    # tolerances scale with the same divisor
    eps = R(1, 5)
    assert raw.verify_wsne(x, y, eps).ok == norm.verify_wsne(x, y, eps / div).ok


def test_structured_payoff_range_counts_edges_below_minus_alpha():
    gm = PolymatrixGame((2, 2), {(0, 1): [[R(-1), R(0)], [R(0), R(0)]]})
    g = BimatrixGame.structured(gm, R(1, 2))
    assert g.payoff_range() == g.to_dense().payoff_range() == (R(-1), R(1))
    with pytest.raises(ParameterError, match="below -alpha"):
        normalize_bimatrix(g)
    with pytest.raises(ParameterError, match="below -alpha"):
        BimatrixGame.structured(gm, R(1, 2), normalized=True)


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("seed", range(12))
def test_structured_payoff_range_matches_dense(seed, normalized):
    """Alphas below and above 1, edge minima below and above -alpha."""
    rng = random.Random(seed)
    alpha = (R(1, 2), R(3, 4), R(2), R(7, 2))[seed % 4]
    lo = (R(-1), R(-1, 4), R(0))[seed % 3]
    gm = random_polymatrix(rng, (2, 3, 2), denominator=4, lo=lo, hi=rng.choice((R(1), R(2))))
    if normalized and gm.payoff_range()[0] < -alpha:
        with pytest.raises(ParameterError, match="below -alpha"):
            BimatrixGame.structured(gm, alpha, normalized)
        return
    g = BimatrixGame.structured(gm, alpha, normalized)
    lo, hi = g.payoff_range()
    assert (lo, hi) == g.to_dense().payoff_range()
    if normalized:
        assert 0 <= lo <= hi <= 1


@pytest.mark.parametrize(
    "sizes,edges",
    [
        ((1, 3), {}),
        ((2, 2), {(0, 1): [[R(5, 2), R(0)], [R(0), R(0)]]}),
        ((2, 2), {(1, 0): [[R(0), R(0)], [R(0), R(-3, 2)]]}),
    ],
    ids=["size_one_block", "entry_above_2", "entry_below_minus_1"],
)
def test_structured_games_follow_the_polymatrix_rules(sizes, edges):
    with pytest.raises(ParameterError):
        BimatrixGame.structured(PolymatrixGame(sizes, edges), R(4))


def test_dense_verify_wsne():
    # matching pennies, scaled into [0, 1]
    a = [[R(1), R(0)], [R(0), R(1)]]
    b = [[R(0), R(1)], [R(1), R(0)]]
    g = BimatrixGame.dense(a, b)
    half = (R(1, 2), R(1, 2))
    assert g.verify_wsne(half, half, R(0)).ok
    res = g.verify_wsne((R(1), R(0)), half, R(0))
    assert not res.ok
    assert res.violations[0].player == 1


BLOCK_CALLS = {
    "num_blocks": lambda g: g.num_blocks,
    "block_offset": lambda g: g.block_offset(0),
    "strategy_index": lambda g: g.strategy_index(0, 1),
    "block_of": lambda g: g.block_of(1),
}


@pytest.mark.parametrize("name", sorted(BLOCK_CALLS))
def test_dense_games_have_no_block_structure(name):
    g = BimatrixGame.dense([[R(1), R(0)], [R(0), R(1)]], [[R(0), R(1)], [R(1), R(0)]])
    with pytest.raises(ParameterError, match=r"^dense games have no block structure$"):
        BLOCK_CALLS[name](g)


def test_bimatrix_validation():
    with pytest.raises(DimensionMismatch):
        BimatrixGame.dense([[R(0), R(1)]], [[R(0), R(1)]])
    with pytest.raises(ParameterError):
        BimatrixGame.structured(PolymatrixGame((2, 2), {}), R(0))
    with pytest.raises(ParameterError):
        BimatrixGame.structured(PolymatrixGame((), {}), R(4))
    with pytest.raises(TypeError):
        BimatrixGame()


def test_block_index_helpers():
    g = small_structured()
    assert g.strategy_index(0, 1) == 1
    assert g.strategy_index(1, 0) == 2
    assert g.block_of(3) == (1, 1)
    with pytest.raises(ParameterError):
        g.strategy_index(0, 2)


def test_block_index_round_trip_uneven_blocks():
    sizes = (2, 3, 2, 5)
    g = BimatrixGame.structured(PolymatrixGame(sizes, {}), R(4))
    assert [g.block_offset(i) for i in range(len(sizes))] == [0, 2, 5, 7]
    pairs = [(i, j) for i, n in enumerate(sizes) for j in range(n)]
    assert [g.strategy_index(i, j) for i, j in pairs] == list(range(g.n))
    assert [g.block_of(s) for s in range(g.n)] == pairs
    for i, j in ((0, 2), (1, -1), (3, 5), (4, 0), (-1, 0)):
        with pytest.raises(ParameterError):
            g.strategy_index(i, j)
    for s in (-1, g.n, g.n + 7):
        with pytest.raises(ParameterError):
            g.block_of(s)


# ---------------------------------------------------------------------------
# the edge-payoff kernel against a naive reference


def random_mixed(rng, n):
    weights = [rng.randrange(4) for _ in range(n)]
    weights[rng.randrange(n)] += 1
    total = sum(weights)
    return tuple(R(w, total) for w in weights)


def random_matrix(rng, rows, cols):
    return [[R(rng.randrange(-4, 9), 4) for _ in range(cols)] for _ in range(rows)]


def naive_edge_payoffs(counts, edges, vectors):
    out = []
    for i, n in enumerate(counts):
        u = []
        for r in range(n):
            total = 0
            for j in range(len(counts)):
                mat = edges.get((i, j))
                if mat is not None:
                    for c in range(counts[j]):
                        total += mat[r][c] * vectors[j][c]
            u.append(total)
        out.append(tuple(u))
    return out


def kernel_payoffs(counts, edges, vectors):
    """:func:`edge_payoffs` on vectors scaled to ints by hand, read back as
    one list of Fractions per player; every pair must be ints with a
    positive denominator."""
    offsets = tuple(itertools.accumulate(counts, initial=0))
    scales = [math.lcm(*(v.denominator for v in vec)) for vec in vectors]
    units = [v.numerator * (L // v.denominator) for vec, L in zip(vectors, scales) for v in vec]
    totals, dens = edge_payoffs(offsets, edges, scales, units)
    assert len(totals) == len(dens) == offsets[-1]
    assert {type(v) for v in totals + dens} <= {int} and min(dens, default=1) > 0
    return [list(map(Fraction, totals[a:b], dens[a:b])) for a, b in zip(offsets, offsets[1:])]


def sparse_polymatrix(seed):
    """Uneven strategy counts; player 0 has no out-edges and the last
    player is isolated; other edges appear with probability 1/3."""
    rng = random.Random(seed)
    m = rng.randrange(4, 8)
    counts = tuple(rng.randrange(2, 5) for _ in range(m))
    edges = {(1, 0): random_matrix(rng, counts[1], counts[0])}
    for i in range(1, m - 1):
        for j in range(m - 1):
            if i != j and rng.random() < 1 / 3:
                edges[(i, j)] = random_matrix(rng, counts[i], counts[j])
    return rng, PolymatrixGame(counts, edges)


@pytest.mark.parametrize("seed", range(12))
def test_polymatrix_payoffs_match_naive_reference(seed):
    rng, g = sparse_polymatrix(seed)
    prof = [random_mixed(rng, n) for n in g.strategy_counts]
    expected = naive_edge_payoffs(g.strategy_counts, g.edges, prof)
    u = g.expected_payoffs(prof)
    assert u == expected
    assert [tuple(v) for v in kernel_payoffs(g.strategy_counts, g.edges, prof)] == expected
    assert {type(v) for vec in u for v in vec} == {type(R(0))}
    assert u[0] == (0,) * g.strategy_counts[0]
    assert u[-1] == (0,) * g.strategy_counts[-1]


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_structured_payoffs_match_dense(seed, normalized):
    rng = random.Random(seed)
    sizes = (2, 3, 2, 4, 2)
    edgeless = 2  # block 2 has no edges in or out
    edges = {
        (i, j): random_matrix(rng, sizes[i], sizes[j])
        for i in range(len(sizes))
        for j in range(len(sizes))
        if i != j and edgeless not in (i, j) and rng.random() < 1 / 2
    }
    alpha = R(rng.randrange(5, 20))
    g = BimatrixGame.structured(PolymatrixGame(sizes, edges), alpha, normalized)
    d = g.to_dense()
    x = random_mixed(rng, g.n)
    y = random_mixed(rng, g.n)
    assert g.expected_payoffs(x, y) == d.expected_payoffs(x, y)
    for eps in (R(0), R(1, 10), R(1)):
        assert g.verify_wsne(x, y, eps) == d.verify_wsne(x, y, eps)


PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149)


def kernel_case(kind, seed):
    """A sparse polymatrix game (player 0 without out-edges, the last
    player isolated) and strategy vectors of one kind:

    * ``primes`` -- player ``j``'s vector has the prime denominator
      ``PRIMES[j]``, so no two vectors share a denominator;
    * ``negative`` -- every edge entry lies in [-1, 0);
    * ``ints`` -- plain int entries next to rationals, in matrices and vectors;
    * ``pure`` -- pure vectors, 0 and 1 only.
    """
    rng, g = sparse_polymatrix(seed)
    counts, edges = g.strategy_counts, g.edges
    if kind == "negative":
        edges = {
            e: [[R(-rng.randrange(1, 61), 60) for _ in row] for row in mat]
            for e, mat in edges.items()
        }
    elif kind == "ints":
        edges = {
            e: [[rng.choice((0, 1, 2, -1, x)) for x in row] for row in mat]
            for e, mat in edges.items()
        }
    g = PolymatrixGame(counts, edges)
    if kind == "primes":
        vectors = []
        for j, n in enumerate(counts):
            p = PRIMES[j]
            cuts = sorted(rng.randrange(p + 1) for _ in range(n - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [p])]
            vectors.append(tuple(R(k, p) for k in parts))
    elif kind == "ints":
        vectors = [
            (0,) * (n - 1) + (1,) if j % 2 else (0,) * (n - 2) + (R(1, 3), R(2, 3))
            for j, n in enumerate(counts)
        ]
    elif kind == "pure":
        vectors = [pure_strategy(n, rng.randrange(n)) for n in counts]
    else:
        vectors = [random_mixed(rng, n) for n in counts]
    return g, vectors


KERNEL_KINDS = ("primes", "negative", "ints", "pure")


def assert_fractions(vectors):
    assert {type(v) for vec in vectors for v in vec} == {Fraction}


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_edge_payoffs_differential(kind, seed):
    g, vectors = kernel_case(kind, seed)
    expected = naive_edge_payoffs(g.strategy_counts, g.edges, vectors)
    got = kernel_payoffs(g.strategy_counts, g.edges, vectors)
    assert [tuple(u) for u in got] == expected
    assert_fractions(got)
    assert g.expected_payoffs(vectors) == expected
    assert got[0] == [0] * g.strategy_counts[0]  # no out-edges
    assert got[-1] == [0] * g.strategy_counts[-1]  # isolated
    zeros = [(0,) * n for n in g.strategy_counts]  # not a mixed strategy
    silent = kernel_payoffs(g.strategy_counts, g.edges, zeros)
    assert all(v == 0 for u in silent for v in u)
    assert_fractions(silent)


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("seed", range(3))
def test_structured_payoffs_differential(kind, seed, normalized):
    gm, vectors = kernel_case(kind, seed)
    alpha = R(PRIMES[-1] * 8, 7)  # no denominator shared with any vector
    g = BimatrixGame.structured(gm, alpha, normalized)
    m = gm.m
    y = tuple(v * R(1, m) for vec in vectors for v in vec)
    x = tuple(reversed(y))
    u1, u2 = g.expected_payoffs(x, y)
    assert (u1, u2) == g.to_dense().expected_payoffs(x, y)
    blocks = [tuple(v * R(1, m) for v in vec) for vec in vectors]
    naive = naive_edge_payoffs(gm.strategy_counts, gm.edges, blocks)
    expected = [v - alpha * sum(b) for u, b in zip(naive, blocks) for v in u]
    if normalized:
        expected = [(v + alpha) / g.divisor for v in expected]
    assert list(u1) == expected
    assert_fractions([u1])


def test_normalized_payoffs_with_an_int_alpha_stay_rational():
    gm = PolymatrixGame((2, 2), {(0, 1): [[1, 0], [0, 1]]})
    g = BimatrixGame.structured(gm, 5, normalized=True)
    x, y = (1, 0, 0, 0), (R(1, 2), 0, R(1, 2), 0)
    u1, u2 = g.expected_payoffs(x, y)
    assert_fractions([u1, u2])
    assert u2 == (1, R(5, 6), R(5, 6), R(5, 6))
    assert_fractions([g.payoff_range(), (g.entry(1, 0, 0), g.entry(0, 0, 0))])
    (bad,) = g.verify_wsne(x, y, 0).violations
    assert (bad.player, bad.strategy, bad.best_strategy) == (1, 2, 0)
    assert_fractions([(bad.payoff, bad.best_payoff)])


# ---------------------------------------------------------------------------
# malformed profiles: the fused validate-and-scale pass raises what the
# separate checks raised, naming the player or block at fault


def malformed_setup():
    gm = PolymatrixGame(
        (2, 3, 2),
        {(0, 1): [[R(1), R(0), R(1, 2)], [R(0), R(1), R(1)]], (2, 0): [[R(-1), 2], [R(1, 3), 0]]},
    )
    g2, mapping, _ = bimatrixify(gm, R(1, 4))
    good = [(R(1, 2), R(1, 2)), (R(1, 3), R(1, 3), R(1, 3)), (1, 0)]
    flat = tuple(R(v) / 3 for p in good for v in p)
    return gm, g2, mapping, good, flat


def replaced(vec, changes):
    vec = list(vec)
    for i, v in changes.items():
        vec[i] = v
    return tuple(vec)


# name: (polymatrix profile from the good one, its error class and message,
# bimatrix strategy from the good one, its error class and message); the
# messages are patterns with "{who}" for "player" or "block" and "{side}"
# for "leader" or "follower"
MALFORMED = {
    "wrong_length": (
        lambda good: [good[0], good[1][:2], good[2]],
        DimensionMismatch, r"^{who} 1 strategy has length 2, expected 3$",
        lambda flat: flat[:-1],
        DimensionMismatch, r"^{side} strategy has length 6, expected 7$",
    ),
    "negative_entry": (
        lambda good: [good[0], (R(1, 2), R(-1, 2), 1), good[2]],
        ParameterError, r"^{who} 1 strategy has a negative entry$",
        lambda flat: replaced(flat, {2: -flat[2], 3: flat[3] + 2 * flat[2]}),
        ParameterError, r"^{side} strategy block 1 has a negative entry$",
    ),
    "sum_not_one": (
        lambda good: [good[0], good[1], (R(1, 2), R(1, 3))],
        ParameterError, r"^{who} 2 strategy does not sum to 1$",
        lambda flat: tuple(2 * v for v in flat),
        ParameterError, r"^{side} strategy does not sum to 1$",
    ),
    "float_entry": (
        lambda good: [(0.5, 0.5), good[1], good[2]],
        ParameterError, r"^{who} 0 strategy has an entry that is not an exact rational$",
        lambda flat: replaced(flat, {0: 0.5 / 3}),
        ParameterError, r"^{side} strategy block 0 has an entry that is not an exact rational$",
    ),
}


# a dense game's strategies have no blocks to name
DENSE_MALFORMED = {
    "wrong_length": r"^{side} strategy has length 6, expected 7$",
    "negative_entry": r"^{side} strategy has a negative entry$",
    "sum_not_one": r"^{side} strategy does not sum to 1$",
    "float_entry": r"^{side} strategy has an entry that is not an exact rational$",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_polymatrix_profiles_fail_as_before(name):
    gm, g2, mapping, good, _ = malformed_setup()
    make, cls, pattern, *_ = MALFORMED[name]
    profile = make(good)
    with pytest.raises(cls, match=pattern.format(who="player")):
        gm.verify_wsne(profile, R(0))
    with pytest.raises(cls, match=pattern.format(who="block")):
        lift_to_bimatrix(g2, profile, mapping)


@pytest.mark.parametrize("side", ["leader", "follower"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_bimatrix_strategies_fail_as_before(name, side):
    _, g2, mapping, _, flat = malformed_setup()
    *_, make, cls, pattern = MALFORMED[name]
    bad = make(flat)
    x, y = (bad, flat) if side == "leader" else (flat, bad)
    for game in (g2, normalize_bimatrix(g2)):
        with pytest.raises(cls, match=pattern.format(side=side)):
            game.verify_wsne(x, y, R(0))
        with pytest.raises(cls, match=pattern.format(side=side)):
            game.expected_payoffs(x, y)
    with pytest.raises(cls, match=pattern.format(side=side)):
        recover_from_bimatrix(g2, (x, y), mapping)
    dense = g2.to_dense()
    with pytest.raises(cls, match=DENSE_MALFORMED[name].format(side=side)):
        dense.verify_wsne(x, y, R(0))
    with pytest.raises(cls, match=DENSE_MALFORMED[name].format(side=side)):
        dense.expected_payoffs(x, y)


def test_a_one_block_strategy_names_no_block():
    g2 = BimatrixGame.structured(PolymatrixGame((2,), {}), R(1))
    for game in (g2, g2.to_dense()):
        with pytest.raises(ParameterError, match=r"^leader strategy has a negative entry$"):
            game.verify_wsne((R(2), R(-1)), (1, 0), R(0))


def test_profiles_with_a_wrong_player_count_fail_as_before():
    gm, g2, mapping, good, flat = malformed_setup()
    with pytest.raises(DimensionMismatch, match=r"^profile has 2 strategies for 3 players$"):
        gm.verify_wsne(good[:2], R(0))
    with pytest.raises(DimensionMismatch, match=r"^profile has 4 strategies for 3 blocks$"):
        lift_to_bimatrix(g2, good + [good[0]], mapping)
    # a bimatrix profile is (leader, follower); verify_wsne takes the two
    # strategies as separate arguments
    for vectors in (3, 1):
        with pytest.raises(DimensionMismatch, match=rf"^profile has {vectors} strategies for 2 players$"):
            recover_from_bimatrix(g2, (flat,) * vectors, mapping)


def test_recover_from_bimatrix_keeps_values_and_types():
    gm = PolymatrixGame((2, 3, 2), {(0, 1): [[R(1), R(0), R(1, 2)], [R(0), R(1), R(1)]]})
    g2, mapping, _ = bimatrixify(gm, R(1, 4))
    x = (R(1, 7),) * 7
    y = (R(1, 6), R(1, 12), R(0), R(3, 20), R(1, 5), R(1, 9), R(13, 45))
    got = recover_from_bimatrix(g2, (x, y), mapping)
    assert got == [
        (R(2, 3), R(1, 3)),
        (R(0), R(3, 7), R(4, 7)),
        (R(5, 18), R(13, 18)),
    ]
    assert_fractions(got)
    with pytest.raises(ZeroBlockMass):
        recover_from_bimatrix(g2, (x, (R(1, 5),) * 5 + (R(0),) * 2), mapping)


@pytest.mark.parametrize("edge_free", [{1}, {0, 1, 2}])
def test_lift_to_bimatrix_with_edgeless_block_stays_rational(edge_free):
    rng = random.Random(5)
    counts = (2, 3, 2)
    edges = {
        (i, j): random_matrix(rng, counts[i], counts[j])
        for i in range(3)
        for j in range(3)
        if i != j and not {i, j} & edge_free
    }
    gm = PolymatrixGame(counts, edges)
    g2, mapping, _ = bimatrixify(gm, R(1, 2))
    prof = [pure_strategy(n, 0) for n in counts]
    x, y = lift_to_bimatrix(g2, prof, mapping)
    assert_fractions([x, y])
    assert sum(x) == 1 and sum(y) == 1


# ---------------------------------------------------------------------------
# random generators


def test_random_generators_deterministic():
    assert random_normal_form(42, (2, 2)) == random_normal_form(42, (2, 2))
    assert random_polymatrix(42, (2, 2, 2)) == random_polymatrix(42, (2, 2, 2))
    assert random_normal_form(42, (2, 2)) != random_normal_form(43, (2, 2))


def test_random_polymatrix_range():
    g = random_polymatrix(7, (2, 2), lo=R(-1), hi=R(2))
    lo, hi = g.payoff_range()
    assert -1 <= lo <= hi <= 2
    with pytest.raises(ParameterError):
        random_polymatrix(7, (2, 2), lo=R(-2))
