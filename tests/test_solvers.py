"""Solver tests.

Support enumeration is pinned on textbook games (matching pennies,
dominance, rock-paper-scissors, an all-ties game fixing the tie-break),
then exercised end to end: imitation games built from random polymatrix
games are solved exactly and the recovered profile must pass the
polymatrix verifier at the reduction's tolerance.  Every support pair of
seeded random matrices must solve as the old square/phase-1 split
(``solver_oracles``) solved it, and int entries must give exact
``Fraction`` answers.  Trying the follower's side of each pair first
must find the profile and pair count of the old leader-first loop (also
in ``solver_oracles``), and the search counters are pinned.  Grid
enumeration is cross-checked against an independent filter written
inline.  The witness generator must verify on
exact input profiles and round-trip through block renormalization bit for
bit.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from solver_oracles import (
    leader_first_search,
    solve_square,
    subset_pairs_up_to,
    support_pairs,
    support_solution,
)

from nashreduce import CapExceeded, DimensionMismatch, NoEquilibriumFound, ParameterError, R
from nashreduce.gadgets import GadgetCircuit
from nashreduce.model import (
    BimatrixGame,
    NormalFormGame,
    PolymatrixGame,
    random_polymatrix,
)
from nashreduce.reductions import bimatrixify, normalize_bimatrix, recover_from_bimatrix
from nashreduce.solvers import (
    DEFAULT_SUPPORT_CAP,
    EPS_WSNE,
    EXACT_NASH,
    SearchCounters,
    SolverResult,
    _phase1_feasible,
    _support_solution,
    brute_force_normal_nash,
    grid_enumerate_wsne,
    lift_to_bimatrix,
    realized_eps,
    support_enumeration_bimatrix,
)

HALF = R(1, 2)


def pennies_bimatrix():
    return BimatrixGame.dense(
        [[R(1), R(0)], [R(0), R(1)]],
        [[R(0), R(1)], [R(1), R(0)]],
    )


def pennies_normal_form():
    return NormalFormGame(
        (2, 2),
        [
            [[R(1), R(0)], [R(0), R(1)]],
            [[R(0), R(1)], [R(1), R(0)]],
        ],
    )


def pennies_polymatrix():
    return PolymatrixGame(
        (2, 2),
        {
            (0, 1): [[R(1), R(0)], [R(0), R(1)]],
            (1, 0): [[R(0), R(1)], [R(1), R(0)]],
        },
    )


# ---------------------------------------------------------------------------
# support enumeration


def test_matching_pennies_mixed_equilibrium():
    result = support_enumeration_bimatrix(pennies_bimatrix())
    assert result.profile == ((HALF, HALF), (HALF, HALF))
    assert result.certificate == EXACT_NASH
    assert result.eps == 0
    assert result.method == "support-enumeration"
    assert result.verify(pennies_bimatrix()).ok


def test_dominant_strategies_found_as_pure_profile():
    game = BimatrixGame.dense(
        [[R(2), R(2)], [R(0), R(0)]],
        [[R(2), R(0)], [R(2), R(0)]],
    )
    result = support_enumeration_bimatrix(game)
    assert result.profile == ((R(1), R(0)), (R(1), R(0)))


def test_all_equal_game_tie_break_is_first_support_pair():
    flat = [[R(1), R(1)], [R(1), R(1)]]
    result = support_enumeration_bimatrix(BimatrixGame.dense(flat, flat))
    # every profile is an equilibrium; the size-ordered scan must pick the
    # first singleton pair, making the answer deterministic
    assert result.profile == ((R(1), R(0)), (R(1), R(0)))


def test_rock_paper_scissors_uniform():
    a = [[R(0), R(-1), R(1)], [R(1), R(0), R(-1)], [R(-1), R(1), R(0)]]
    b = [[-v for v in row] for row in a]
    result = support_enumeration_bimatrix(BimatrixGame.dense(a, b))
    third = R(1, 3)
    assert result.profile == ((third,) * 3, (third,) * 3)


def test_support_enumeration_cap():
    assert DEFAULT_SUPPORT_CAP == 12
    zeros = [[R(0)] * 13 for _ in range(13)]
    with pytest.raises(CapExceeded):
        support_enumeration_bimatrix(BimatrixGame.dense(zeros, zeros))
    small = [[R(0)] * 4 for _ in range(4)]
    with pytest.raises(CapExceeded):
        support_enumeration_bimatrix(BimatrixGame.dense(small, small), cap=3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_imitation_game_solution_recovers_polymatrix_wsne(seed):
    gm = random_polymatrix(seed, (2, 2, 2))
    g2, mapping, params = bimatrixify(gm, R(3, 10))
    result = support_enumeration_bimatrix(g2)
    x, y = result.profile
    assert g2.verify_wsne(x, y, R(0)).ok
    recovered = recover_from_bimatrix(g2, (x, y), mapping)
    assert gm.verify_wsne(recovered, params.eps_m).ok


def test_exhausted_search_is_an_internal_error(monkeypatch):
    import nashreduce.solvers as solvers

    monkeypatch.setattr(solvers, "_support_solution", lambda *args: None)
    with pytest.raises(NoEquilibriumFound) as info:
        support_enumeration_bimatrix(pennies_bimatrix())
    assert info.value.diagnostics["pairs_tried"] == 9  # (2^2 - 1)^2
    # every pair's follower side runs first, and fails
    assert info.value.diagnostics["counters"] == SearchCounters(9, 0, 9)


def test_failed_verification_is_an_internal_error(monkeypatch):
    import nashreduce.solvers as solvers

    junk = [R(1), R(0)]  # (1,0)/(1,0) is not an equilibrium of matching pennies
    monkeypatch.setattr(solvers, "_support_solution", lambda *args: junk)
    with pytest.raises(NoEquilibriumFound) as info:
        support_enumeration_bimatrix(pennies_bimatrix())
    assert info.value.diagnostics["violations"]
    assert info.value.diagnostics["counters"] == SearchCounters(1, 1, 1)


def test_search_counters_are_pinned():
    # matching pennies: the follower's side runs on all 9 pairs, and the
    # leader's on the 5 it lets through
    assert support_enumeration_bimatrix(pennies_bimatrix()).counters == SearchCounters(9, 5, 9)
    # an imitation game's subset test lets 19 of the 99 pairs through, and
    # every one of them has a follower side that solves; the leader-first
    # search ran 99 leader and 35 follower simplexes here
    g2, _, _ = bimatrixify(random_polymatrix(0, (2, 2)), R(3, 10))
    assert support_enumeration_bimatrix(g2).counters == SearchCounters(99, 19, 19)
    assert brute_force_normal_nash(pennies_normal_form()).counters is None


def role_swapped(game: BimatrixGame) -> BimatrixGame:
    dense = game.to_dense()
    return BimatrixGame.dense(dense.b, dense.a)


def search_order_cases():
    """Seeded games: imitation games (the follower's side sparser), their
    role-swapped versions (the leader's side sparser), dense j/100 games,
    0/1 and 0/1/2 games with a duplicated row, and all-equal games, one
    with an all-zero follower."""
    rng = random.Random(2602)
    for counts, seeds in (((2, 2), range(6)), ((2, 2, 2), range(1))):
        for seed in seeds:
            g2, _, _ = bimatrixify(random_polymatrix(seed, counts), R(3, 10))
            yield g2
            yield role_swapped(g2)
    for _ in range(24):
        n = rng.randint(2, 4)
        yield BimatrixGame.dense(random_oracle_matrix(rng, n), random_oracle_matrix(rng, n))
    for n in (2, 3):
        yield BimatrixGame.dense([[R(1)] * n] * n, [[R(1)] * n] * n)
        yield BimatrixGame.dense([[R(1)] * n] * n, [[R(0)] * n] * n)


def test_follower_first_finds_the_leader_first_profile():
    for game in search_order_cases():
        result = support_enumeration_bimatrix(game)
        profile, counters = leader_first_search(game)
        assert result.profile == profile
        assert result.counters.pairs_tried == counters.pairs_tried
        if game.encoding == "structured":
            # the subset test runs the follower's simplex on exactly the
            # pairs with opp inside own, and each of them solves
            screened_in = subset_pairs_up_to(game.n, counters.pairs_tried)
            assert result.counters.follower_simplexes == screened_in
            assert result.counters.leader_simplexes == screened_in
        else:
            assert result.counters.follower_simplexes == counters.pairs_tried
            assert result.counters.leader_simplexes <= counters.pairs_tried


def screen_cases():
    """Seeded imitation games: (2,2) ones, a (2,2,2) one, the normalized
    image of a (2,2) one and one with a 3-strategy block."""
    for seed in range(3):
        yield bimatrixify(random_polymatrix(seed, (2, 2)), R(3, 10))[0]
    yield bimatrixify(random_polymatrix(3, (2, 2, 2)), R(3, 10))[0]
    yield normalize_bimatrix(bimatrixify(random_polymatrix(4, (2, 2)), R(3, 10))[0])
    yield bimatrixify(random_polymatrix(5, (3, 2)), R(3, 10))[0]


def test_subset_test_decides_the_follower_side_of_every_pair():
    for game in screen_cases():
        dense = game.to_dense()
        n = game.n
        for own, opp in support_pairs(n):
            solves = _support_solution(dense.bt, opp, own, n) is not None
            assert solves == (set(opp) <= set(own)), (game, own, opp)
        # a role-swapped game is dense: the follower is paid by A^T, where
        # the subset rule fails on some pair (that no pair of such a game
        # is screened is checked with the search order above)
        swapped_bt = role_swapped(game).to_dense().bt
        assert any(
            (_support_solution(swapped_bt, opp, own, n) is not None) != (set(opp) <= set(own))
            for own, opp in support_pairs(n)
        )


@pytest.mark.parametrize("counts, seeds", [((2, 2), range(4)), ((2, 2, 2), range(2))])
def test_every_support_pair_equilibrium_recovers(counts, seeds):
    # stage 2's theorem on every equilibrium support enumeration can find,
    # not only the first: each pair whose two sides solve is an exact
    # equilibrium of the imitation game and recovers to an eps_m-WSNE
    mixed = 0
    for seed in seeds:
        gm = random_polymatrix(seed, counts)
        g2, mapping, params = bimatrixify(gm, R(3, 10))
        dense = g2.to_dense()
        n = g2.n
        found = 0
        for own, opp in support_pairs(n):
            if not set(opp) <= set(own):
                continue
            x = _support_solution(dense.bt, opp, own, n)
            y = _support_solution(dense.a, own, opp, n)
            assert x is not None
            if y is None:
                continue
            found += 1
            mixed += len(opp) > len(counts)  # some block plays a mixed strategy
            assert g2.verify_wsne(x, y, R(0)).ok, (seed, own, opp)
            recovered = recover_from_bimatrix(g2, (x, y), mapping)
            assert gm.verify_wsne(recovered, params.eps_m).ok, (seed, own, opp)
        assert found
    assert mixed


# ---------------------------------------------------------------------------
# exact linear algebra


def test_solve_square():
    sol = solve_square([[R(2), R(1)], [R(1), R(-1)]], [R(4), R(-1)])
    assert sol == [R(1), R(2)]
    assert solve_square([[R(1), R(2)], [R(2), R(4)]], [R(1), R(2)]) is None


def test_phase1_simplex():
    assert _phase1_feasible([[R(1), R(1)], [R(1), R(-1)]], [R(1), R(0)], 2) == [HALF, HALF]
    assert _phase1_feasible([[R(1), R(1)], [R(1), R(1)]], [R(1), R(2)], 2) is None


def test_singular_indifference_system_falls_back_to_a_vertex():
    # identical rows make the square system singular, but feasible points
    # exist; the fallback must return the simplex walk's first vertex
    mat = [[R(1), R(0)], [R(1), R(0)]]
    assert _support_solution(mat, (0, 1), (0, 1), 2) == [R(0), R(1)]


def test_phase1_simplex_on_int_rows_stays_exact():
    z = _phase1_feasible([[1, 1], [1, -1]], [1, 0], 2)
    assert z == [HALF, HALF]
    assert all(type(v) is Fraction for v in z)


def test_int_and_fraction_games_solve_to_the_same_exact_profile():
    a = [[1, 1, 0], [2, 0, 1], [0, 2, 0]]
    b = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    expected = ((R(1), R(0), R(0)), (HALF, HALF, R(0)))
    for entry in (int, R):
        game = BimatrixGame.dense(
            [[entry(v) for v in row] for row in a], [[entry(v) for v in row] for row in b]
        )
        result = support_enumeration_bimatrix(game)
        assert result.profile == expected
        assert all(type(v) is Fraction for strategy in result.profile for v in strategy)


def random_oracle_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    """An n x n payoff matrix of 0/1 entries (many ties), 0/1/2 entries or
    j/100 values, with one row copied over another about half the time."""
    top = rng.choice((1, 2, None))
    mat = [
        [R(rng.randint(0, top)) if top else R(rng.randint(-100, 100), 100) for _ in range(n)]
        for _ in range(n)
    ]
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        mat[i] = list(mat[j])
    return mat


def test_one_simplex_matches_the_two_path_oracle_on_every_support_pair():
    # every support pair, square or not, of seeded random matrices: the
    # one-path solve must give exactly what the square/phase-1 split gave
    rng = random.Random(2025)
    pairs = squares = 0
    for _ in range(36):
        n = rng.randint(2, 4)
        mat = random_oracle_matrix(rng, n)
        supports = [c for size in range(1, n + 1) for c in combinations(range(n), size)]
        for own in supports:
            for opp in supports:
                assert _support_solution(mat, own, opp, n) == support_solution(mat, own, opp, n), (mat, own, opp)
                pairs += 1
                squares += len(own) == len(opp)
    assert pairs > 2000 and squares > 300


# ---------------------------------------------------------------------------
# grid enumeration


def test_grid_matching_pennies_single_point():
    hits = list(grid_enumerate_wsne(pennies_bimatrix(), R(0), HALF))
    assert hits == [((HALF, HALF), (HALF, HALF))]


def test_grid_stream_matches_independent_filter():
    game = random_polymatrix(7, (2, 2))
    eps, den = R(1, 10), 4
    stream = {
        tuple(profile) for profile in grid_enumerate_wsne(game, eps, R(1, den))
    }
    points = [(R(c, den), R(den - c, den)) for c in range(den + 1)]
    filtered = {
        (p0, p1)
        for p0 in points
        for p1 in points
        if game.verify_wsne([p0, p1], eps).ok
    }
    assert stream == filtered


def test_grid_threshold_gadget_with_clamped_input():
    circuit = GadgetCircuit()
    value = circuit.add_input(label="value")
    circuit.build_threshold(value, HALF)
    game = circuit.combine()
    seventy = (R(3, 10), R(7, 10))
    hits = [
        profile
        for profile in grid_enumerate_wsne(game, R(1, 10), R(1, 100), clamped=[value.player])
        if profile[value.player] == seventy
    ]
    # the clamped value sits above the threshold by more than eps, so the
    # output player must put probability 1 on its high strategy
    assert hits
    assert all(profile[1 - value.player] == (R(0), R(1)) for profile in hits)


def test_grid_cap_is_checked_before_streaming():
    game = random_polymatrix(0, (2, 2, 2, 2))
    with pytest.raises(CapExceeded):
        grid_enumerate_wsne(game, R(1, 10), R(1, 100))


@pytest.mark.parametrize("step", ["2/3", 0, 2, "0/5"])
def test_grid_step_must_be_a_unit_fraction(step):
    with pytest.raises(ParameterError):
        grid_enumerate_wsne(pennies_bimatrix(), R(1, 10), step)


@pytest.mark.parametrize("denominator", [0, -1, R(1, 2)], ids=["0", "-1", "1/2"])
def test_grid_denominator_must_be_a_positive_integer(denominator):
    with pytest.raises(ParameterError, match="positive integer D"):
        brute_force_normal_nash(pennies_normal_form(), grid_denominator=denominator)


def test_grid_bimatrix_clamped_player():
    hits = list(grid_enumerate_wsne(pennies_bimatrix(), R(0), HALF, clamped=[0]))
    assert len(hits) == 5
    # with the row player unchecked, any y survives against the mixed x,
    # and pure x forces the matching best response
    assert (((HALF, HALF), (R(1), R(0)))) in hits
    assert (((R(0), R(1)), (R(1), R(0)))) in hits
    assert (((R(1), R(0)), (R(0), R(1)))) in hits


def test_grid_normal_form_game():
    hits = list(grid_enumerate_wsne(pennies_normal_form(), R(0), HALF))
    assert hits == [[(HALF, HALF), (HALF, HALF)]]
    with pytest.raises(ParameterError):
        grid_enumerate_wsne(pennies_normal_form(), R(0), HALF, clamped=[0])


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_finds_strict_pure_equilibrium():
    # strategy 0 strictly dominates for every player
    payoffs = [
        [[R(1)] * 4, [R(0)] * 4],
        [[R(1)] * 4, [R(0)] * 4],
        [[R(1)] * 4, [R(0)] * 4],
    ]
    game = NormalFormGame((2, 2, 2), payoffs)
    result = brute_force_normal_nash(game)
    assert result.certificate == EXACT_NASH
    assert result.method == "pure-search"
    assert result.profile == [(R(1), R(0))] * 3
    assert result.verify(game).ok


def test_brute_force_grid_finds_exact_mixed_point():
    result = brute_force_normal_nash(pennies_normal_form(), grid_denominator=2)
    assert result.certificate == EXACT_NASH
    assert result.method == "grid-search"
    assert result.profile == [(HALF, HALF), (HALF, HALF)]


def test_brute_force_reports_honest_realized_eps():
    # denominator 3 cannot express the 1/2-1/2 equilibrium; the result must
    # carry the tolerance the verifier actually certifies
    game = pennies_normal_form()
    result = brute_force_normal_nash(game, grid_denominator=3)
    assert result.certificate == EPS_WSNE
    assert result.eps == R(1, 3)
    assert result.profile == [(R(1, 3), R(2, 3)), (R(1, 3), R(2, 3))]
    assert realized_eps(game, result.profile) == result.eps
    assert result.verify(game).ok
    assert not game.verify_wsne(result.profile, result.eps - R(1, 100)).ok


def test_brute_force_survives_oversized_grid():
    game = pennies_normal_form()
    result = brute_force_normal_nash(game, grid_denominator=100, cap=10)
    assert result.certificate == EPS_WSNE
    assert result.eps == R(1)  # best pure profile: the deviation gap is 1
    assert result.verify(game).ok


# ---------------------------------------------------------------------------
# polymatrix -> bimatrix witness


def test_witness_from_exact_profile_verifies():
    gm = pennies_polymatrix()
    g2, mapping, params = bimatrixify(gm, R(3, 10))
    exact = [(HALF, HALF), (HALF, HALF)]
    assert gm.verify_wsne(exact, R(0)).ok
    x, y = lift_to_bimatrix(g2, exact, mapping)
    assert sum(x) == 1 and sum(y) == 1
    assert realized_eps(g2, (x, y)) <= params.eps_2
    assert recover_from_bimatrix(g2, (x, y), mapping) == exact


def test_witness_on_edgeless_game_copies_blocks_verbatim():
    gm = PolymatrixGame((2, 2), {})
    g2, mapping, _ = bimatrixify(gm, R(3, 10))
    profile = [(R(1, 4), R(3, 4)), (R(1), R(0))]
    x, y = lift_to_bimatrix(g2, profile, mapping)
    # no edges means no payoff spread, so each block keeps weight 1/2
    assert y == (R(1, 8), R(3, 8), HALF, R(0))
    assert x == (R(1, 3), R(1, 3), R(1, 3), R(0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_witness_recovery_is_exact(a, b):
    gm = pennies_polymatrix()
    g2, mapping, _ = bimatrixify(gm, R(3, 10))
    profile = [(R(a, 8), R(8 - a, 8)), (R(b, 8), R(8 - b, 8))]
    witness = lift_to_bimatrix(g2, profile, mapping)
    assert recover_from_bimatrix(g2, witness, mapping) == profile


@pytest.mark.parametrize("seed", [0, 1])
def test_witness_from_solved_imitation_game_verifies(seed):
    gm = random_polymatrix(seed, (2, 2, 2))
    g2, mapping, params = bimatrixify(gm, R(3, 10))
    x, y = support_enumeration_bimatrix(g2).profile
    recovered = recover_from_bimatrix(g2, (x, y), mapping)
    witness = lift_to_bimatrix(g2, recovered, mapping)
    assert realized_eps(g2, witness) <= params.eps_2


def test_witness_validation():
    gm = pennies_polymatrix()
    g2, mapping, _ = bimatrixify(gm, R(3, 10))
    with pytest.raises(DimensionMismatch):
        lift_to_bimatrix(g2, [(HALF, HALF)], mapping)
    with pytest.raises(ParameterError):
        lift_to_bimatrix(g2.to_dense(), [(HALF, HALF)] * 2, mapping)
    other, other_map, _ = bimatrixify(random_polymatrix(0, (2, 2, 2)), R(3, 10))
    with pytest.raises(DimensionMismatch):
        lift_to_bimatrix(other, [(HALF, HALF)] * 2, mapping)


def test_witness_rejects_non_bimatrix_mapping():
    from nashreduce.reductions import linearize

    gm, mapping, _ = linearize(pennies_normal_form(), R(1, 2))
    g2, _, _ = bimatrixify(pennies_polymatrix(), R(3, 10))
    with pytest.raises(ParameterError):
        lift_to_bimatrix(g2, [(HALF, HALF)] * 2, mapping)


# ---------------------------------------------------------------------------
# results


def test_realized_eps_of_exact_profile_is_zero():
    assert realized_eps(pennies_bimatrix(), ((HALF, HALF), (HALF, HALF))) == 0
    with pytest.raises(ParameterError):
        realized_eps(pennies_normal_form(), [(HALF, HALF)] * 2, clamped=[0])


def test_solver_result_is_frozen():
    result = SolverResult([(R(1), R(0))], EXACT_NASH, R(0), "pure-search")
    with pytest.raises(AttributeError):
        result.eps = R(1)
