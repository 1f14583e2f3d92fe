"""Reduction pipeline tests.

Stage one is checked structurally (player inventory, roles, edge content
frozen for a small game) and semantically: lifting a profile through the
gadget circuit forces every mediator to the closed-form chain value, keeps
the originals' payoff vectors within the advertised distance of the
normal-form ones, and round-trips through recovery.  Stage two is checked
against hand-computed block matrices and the exact renormalization rule.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from nashreduce import (
    DegenerateGame,
    DimensionMismatch,
    ParameterError,
    R,
    Role,
    SizeBudgetExceeded,
    ZeroBlockMass,
)
from nashreduce.model import BimatrixGame, NormalFormGame, PolymatrixGame, random_normal_form
from nashreduce.multipliers import BINARY_LOG, UNARY_POLY
from nashreduce.reductions import (
    GameMapping,
    ReductionParams,
    bimatrixify,
    compute_eps_m,
    estimate_linearized_players,
    lift_to_polymatrix,
    linearize,
    normalize_bimatrix,
    recover_from_bimatrix,
    recover_from_polymatrix,
    recover_full,
    reduce_full,
)

from nashreduce.solvers import lift_to_bimatrix
from lift_oracles import robust_lift_value


def crossing_game():
    """2 players x 2 strategies; payoff columns indexed by the opponent's move."""
    return NormalFormGame(
        (2, 2),
        [
            [[R(1), R(0)], [R(0), R(1)]],  # player 0 wants to match
            [[R(0), R(1)], [R(1), R(0)]],  # player 1 wants to differ
        ],
    )


NASH_POINT = (1, 0, 1)
# each player's opponents' joint pure profile at the Nash point, as a column index
NASH_COLUMNS = (1, 3, 2)


def pure_nash_game():
    """3 players x 2 strategies with the strict pure Nash ``NASH_POINT``:
    deviating at the Nash column costs 1/2; all other columns pay 1/2 flat."""
    payoffs = []
    for i in range(3):
        rows = []
        for j in range(2):
            rows.append([
                (R(3, 4) if j == NASH_POINT[i] else R(1, 4))
                if q == NASH_COLUMNS[i]
                else R(1, 2)
                for q in range(4)
            ])
        payoffs.append(rows)
    return NormalFormGame((2, 2, 2), payoffs)


def mediators_of(gm):
    return [i for i, info in enumerate(gm.players) if info.role is Role.MEDIATOR]


# ---------------------------------------------------------------------------
# parameters and mappings


def test_compute_eps_m_frozen():
    game = random_normal_form(7, (2, 2, 2))
    assert compute_eps_m(game, R(9, 10), "unary") == R(1, 760)
    assert compute_eps_m(game, R(9, 10), "log") == R(1, 100000)
    # a tiny eps_k drops the log construction below its cap
    assert compute_eps_m(game, R(1, 1000), "log") == R(1, 108000) ** 2
    wide = random_normal_form(8, (2, 3))  # nmax = 3 for player 0
    assert compute_eps_m(wide, R(1, 2), "unary") == R(1, 2) / (3 * 3 * 19 * 2)


def test_reduction_params_ledger():
    # only the inputs are stored; m, N, eps_2 and alpha are derived from them
    params = ReductionParams(
        eps_m=R(1, 100000),
        eps_k=R(9, 10),
        construction="log",
        block_sizes=(2, 2, 2, 2, 2),
        divisor=R(200000001),
    )
    assert (params.m, params.N) == (5, 10)
    assert params.eps_2 == R(1, 1000000)
    assert params.alpha == 8 * 5**2 / params.eps_2 == R(200000000)
    assert params.eps_2_normalized == R(1, 1000000) / R(200000001)
    assert all(type(v) is Fraction for v in (params.eps_2, params.alpha, params.eps_2_normalized))
    assert params.ledger_lines() == [
        "construction = log",
        "eps_k = 9/10",
        "eps_m = 1/100000",
        "m = 5",
        "N = 10",
        "eps_2 = 1/1000000",
        "alpha = 200000000",
        "divisor = 200000001",
        "eps_2_normalized = 1/200000001000000",
    ]
    with pytest.raises(TypeError):  # the derived values cannot be stated
        ReductionParams(eps_m=R(1, 4), eps_2=R(1, 8))
    bare = ReductionParams(eps_m=R(1, 4))
    assert bare.ledger_lines() == ["eps_m = 1/4"]
    assert bare.m is bare.N is bare.eps_2 is bare.alpha is bare.eps_2_normalized is None


def test_mapping_validation():
    ok = GameMapping("linearize", (2, 2))
    ok.validate()
    with pytest.raises(ParameterError):
        GameMapping("sideways", (2,))
    with pytest.raises(ParameterError):  # bimatrixify needs block data
        GameMapping("bimatrixify", (2,))
    with pytest.raises(DimensionMismatch):  # the sources are the blocks
        GameMapping("bimatrixify", (2, 2), (2, 3), R(10))


MAPPING_ERRORS = {
    # name: (GameMapping arguments, error class, message pattern)
    "unknown_stage": (("sideways", (2,)), ParameterError, "unknown reduction stage"),
    "nonpositive_count": (("linearize", (2, 0)), ParameterError, "source strategy counts must be positive"),
    "missing_block_sizes": (("bimatrixify", (2,), None, R(10)), ParameterError,
                            "bimatrixify mappings need block_sizes and alpha"),
    "missing_alpha": (("full", (2,), (2,)), ParameterError,
                      "full mappings need block_sizes and alpha"),
    "no_blocks": (("bimatrixify", (), (), R(10)), ParameterError, "block sizes must be one or more positive counts"),
    "nonpositive_block": (("full", (2,), (2, 0), R(10)), ParameterError, "block sizes must be one or more positive counts"),
    "linearize_without_blocks": (("linearize", (2, 2), ()), ParameterError, "block sizes must be one or more positive counts"),
    "not_the_blocks": (("bimatrixify", (2, 2), (2, 2, 2), R(10)), DimensionMismatch,
                       r"source counts \(2, 2\) are not the block sizes \(2, 2, 2\)"),
    "not_the_leading_blocks": (("full", (2, 3), (2, 2, 3), R(10)), DimensionMismatch,
                               r"source counts \(2, 3\) are not the leading block sizes \(2, 2\)\Z"),
    "more_sources_than_blocks": (("full", (2, 2, 2), (2, 2), R(10)), DimensionMismatch,
                                 "are not the leading block sizes"),
}


@pytest.mark.parametrize("name", sorted(MAPPING_ERRORS))
def test_mapping_validation_names_each_error(name):
    args, cls, pattern = MAPPING_ERRORS[name]
    with pytest.raises(cls, match=pattern):
        GameMapping(*args)


@pytest.mark.parametrize("bad", [2.0, "2", True], ids=["float", "string", "bool"])
@pytest.mark.parametrize("field", ["source_counts", "block_sizes"])
def test_mapping_counts_must_be_ints(field, bad):
    # True would lay h out as ((0,), (0, 1)); 2.0 and "2" would fail in range() or min()
    message = rf"^strategy counts must be ints, got \({bad!r}, 2\)$"
    counts = {"source_counts": (2, 2), "block_sizes": (2, 2), field: (bad, 2)}
    with pytest.raises(ParameterError, match=message):
        GameMapping("bimatrixify", counts["source_counts"], counts["block_sizes"], R(10))
    with pytest.raises(ParameterError, match=message):
        GameMapping("linearize", *(((bad, 2),) if field == "source_counts" else ((2, 2), (bad, 2))))


def test_mapping_layout_follows_the_stage():
    # linearize keeps each source player in place; the imitation game makes
    # it a consecutive block of the follower
    lin = GameMapping("linearize", (2, 3, 2))
    assert lin.g == (0, 1, 2) and lin.h == ((0, 1), (0, 1, 2), (0, 1))
    bi = GameMapping("bimatrixify", (2, 3, 2), (2, 3, 2), R(10))
    assert bi.g == (1, 1, 1) and bi.h == ((0, 1), (2, 3, 4), (5, 6))
    full = GameMapping("full", (2, 3), (2, 3, 2), R(10))
    assert full.g == (1, 1) and full.h == ((0, 1), (2, 3, 4))
    with pytest.raises(TypeError):
        GameMapping("linearize", (2, 2), g=(1, 0))


# ---------------------------------------------------------------------------
# linearize, k = 2 (mediators are plain copy wires)


def test_linearize_two_player_inventory():
    game = crossing_game()
    gm, mapping, params = linearize(game, R(1, 2), "unary")
    assert params.eps_k == R(1, 2)
    assert params.eps_m == R(1, 2) / 228
    assert gm.m == estimate_linearized_players(game, params.eps_m, "unary") == 10
    assert [p.role for p in gm.players[:2]] == [Role.ORIGINAL, Role.ORIGINAL]
    meds = mediators_of(gm)
    assert len(meds) == 4
    assert [gm.players[p].scope for p in meds] == [
        "mediator[0,0]", "mediator[0,1]", "mediator[1,0]", "mediator[1,1]",
    ]
    assert mapping.stage == "linearize"
    assert mapping.g == (0, 1)
    assert mapping.h == ((0, 1), (0, 1))
    assert mapping.circuit is not None


def test_linearize_two_player_payoff_edges():
    gm, mapping, _ = linearize(crossing_game(), R(1, 2), "unary")
    m00, m01, m10, m11 = mediators_of(gm)
    zero, one = R(0), R(1)
    # column q of each player's payoff matrix lands on mediator q, strategy 1
    assert gm.edges[(0, m00)] == ((zero, one), (zero, zero))
    assert gm.edges[(0, m01)] == ((zero, zero), (zero, one))
    assert gm.edges[(1, m10)] == ((zero, zero), (zero, one))
    assert gm.edges[(1, m11)] == ((zero, one), (zero, zero))


def test_linearize_drops_all_zero_payoff_columns():
    payoffs = [
        [[R(0), R(1)], [R(0), R(1, 2)]],  # column 0 is all zeros
        [[R(1), R(1)], [R(1), R(1)]],
    ]
    gm, _, _ = linearize(NormalFormGame((2, 2), payoffs), R(1, 2), "unary")
    m00, m01, m10, m11 = mediators_of(gm)
    assert (0, m00) not in gm.edges
    assert gm.edges[(0, m01)] == ((R(0), R(1)), (R(0), R(1, 2)))


def test_linearize_two_player_lift_is_exact():
    game = crossing_game()
    gm, mapping, params = linearize(game, R(1, 2), "unary")
    profile = [(R(2, 3), R(1, 3)), (R(1, 4), R(3, 4))]
    lifted = lift_to_polymatrix(profile, mapping)
    assert lifted[0] == profile[0] and lifted[1] == profile[1]
    m00, m01, m10, m11 = mediators_of(gm)
    # with one factor the chain is an identity wire, so mediators are exact
    assert lifted[m00][1] == R(1, 4)
    assert lifted[m01][1] == R(3, 4)
    assert lifted[m10][1] == R(2, 3)
    assert lifted[m11][1] == R(1, 3)
    # exact mediators make polymatrix payoffs equal normal-form payoffs
    assert gm.expected_payoffs(lifted)[:2] == game.expected_payoffs(profile)
    assert gm.verify_wsne(lifted, R(0), clamped={0, 1}).ok
    assert recover_from_polymatrix(gm, lifted, mapping) == profile


# ---------------------------------------------------------------------------
# linearize, k = 3 (one robust multiplier per mediator)


def test_linearize_three_player_log_inventory_and_pure_lift():
    game = pure_nash_game()
    gm, mapping, params = linearize(game, R(9, 10), "log")
    assert params.eps_m == R(1, 100000)
    assert gm.m == estimate_linearized_players(game, params.eps_m, "log") == 2435
    assert len(mediators_of(gm)) == 12
    pure = [(R(0), R(1)), (R(1), R(0)), (R(0), R(1))]
    lifted = lift_to_polymatrix(pure, mapping)
    # a played mediator carries the all-ones digit code, never exactly 1
    for pos, med in enumerate(mediators_of(gm)):
        i, q = divmod(pos, 4)
        expected = R(511, 512) if q == NASH_COLUMNS[i] else R(0)
        assert lifted[med][1] == expected, (i, q)
    # originals see their true payoff column scaled by 511/512: the strict
    # best response is preserved, so the lift is an exact equilibrium
    result = gm.verify_wsne(lifted, R(0))
    assert result.ok, result.violations[:3]
    assert recover_from_polymatrix(gm, lifted, mapping) == pure


@pytest.mark.parametrize(
    "shape, construction",
    [((2, 2), "log"), ((2, 2, 2), "log"), ((3, 2, 2), "log"), ((3, 3, 3), "log"), ((2, 2, 2, 2), "log"),
     ((2, 2), "unary")],
)
def test_the_estimate_is_the_built_player_count(shape, construction):
    # a log chain's first link shares the digits of its first input with
    # every other chain's; later links read products and share nothing
    game = random_normal_form(7, shape)
    gm, _, params = linearize(game, R(9, 10), construction)
    assert gm.m == estimate_linearized_players(game, params.eps_m, construction)


def test_linearize_three_player_mixed_lift_payoff_distance():
    game = pure_nash_game()
    gm, mapping, params = linearize(game, R(9, 10), "log")
    profile = [(R(1, 3), R(2, 3)), (R(3, 5), R(2, 5)), (R(1), R(0))]
    lifted = lift_to_polymatrix(profile, mapping)
    assert gm.verify_wsne(lifted, R(0), clamped={0, 1, 2}).ok
    # every mediator carries the closed-form chain value over its factors
    eps_m = params.eps_m
    for pos, med in enumerate(mediators_of(gm)):
        i, q = divmod(pos, 4)
        others = [p for p in range(3) if p != i]
        pures = ((q >> 1) & 1, q & 1)
        factors = [profile[p][s] for p, s in zip(others, pures)]
        assert lifted[med][1] == robust_lift_value(factors[0], factors[1], eps_m)
    # original payoff vectors stay within nmax * d * k * sqrt(eps_m)
    poly_u = gm.expected_payoffs(lifted)
    normal_u = game.expected_payoffs(profile)
    for i in range(3):
        for j in range(2):
            diff = poly_u[i][j] - normal_u[i][j]
            assert BINARY_LOG.within_error(diff / 4, 3, eps_m)
    assert recover_from_polymatrix(gm, lifted, mapping) == profile


def test_linearize_rejects_bad_inputs():
    with pytest.raises(DegenerateGame):
        linearize(NormalFormGame((2,), [[[R(1)], [R(0)]]]), R(1, 2))
    lopsided = NormalFormGame(
        (2, 1), [[[R(1)], [R(0)]], [[R(1), R(0)]]]
    )
    with pytest.raises(DegenerateGame):
        linearize(lopsided, R(1, 2))
    game = crossing_game()
    with pytest.raises(ParameterError):
        linearize(game, R(1))
    with pytest.raises(ParameterError):
        linearize(game, R(0))
    with pytest.raises(ParameterError):
        linearize(game, R(1, 2), "ternary")


@pytest.mark.parametrize("eps_k", [0.9, 0.5, complex(1, 0)])
def test_linearize_rejects_inexact_eps(eps_k):
    with pytest.raises(ParameterError, match="eps_k .*exact rational"):
        linearize(crossing_game(), eps_k, "log")


def test_linearize_player_budget():
    game = pure_nash_game()
    with pytest.raises(SizeBudgetExceeded):
        linearize(game, R(9, 10), "log", player_budget=100)


def test_linearize_player_budget_env(monkeypatch):
    monkeypatch.setenv("NASHREDUCE_PLAYER_BUDGET", "100")
    with pytest.raises(SizeBudgetExceeded):
        linearize(pure_nash_game(), R(9, 10), "log")


def test_lift_requires_in_process_mapping():
    mapping = GameMapping("linearize", (2, 2))
    with pytest.raises(ParameterError):
        lift_to_polymatrix([(R(1), R(0)), (R(1), R(0))], mapping)


# ---------------------------------------------------------------------------
# bimatrixify


def small_polymatrix():
    return PolymatrixGame(
        (2, 2),
        {
            (0, 1): [[R(1), R(0)], [R(0), R(1)]],
            (1, 0): [[R(0), R(1)], [R(1), R(0)]],
        },
    )


def test_bimatrixify_parameters_and_blocks():
    gm = small_polymatrix()
    g2, mapping, params = bimatrixify(gm, R(3, 10))
    assert params.N == 4 and params.m == 2
    assert params.eps_2 == R(3, 40)
    assert params.alpha == R(1280, 3)
    assert g2.block_sizes == (2, 2)
    assert mapping.g == (1, 1)
    assert mapping.h == ((0, 1), (2, 3))
    assert mapping.divisor == params.alpha + 1  # payoffs never exceed 1
    # the imitation game shares the polymatrix game's checked edges
    assert g2.polymatrix is gm and g2.edges is gm.edges
    # leader's matrix: -alpha on diagonal blocks, edge entries elsewhere
    assert g2.entry(0, 0, 0) == -params.alpha
    assert g2.entry(0, 0, 1) == -params.alpha
    assert g2.entry(0, 0, 2) == R(1)
    assert g2.entry(0, 1, 3) == R(1)
    assert g2.entry(0, 2, 1) == R(1)
    assert g2.entry(0, 3, 0) == R(1)
    assert g2.entry(0, 3, 3) == -params.alpha
    # follower's matrix is the identity
    for r in range(4):
        for c in range(4):
            assert g2.entry(1, r, c) == (R(1) if r == c else R(0))


def test_bimatrixify_alpha_example():
    gm = PolymatrixGame((2, 2, 2), {(0, 1): [[R(1), R(0)], [R(0), R(1)]]})
    _, _, params = bimatrixify(gm, R(3, 10))
    assert params.eps_2 == R(1, 20)
    assert params.alpha == R(1440)


def test_bimatrixify_rejects_bad_eps():
    with pytest.raises(ParameterError):
        bimatrixify(small_polymatrix(), R(1))
    with pytest.raises(ParameterError):
        bimatrixify(small_polymatrix(), R(0))


@pytest.mark.parametrize("eps_m", [0.5, 0.3, complex(1, 0)])
def test_bimatrixify_rejects_inexact_eps(eps_m):
    with pytest.raises(ParameterError, match="eps_m .*exact rational"):
        bimatrixify(small_polymatrix(), eps_m)


def test_normalize_bimatrix_divisor_rules():
    g2, mapping, params = bimatrixify(small_polymatrix(), R(3, 10))
    norm = normalize_bimatrix(g2)
    assert norm.normalized and norm.divisor == params.alpha + 1
    hot = PolymatrixGame((2, 2), {(0, 1): [[R(2), R(0)], [R(0), R(1)]]})
    g2hot, maphot, _ = bimatrixify(hot, R(3, 10))
    assert maphot.divisor == g2hot.alpha + 2
    assert normalize_bimatrix(g2hot).divisor == g2hot.alpha + 2
    assert normalize_bimatrix(g2hot).edges is hot.edges
    with pytest.raises(ParameterError):
        normalize_bimatrix(norm)
    dense = BimatrixGame.dense([[R(1)]], [[R(0)]])
    with pytest.raises(ParameterError):
        normalize_bimatrix(dense)


def test_recover_from_bimatrix_renormalizes():
    g2, mapping, _ = bimatrixify(small_polymatrix(), R(3, 10))
    x = (R(1, 4),) * 4
    y = (R(3, 10), R(2, 10), R(1, 4), R(1, 4))
    assert recover_from_bimatrix(g2, (x, y), mapping) == [
        (R(3, 5), R(2, 5)),
        (R(1, 2), R(1, 2)),
    ]
    starved = (R(1, 2), R(1, 2), R(0), R(0))
    with pytest.raises(ZeroBlockMass) as err:
        recover_from_bimatrix(g2, (x, starved), mapping)
    assert err.value.block == 1
    with pytest.raises(ParameterError):
        recover_from_bimatrix(g2, (x, y), GameMapping("linearize", (2,)))


def test_bimatrix_mapping_must_agree_with_its_game():
    # a (2, 3) imitation game with the mapping of a (3, 2) one: the same N
    g23, _, _ = bimatrixify(PolymatrixGame((2, 3), {(0, 1): [[R(1), R(0), R(1, 2)], [R(0), R(1), R(1)]]}), R(3, 10))
    g32, map32, _ = bimatrixify(PolymatrixGame((3, 2), {(1, 0): [[R(1), R(0), R(1, 2)], [R(0), R(1), R(1)]]}), R(3, 10))
    assert g23.n == g32.n and g23.alpha == g32.alpha
    x = y = (R(1, 5),) * 5
    with pytest.raises(DimensionMismatch, match="blocks"):
        recover_from_bimatrix(g23, (x, y), map32)
    with pytest.raises(DimensionMismatch, match="blocks"):
        lift_to_bimatrix(g23, [(R(1), R(0)), (R(0), R(0), R(1))], map32)
    # the right blocks but another game's alpha
    _, map23, _ = bimatrixify(g23.polymatrix, R(1, 10))
    with pytest.raises(DimensionMismatch, match="alpha"):
        recover_from_bimatrix(g23, (x, y), map23)
    with pytest.raises(DimensionMismatch, match="alpha"):
        lift_to_bimatrix(g23, [(R(1), R(0)), (R(0), R(0), R(1))], map23)
    # a dense game has no blocks to agree with
    with pytest.raises(ParameterError, match="structured"):
        recover_from_bimatrix(g32.to_dense(), (x, y), map32)
    assert recover_from_bimatrix(g32, (x, y), map32) == [(R(1, 3),) * 3, (R(1, 2),) * 2]


def test_bimatrix_mapping_divisor_must_agree_with_its_game():
    g2, mapping, _ = bimatrixify(small_polymatrix(), R(3, 10))
    x = y = (R(1, 4),) * 4
    poly = [(R(1), R(0)), (R(0), R(1))]
    assert mapping.divisor == g2.divisor
    other = replace(mapping, divisor=g2.divisor + 1)
    message = "mapping divisor 1286/3 differs from the game's 1283/3"
    with pytest.raises(DimensionMismatch) as err:
        recover_from_bimatrix(g2, (x, y), other)
    assert str(err.value) == message
    with pytest.raises(DimensionMismatch, match="divisor"):
        lift_to_bimatrix(g2, poly, other)
    # the normalized game keeps the divisor; a mapping that records none is
    # not checked against it
    for game, mapped in ((normalize_bimatrix(g2), mapping), (g2, replace(mapping, divisor=None))):
        assert recover_from_bimatrix(game, (x, y), mapped) == [(R(1, 2),) * 2] * 2
        lift_to_bimatrix(game, poly, mapped)


@pytest.mark.parametrize("vectors", [1, 3])
def test_recover_needs_exactly_two_strategies(vectors):
    g2, mapping, _ = reduce_full(crossing_game(), R(1, 2), "unary")
    y = (R(1, g2.n),) * g2.n
    message = f"profile has {vectors} strategies for 2 players"
    with pytest.raises(DimensionMismatch) as err:
        recover_from_bimatrix(g2, (y,) * vectors, mapping)
    assert str(err.value) == message
    with pytest.raises(DimensionMismatch) as err:
        recover_full(g2, (y,) * vectors, mapping)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# full pipeline


def test_reduce_full_two_player_round_trip():
    game = crossing_game()
    g2, mapping, params = reduce_full(game, R(1, 2), "unary")
    assert mapping.stage == "full"
    assert params.eps_m == R(1, 456)
    assert params.m == 10 and params.N == 20
    assert params.eps_2 == params.eps_m / 20
    assert params.alpha == 8 * 100 / params.eps_2
    assert mapping.h == ((0, 1), (2, 3))
    lines = params.ledger_lines()
    assert "eps_m = 1/456" in lines and "construction = unary" in lines
    # push a profile forward by hand: lift to polymatrix, spread the
    # follower uniformly across blocks, then recover
    profile = [(R(2, 3), R(1, 3)), (R(1, 4), R(3, 4))]
    lifted = lift_to_polymatrix(profile, mapping)
    y = [v / params.m for strat in lifted for v in strat]
    recovered = recover_full(g2, (tuple(y), tuple(y)), mapping)
    assert recovered == profile
    with pytest.raises(ParameterError):
        recover_full(g2, (tuple(y), tuple(y)),
                     GameMapping("linearize", (2, 2)))


def test_reduce_full_respects_budget():
    with pytest.raises(SizeBudgetExceeded):
        reduce_full(pure_nash_game(), R(9, 10), "log", player_budget=1000)
