"""Command-line interface tests.

Every command is driven in-process through click's test runner.  Exit
codes are part of the contract (0 success, 1 verification/no-result,
2 parse, 3 parameter, 4 size budget, 5 zero block mass), as is the
absence of floating-point output without --approx, and byte-identical
reduction outputs across runs.
"""

import json
import re
from dataclasses import replace

import pytest
from click.testing import CliRunner

from nashreduce import R
from nashreduce.cli import main
from nashreduce.fileio import (
    read_game,
    read_mapping,
    read_profile,
    write_game,
    write_mapping,
    write_profile,
)
from nashreduce.gadgets import GADGET_KINDS
from nashreduce.model import BimatrixGame, NormalFormGame, PolymatrixGame
from nashreduce.multipliers import predicted_player_count
from nashreduce.reductions import bimatrixify, linearize, lift_to_polymatrix

FLOAT_RE = re.compile(r"\d\.\d")


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def pennies_file(tmp_path):
    game = BimatrixGame.dense(
        [[R(1), R(0)], [R(0), R(1)]], [[R(0), R(1)], [R(1), R(0)]]
    )
    path = tmp_path / "pennies.json"
    write_game(path, game)
    return str(path)


@pytest.fixture
def dominant_file(tmp_path):
    # three players, two strategies, strategy 0 strictly dominant for all
    payoffs = [[[R(1)] * 4, [R(0)] * 4] for _ in range(3)]
    path = tmp_path / "dominant.json"
    write_game(path, NormalFormGame((2, 2, 2), payoffs))
    return str(path)


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


# ---------------------------------------------------------------------------
# solve


def test_solve_support_enum_pennies(runner, pennies_file):
    result = invoke(runner, "solve", pennies_file, "--method", "support-enum")
    assert result.exit_code == 0
    assert "((1/2,1/2),(1/2,1/2))" in result.output
    assert "certificate = exact-nash, eps = 0" in result.output
    assert not FLOAT_RE.search(result.output)


def test_solve_writes_profile(runner, pennies_file, tmp_path):
    out = tmp_path / "sol.json"
    result = invoke(runner, "solve", pennies_file, "--out", out)
    assert result.exit_code == 0
    assert read_profile(out) == [(R(1, 2), R(1, 2)), (R(1, 2), R(1, 2))]


def test_solve_approx_shows_floats(runner, pennies_file):
    result = invoke(runner, "solve", pennies_file, "--approx")
    assert result.exit_code == 0
    assert "(0.5)" in result.output


def test_solve_grid(runner, pennies_file):
    result = invoke(
        runner, "solve", pennies_file, "--method", "grid",
        "--eps", "1/2", "--step", "1/2", "--limit", "3",
    )
    assert result.exit_code == 0
    assert "((1/2,1/2),(1/2,1/2))" in result.output
    assert "1 profile(s) pass at eps = 1/2" in result.output


def test_solve_grid_none_found(runner, pennies_file):
    result = invoke(
        runner, "solve", pennies_file, "--method", "grid", "--eps", "0", "--step", "1/3"
    )
    assert result.exit_code == 1
    assert "no profile" in result.output


def test_solve_grid_needs_eps_and_step(runner, pennies_file):
    result = invoke(runner, "solve", pennies_file, "--method", "grid")
    assert result.exit_code == 3


def test_solve_brute_force(runner, dominant_file):
    result = invoke(runner, "solve", dominant_file, "--method", "brute-force")
    assert result.exit_code == 0
    assert "((1,0),(1,0),(1,0))" in result.output
    assert "method = pure-search" in result.output


@pytest.mark.parametrize("step", ["2/3", "0", "-1/2", "2"])
def test_solve_brute_force_bad_step(runner, dominant_file, step):
    result = invoke(runner, "solve", dominant_file, "--method", "brute-force", "--step", step)
    assert result.exit_code == 3
    assert "--step must be 1/D" in result.output


def test_solve_wrong_game_class(runner, dominant_file):
    result = invoke(runner, "solve", dominant_file, "--method", "support-enum")
    assert result.exit_code == 3


def test_malformed_rational_flag_is_a_usage_error(runner, pennies_file):
    # flags read the file grammar: a signed denominator, an underscore, a
    # plus sign, a space and a non-ASCII digit are malformed too
    for text in ("abc", "1/0", "-1/-2", "1_0/3", "+1/2", " 1/2", "\u0663/4"):
        result = invoke(runner, "solve", pennies_file, "--method", "grid", "--eps", text)
        assert result.exit_code == 2, text
        assert f"{text!r} is not a rational like '3/4'" in result.output


def test_malformed_rational_in_file(runner, pennies_file, tmp_path):
    data = json.loads(open(pennies_file).read())
    data["a"][0][0] = "1/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = invoke(runner, "solve", bad)
    assert result.exit_code == 2


def structured_file(tmp_path, edit) -> str:
    """A reduced (2, 2) polymatrix game's file, changed by ``edit``."""
    game = PolymatrixGame((2, 2), {(0, 1): [[R(1), R(0)], [R(0), R(1)]]})
    g2, _, _ = bimatrixify(game, R(3, 10))
    path = tmp_path / "structured.json"
    write_game(path, g2)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return str(path)


def test_noncanonical_rational_in_file(runner, tmp_path):
    def pad_first_entry(data):
        row = data["edges"][0][2][0]
        row[0] = " " + row[0]

    result = invoke(runner, "solve", structured_file(tmp_path, pad_first_entry))
    assert result.exit_code == 2
    assert "invalid rational" in result.output


def test_file_body_breaking_a_builder_rule_is_unreadable_input(runner, tmp_path):
    result = invoke(runner, "solve", structured_file(tmp_path, lambda d: d.update(alpha="-5")))
    assert result.exit_code == 2
    assert result.output.strip() == "error: alpha must be positive"


def set_first_edge_entry(text):
    def edit(data):
        data["edges"][0][2][0][0] = text

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(block_sizes=[1, 3]),
         "every polymatrix player needs at least two pure strategies"),
        (set_first_edge_entry("5/2"), "edge (0, 1) entry 5/2 outside [-1, 2]"),
        (set_first_edge_entry("-3/2"), "edge (0, 1) entry -3/2 outside [-1, 2]"),
        (lambda d: d.update(divisor="1283/3"),
         "header field 'divisor' is '1283/3' but the body implies None"),
        (lambda d: d.update(normalized=True),
         "header field 'payoff_range' is ['-1280/3', '1'] but the body implies ['0', '1']"),
    ],
    ids=["size_one_block", "entry_above_2", "entry_below_minus_1", "stray_divisor", "unmarked_normalized"],
)
def test_verify_rejects_structured_file_breaking_polymatrix_rules(runner, tmp_path, edit, message):
    prof = tmp_path / "prof.json"
    write_profile(prof, [(R(1, 4),) * 4] * 2)
    result = invoke(runner, "verify", structured_file(tmp_path, edit), prof)
    assert result.exit_code == 2
    assert result.output.strip() == f"error: {message}"


# ---------------------------------------------------------------------------
# verify


def test_verify_exact_nash_at_eps_zero(runner, pennies_file, tmp_path):
    prof = tmp_path / "prof.json"
    write_profile(prof, [(R(1, 2), R(1, 2)), (R(1, 2), R(1, 2))])
    result = invoke(runner, "verify", pennies_file, prof)
    assert result.exit_code == 0
    assert "PASS at eps = 0" in result.output
    assert "realized eps = 0" in result.output


def test_verify_failure_lists_violations(runner, pennies_file, tmp_path):
    prof = tmp_path / "prof.json"
    write_profile(prof, [(R(1), R(0)), (R(1), R(0))])
    result = invoke(runner, "verify", pennies_file, prof)
    assert result.exit_code == 1
    assert "FAIL at eps = 0" in result.output
    assert "realized eps = 1" in result.output
    assert "player 1" in result.output


def test_verify_normal_form_profile(runner, dominant_file, tmp_path):
    prof = tmp_path / "prof.json"
    write_profile(prof, [(R(1), R(0))] * 3)
    result = invoke(runner, "verify", dominant_file, prof)
    assert result.exit_code == 0


# ---------------------------------------------------------------------------
# reduce


def test_reduce_linearize_log_ledger(runner, dominant_file, tmp_path):
    prefix = tmp_path / "lin"
    result = invoke(
        runner, "reduce", dominant_file,
        "--eps-k", "9/10", "--construction", "log", "--stage", "linearize",
        "--out", prefix,
    )
    assert result.exit_code == 0
    assert "eps_m = 1/100000" in result.output
    assert "polymatrix players = 3603" in result.output
    ledger = (tmp_path / "lin.ledger.txt").read_text()
    assert "construction = log" in ledger
    assert "eps_m = 1/100000" in ledger
    game = read_game(tmp_path / "lin.game.json")
    assert isinstance(game, PolymatrixGame)
    assert game.m == 3603


def test_reduce_full_writes_normalized(runner, tmp_path):
    # 2-player source keeps the full stage small (mediators are 1-chains)
    payoffs = [
        [[R(1), R(1)], [R(0), R(0)]],
        [[R(1), R(1)], [R(0), R(0)]],
    ]
    src = tmp_path / "src.json"
    write_game(src, NormalFormGame((2, 2), payoffs))
    prefix = tmp_path / "full"
    result = invoke(runner, "reduce", src, "--eps-k", "1/2", "--out", prefix)
    assert result.exit_code == 0
    game = read_game(tmp_path / "full.game.json")
    normalized = read_game(tmp_path / "full.normalized.json")
    mapping, _ = read_mapping(tmp_path / "full.mapping.json")
    assert isinstance(game, BimatrixGame) and not game.normalized
    assert normalized.normalized and normalized.divisor == mapping.divisor
    assert f"bimatrix size = {game.n} x {game.n}" in result.output


def test_reduce_is_deterministic(runner, dominant_file, tmp_path):
    args = ["--eps-k", "9/10", "--construction", "log", "--stage", "linearize"]
    invoke(runner, "reduce", dominant_file, *args, "--out", tmp_path / "a")
    invoke(runner, "reduce", dominant_file, *args, "--out", tmp_path / "b")
    for suffix in (".game.json", ".mapping.json"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_reduce_rejects_non_normal_form(runner, pennies_file, tmp_path):
    result = invoke(runner, "reduce", pennies_file, "--eps-k", "1/2", "--out", tmp_path / "x")
    assert result.exit_code == 3


def test_reduce_respects_player_budget_env(runner, dominant_file, tmp_path, monkeypatch):
    monkeypatch.setenv("NASHREDUCE_PLAYER_BUDGET", "10")
    result = invoke(runner, "reduce", dominant_file, "--eps-k", "9/10", "--out", tmp_path / "x")
    assert result.exit_code == 4


BUILD_MULT = ("gadget", "build-mult", "--construction", "unary", "--eps", "1/4")


@pytest.mark.parametrize("budget,code", [("abc", 3), ("", 0), ("0", 3), ("-5", 3)])
def test_player_budget_env_parsing(runner, dominant_file, tmp_path, monkeypatch, budget, code):
    # an empty value means the default; a non-integer or a budget below one
    # is a parameter error, before any size estimate
    monkeypatch.setenv("NASHREDUCE_PLAYER_BUDGET", budget)
    args = ["--eps-k", "9/10", "--construction", "log", "--stage", "linearize"]
    for result in (
        invoke(runner, "reduce", dominant_file, *args, "--out", tmp_path / "x"),
        invoke(runner, *BUILD_MULT, "--out", tmp_path / "mult.json"),
    ):
        assert result.exit_code == code, result.output
        if budget in ("0", "-5"):
            assert "player budget must be positive" in result.output


def test_reduce_missing_file(runner, tmp_path):
    result = invoke(runner, "reduce", tmp_path / "nope.json", "--eps-k", "1/2", "--out", tmp_path / "x")
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# recover


@pytest.fixture
def linearized(tmp_path):
    payoffs = [[[R(1)] * 4, [R(0)] * 4] for _ in range(3)]
    src = NormalFormGame((2, 2, 2), payoffs)
    gm, mapping, params = linearize(src, R(9, 10), "log")
    game_path = tmp_path / "lin.game.json"
    mapping_path = tmp_path / "lin.mapping.json"
    write_game(game_path, gm)
    write_mapping(mapping_path, mapping, params)
    profile = lift_to_polymatrix([(R(1), R(0))] * 3, mapping)
    profile_path = tmp_path / "lin.profile.json"
    write_profile(profile_path, profile)
    return str(game_path), str(mapping_path), str(profile_path)


def test_recover_linearize_round_trip(runner, linearized, tmp_path):
    game_path, mapping_path, profile_path = linearized
    out = tmp_path / "rec.json"
    result = invoke(runner, "recover", game_path, mapping_path, profile_path, "--out", out)
    assert result.exit_code == 0
    assert "recovered profile: ((1,0),(1,0),(1,0))" in result.output
    assert "verification at eps = 1/100000: PASS" in result.output
    assert read_profile(out) == [(R(1), R(0))] * 3


@pytest.fixture
def bimatrixified(tmp_path):
    gm = PolymatrixGame(
        (2, 2),
        {
            (0, 1): [[R(1), R(0)], [R(0), R(1)]],
            (1, 0): [[R(0), R(1)], [R(1), R(0)]],
        },
    )
    g2, mapping, params = bimatrixify(gm, R(1, 2))
    game_path = tmp_path / "bi.game.json"
    mapping_path = tmp_path / "bi.mapping.json"
    write_game(game_path, g2)
    write_mapping(mapping_path, mapping, params)
    return str(game_path), str(mapping_path)


def test_recover_zero_block_mass(runner, bimatrixified, tmp_path):
    game_path, mapping_path = bimatrixified
    prof = tmp_path / "prof.json"
    write_profile(prof, [(R(1, 4),) * 4, (R(1, 2), R(1, 2), R(0), R(0))])
    result = invoke(runner, "recover", game_path, mapping_path, prof)
    assert result.exit_code == 5
    assert "block 1" in result.output


def test_recover_rejects_the_mapping_of_another_game(runner, tmp_path):
    # block sizes (2, 3) in the game, (3, 2) in the mapping: the same N
    game_path, mapping_path, prof = (tmp_path / name for name in ("g.json", "m.json", "p.json"))
    g23, _, _ = bimatrixify(PolymatrixGame((2, 3), {(0, 1): [[R(1), R(0), R(1)], [R(0), R(1), R(0)]]}), R(1, 2))
    _, map32, params = bimatrixify(PolymatrixGame((3, 2), {(1, 0): [[R(1), R(0), R(1)], [R(0), R(1), R(0)]]}), R(1, 2))
    write_game(game_path, g23)
    write_mapping(mapping_path, map32, params)
    write_profile(prof, [(R(1, 5),) * 5, (R(1, 5),) * 5])
    result = invoke(runner, "recover", game_path, mapping_path, prof)
    assert result.exit_code == 3
    assert "do not match" in result.output
    assert "Traceback" not in result.output


def test_recover_rejects_a_mapping_with_another_divisor(runner, tmp_path):
    game_path, mapping_path, prof = (tmp_path / name for name in ("g.json", "m.json", "p.json"))
    g2, mapping, params = bimatrixify(PolymatrixGame((2, 2), {(0, 1): [[R(1), R(0)], [R(0), R(1)]]}), R(1, 2))
    write_game(game_path, g2)
    write_mapping(mapping_path, replace(mapping, divisor=g2.divisor + 1), params)
    write_profile(prof, [(R(1, 4),) * 4, (R(1, 4),) * 4])
    result = invoke(runner, "recover", game_path, mapping_path, prof)
    assert result.exit_code == 3
    assert "mapping divisor 258 differs from the game's 257" in result.output
    assert "Traceback" not in result.output


BAD_BIMATRIX_PROFILE = [
    (R(1, 2), R(1, 2), R(0), R(0)),  # follower's supported zero-payoff strategies violate
    (R(1, 10), R(2, 5), R(1, 4), R(1, 4)),
]


def test_recover_verification_failure_exits_one(runner, bimatrixified, tmp_path):
    game_path, mapping_path = bimatrixified
    prof = tmp_path / "prof.json"
    # every block alive, but nowhere near an eps_2-equilibrium
    write_profile(prof, BAD_BIMATRIX_PROFILE)
    result = invoke(runner, "recover", game_path, mapping_path, prof)
    assert result.exit_code == 1
    assert "FAIL" in result.output
    assert "recovered profile: ((1/5,4/5),(1/2,1/2))" in result.output


def test_recover_eps_override(runner, bimatrixified, tmp_path):
    game_path, mapping_path = bimatrixified
    prof = tmp_path / "prof.json"
    write_profile(prof, BAD_BIMATRIX_PROFILE)
    result = invoke(runner, "recover", game_path, mapping_path, prof, "--eps", "2000")
    assert result.exit_code == 0
    assert "verification at eps = 2000: PASS" in result.output


# ---------------------------------------------------------------------------
# where a violation sits: each line keeps its old text as a prefix


def violation_lines(output) -> list[str]:
    return [line for line in output.splitlines() if line.startswith("  player ")]


def prefix(v) -> str:
    return (
        f"  player {v.player}: plays strategy {v.strategy} for {v.payoff} "
        f"while strategy {v.best_strategy} pays {v.best_payoff}"
    )


@pytest.mark.parametrize("command", ["verify", "recover"])
def test_a_polymatrix_violation_names_role_and_scope(runner, linearized, tmp_path, command):
    game_path, mapping_path, profile_path = linearized
    game = read_game(game_path)
    # original 0 and an auxiliary player flipped
    profile = read_profile(profile_path)
    flipped = [tuple(reversed(p)) if i in (0, 100) else p for i, p in enumerate(profile)]
    prof = tmp_path / "flipped.json"
    write_profile(prof, flipped)
    eps = R(1, 100000)
    want = game.verify_wsne(flipped, eps).violations[:5]
    args = (game_path, prof, "--eps", eps) if command == "verify" else (game_path, mapping_path, prof)
    result = invoke(runner, command, *args)
    assert result.exit_code == 1
    lines = violation_lines(result.output)
    assert len(lines) == len(want) == 5
    assert lines[0] == prefix(want[0]) + " (role original, scope input:original[0])"
    for line, v in zip(lines, want):
        info = game.players[v.player]
        assert line == prefix(v) + f" (role {info.role.value}, scope {info.scope})"
    assert {game.players[v.player].role.value for v in want} == {"original", "gadget_aux"}


def test_a_polymatrix_player_without_scope_names_its_role_only(runner, tmp_path):
    game_path = tmp_path / "poly.json"
    write_game(game_path, PolymatrixGame((2, 2), {(0, 1): [[R(1), R(0)], [R(0), R(1)]]}))
    prof = tmp_path / "prof.json"
    write_profile(prof, [(R(1), R(0)), (R(0), R(1))])
    result = invoke(runner, "verify", game_path, prof)
    assert result.exit_code == 1
    assert violation_lines(result.output) == [
        "  player 0: plays strategy 0 for 0 while strategy 1 pays 1 (role plain)"
    ]


@pytest.mark.parametrize("command", ["verify", "recover"])
def test_a_structured_bimatrix_violation_names_its_blocks(runner, bimatrixified, tmp_path, command):
    game_path, mapping_path = bimatrixified
    prof = tmp_path / "prof.json"
    write_profile(prof, BAD_BIMATRIX_PROFILE)
    game = read_game(game_path)
    _, params = read_mapping(mapping_path)
    want = game.verify_wsne(*BAD_BIMATRIX_PROFILE, params.eps_2).violations
    args = (game_path, prof, "--eps", params.eps_2) if command == "verify" else (game_path, mapping_path, prof)
    result = invoke(runner, command, *args)
    assert result.exit_code == 1
    lines = violation_lines(result.output)
    assert len(lines) == len(want) == 4
    for line, v in zip(lines, want):
        (i, j), (bi, bj) = game.block_of(v.strategy), game.block_of(v.best_strategy)
        assert line == prefix(v) + f" (block {i} strategy {j}; best: block {bi} strategy {bj})"
    # the follower's strategy 3 is block 1's strategy 1
    assert lines[-1] == (
        "  player 1: plays strategy 3 for 0 while strategy 0 pays 1/2"
        " (block 1 strategy 1; best: block 0 strategy 0)"
    )


def test_a_dense_bimatrix_violation_keeps_its_line(runner, pennies_file, tmp_path):
    prof = tmp_path / "prof.json"
    write_profile(prof, [(R(1), R(0)), (R(1), R(0))])
    result = invoke(runner, "verify", pennies_file, prof)
    assert violation_lines(result.output) == ["  player 1: plays strategy 0 for 0 while strategy 1 pays 1"]


# ---------------------------------------------------------------------------
# gadget


def test_gadget_list(runner):
    result = invoke(runner, "gadget", "list")
    assert result.exit_code == 0
    for kind in GADGET_KINDS:
        assert kind in result.output


def test_gadget_list_json(runner):
    result = invoke(runner, "gadget", "list", "--json")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert set(data) == set(GADGET_KINDS)
    assert data["median"]["error_band"] == "20*eps"
    two_cycles = {"scaled_sum", "minus", "complement", "assign", "scale", "mask"}
    decisions = {"threshold", "and", "compare"}
    assert {kind: info["aux_players"] for kind, info in data.items()} == {
        kind: 1 if kind in two_cycles else 0 if kind in decisions else None for kind in GADGET_KINDS
    }


@pytest.mark.parametrize(
    "construction,eps",
    # the log construction needs eps fine enough for reliable digits
    [("unary", R(1, 4)), ("log", R(1, 1000))],
)
def test_gadget_build_mult(runner, tmp_path, construction, eps):
    out = tmp_path / "mult.json"
    result = invoke(
        runner, "gadget", "build-mult",
        "--construction", construction, "--eps", f"{eps.numerator}/{eps.denominator}",
        "--out", out,
    )
    assert result.exit_code == 0
    game = read_game(out)
    assert game.m == predicted_player_count(construction, eps) + 2


def test_gadget_test_threshold(runner):
    result = invoke(
        runner, "gadget", "test", "threshold", "--eps", "1/20", "--grid", "1/100"
    )
    assert result.exit_code == 0
    assert re.search(r"threshold\s+441\s+0\s+0 PASS", result.output)


def test_gadget_test_counts_every_failure(runner, monkeypatch):
    monkeypatch.setattr("nashreduce.sweep._envelope", lambda *args: 0)
    result = invoke(runner, "gadget", "test", "threshold")
    assert result.exit_code == 1
    assert re.search(r"threshold\s+441\s+441\s+0 FAIL", result.output)
    assert "441 failing case(s)" in result.output


def test_gadget_test_unknown_kind(runner):
    result = invoke(runner, "gadget", "test", "xor")
    assert result.exit_code == 3
    assert result.output == "error: unknown gadget kind 'xor'\n"


def test_gadget_test_bad_eps(runner):
    result = invoke(runner, "gadget", "test", "threshold", "--eps", "1")
    assert result.exit_code == 3
    assert result.output == "error: eps must be in (0, 1), got 1\n"


@pytest.mark.parametrize(
    "args",
    [
        ("threshold", "--grid", "2/3"),
        ("threshold", "--input-grid", "3/2"),
        # one internal step of 1/10 moves the mask stage by 4 eps
        ("max", "--grid", "1/10"),
        ("all", "--grid", "1/10"),
    ],
)
def test_gadget_test_bad_grid(runner, args):
    result = invoke(runner, "gadget", "test", *args)
    assert result.exit_code == 3
    assert result.output.startswith("error: ")
    assert "cases" not in result.output
