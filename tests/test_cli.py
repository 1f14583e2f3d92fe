"""Command-line interface tests.

Every command is driven in-process through click's test runner.  Exit
codes are part of the contract (0 success, 1 verification/no-result,
2 parse, 3 parameter, 4 size budget, 5 zero block mass), as is the
absence of floating-point output without --approx, and byte-identical
reduction outputs across runs.
"""

import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from nashreduce import ParseError, R
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
from nashreduce.model import BimatrixGame, NormalFormGame, PolymatrixGame, random_normal_form
from nashreduce.multipliers import predicted_player_count
from nashreduce.reductions import bimatrixify, linearize, lift_to_polymatrix, normalize_bimatrix, reduce_full
from nashreduce.solvers import lift_to_bimatrix

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
        row = data["matrices"][0][0]
        row[0] = " " + row[0]

    result = invoke(runner, "solve", structured_file(tmp_path, pad_first_entry))
    assert result.exit_code == 2
    assert "invalid rational" in result.output


def test_file_body_breaking_a_builder_rule_is_unreadable_input(runner, tmp_path):
    result = invoke(runner, "solve", structured_file(tmp_path, lambda d: d.update(alpha="-5")))
    assert result.exit_code == 2
    assert result.output.strip() == "error: alpha must be positive"


@pytest.mark.parametrize("cls", [["bimatrix"], {"bimatrix": 1}])
def test_verify_rejects_a_game_class_that_is_not_a_string(runner, pennies_file, tmp_path, cls):
    data = json.loads(Path(pennies_file).read_text())
    data["class"] = cls
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    prof = tmp_path / "prof.json"
    write_profile(prof, [(R(1, 2), R(1, 2))] * 2)
    result = invoke(runner, "verify", bad, prof)
    assert result.exit_code == 2
    assert result.output == f"error: unknown game class {cls!r}\n"


def set_first_edge_entry(text):
    def edit(data):
        data["matrices"][data["edges"][0][2]][0][0] = text

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(block_sizes=[1, 3]),
         "every polymatrix player needs at least two pure strategies"),
        (set_first_edge_entry("5/2"), "edge (0, 1) entry 5/2 outside [-1, 2]"),
        (set_first_edge_entry("-3/2"), "edge (0, 1) entry -3/2 outside [-1, 2]"),
        (lambda d: d.update(divisor="1283/3"),
         'game field divisor is "1283/3", but rewriting what was read gives null'),
        (lambda d: d.update(normalized=True),
         'game field payoff_range[0] is "-1280/3", but rewriting what was read gives "0"'),
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


def test_verify_rejects_a_profile_with_an_integer_past_the_digit_limit(runner, pennies_file, tmp_path):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for it
    prof = tmp_path / "prof.json"
    prof.write_text('{"format":"nashreduce-profile/1","strategies":[[' + "1" * 5000 + ',"0"],["1","0"]]}\n')
    result = invoke(runner, "verify", pennies_file, prof)
    assert result.exit_code == 2
    assert result.output.startswith(f"error: {prof} is not valid JSON: ")
    assert "Traceback" not in result.output


def test_a_negative_tolerance_is_a_parameter_violation(runner, pennies_file, bimatrixified, tmp_path):
    prof = tmp_path / "prof.json"
    write_profile(prof, [(R(1, 2), R(1, 2)), (R(1, 2), R(1, 2))])
    write_profile(tmp_path / "bi.json", BAD_BIMATRIX_PROFILE)
    for args in (
        ("verify", pennies_file, prof, "--eps=-1/2"),
        ("recover", *bimatrixified, tmp_path / "bi.json", "--eps=-1/2"),
        ("solve", pennies_file, "--method", "grid", "--eps=-1/2", "--step", "1/2"),
    ):
        result = invoke(runner, *args)
        assert result.exit_code == 3, args
        assert result.output == "error: eps must be nonnegative\n"


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
    assert "polymatrix players = 2435" in result.output
    ledger = (tmp_path / "lin.ledger.txt").read_text()
    assert "construction = log" in ledger
    assert "eps_m = 1/100000" in ledger
    game = read_game(tmp_path / "lin.game.json")
    assert isinstance(game, PolymatrixGame)
    assert game.m == 2435


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


REDUCE_OUTPUTS = {
    # name: (strategy counts, source seed, reduce options, {file suffix: sha256});
    # the game and mapping digests are of version 2 files
    "log-full-222": ((2, 2, 2), 7, ("--eps-k", "9/10", "--construction", "log"), {
        "game.json": "811902e00512af4231d40912822a61f20aaf1c9c84c27eb2bfcf976808ccfac9",
        "ledger.txt": "75b2e2df8b79d7342244312080f37fd14eef3dac7c49217816cdd9da9753083b",
        "mapping.json": "67b018a9cb2168c24585e26e12cf7a8be23ab8e137fd4f0fc882e60c0401003a",
        "normalized.json": "cb732e369f80da698ad9d4c81df07e49dc029398436970e0d4b3f2e4e72ae03d",
    }),
    "unary-linearize-22": ((2, 2), 5, ("--eps-k", "1/2", "--construction", "unary", "--stage", "linearize"), {
        "game.json": "5492e6428329363ace4399165d246bf0cb816a0f59c046f51f19de4fabf4e52e",
        "ledger.txt": "0edf0cda72905207898d24cd792dbbbb64d3309213dd89b3221110c0b294dbeb",
        "mapping.json": "eb29a9e22517c9ce356757e93acea147bcc07848576e15737e00c02df16c6b54",
    }),
}


@pytest.mark.parametrize("name", sorted(REDUCE_OUTPUTS))
def test_reduce_outputs_are_pinned(runner, tmp_path, name):
    counts, seed, options, digests = REDUCE_OUTPUTS[name]
    src = tmp_path / "src.json"
    write_game(src, random_normal_form(seed, counts))
    result = invoke(runner, "reduce", src, *options, "--out", tmp_path / "out")
    assert result.exit_code == 0
    written = {p.name[len("out."):]: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("out.*")}
    assert written == digests


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


@pytest.fixture
def full_reduced(tmp_path):
    """Game, mapping and witness profile files of a full reduction of 2x2
    anti-coordination at its pure equilibrium; the normalized game sits
    beside the game as ``full.normalized.json``."""
    differ = [[R(0), R(1)], [R(1), R(0)]]
    g2, mapping, params = reduce_full(NormalFormGame((2, 2), [differ, differ]), R(1, 2), "unary")
    poly = lift_to_polymatrix([(R(1), R(0)), (R(0), R(1))], mapping)
    paths = [tmp_path / f"full.{name}.json" for name in ("game", "mapping", "profile")]
    write_game(paths[0], g2)
    write_game(tmp_path / "full.normalized.json", normalize_bimatrix(g2))
    write_mapping(paths[1], mapping, params)
    write_profile(paths[2], lift_to_bimatrix(g2, poly, mapping))
    return tuple(map(str, paths))


def recover_tampered(runner, files, fields):
    """``recover`` on ``files`` (game, mapping, profile) with the mapping's
    ``fields`` replaced; a ``params`` entry replaces only the ledger values
    it names."""
    game_path, mapping_path, profile_path = files
    with open(mapping_path) as fh:
        data = json.load(fh)
    data.update(fields, params=dict(data["params"], **fields.get("params", {})))
    tampered = f"{mapping_path}.tampered.json"
    with open(tampered, "w") as fh:
        json.dump(data, fh)
    return invoke(runner, "recover", game_path, tampered, profile_path)


def test_recover_full_round_trip(runner, full_reduced):
    game_path, mapping_path, profile_path = full_reduced
    assert read_mapping(mapping_path)[0].h == ((0, 1), (2, 3))
    # eps_2 in the game, and eps_2 over the divisor 7296001 in the normalized game
    for game, eps in (("game", "1/9120"), ("normalized", "1/66539529120")):
        result = invoke(runner, "recover", game_path.replace(".game.", f".{game}."), mapping_path, profile_path)
        assert result.exit_code == 0
        assert "recovered profile: ((1,0),(0,1))" in result.output
        assert f"verification at eps = {eps}: PASS" in result.output
    # a mapping that records no divisor is verified at the normalized game's own
    files = (game_path.replace(".game.", ".normalized."), mapping_path, profile_path)
    result = recover_tampered(runner, files, {"divisor": None, "params": {"divisor": None}})
    assert result.exit_code == 0
    assert "verification at eps = 1/66539529120: PASS" in result.output


def retagged(path, tag) -> str:
    """A copy of the file at ``path`` tagged with format ``tag``."""
    data = json.loads(Path(path).read_text())
    data["format"] = tag
    out = f"{path}.{tag.replace('/', '-')}.json"
    Path(out).write_text(json.dumps(data))
    return out


@pytest.mark.parametrize(
    "tag", ["nashreduce-game/1", "nashreduce-mapping/1", "nashreduce-game/3", "nashreduce-mapping/3", "nashreduce-profile/2"]
)
def test_an_old_or_unknown_format_tag_is_unreadable(runner, full_reduced, dominant_file, tmp_path, tag):
    # a reader accepts only the tag its writer writes
    game_path, mapping_path, profile_path = full_reduced
    if tag.startswith("nashreduce-profile/"):
        expected, read = "nashreduce-profile/1", read_profile
        bad = retagged(profile_path, tag)
        runs = [("verify", game_path, bad), ("recover", game_path, mapping_path, bad)]
    elif tag.startswith("nashreduce-game/"):
        expected, read = "nashreduce-game/2", read_game
        bad, source = retagged(game_path, tag), retagged(dominant_file, tag)
        runs = [
            ("verify", bad, profile_path),
            ("recover", bad, mapping_path, profile_path),
            ("solve", bad),
            ("reduce", source, "--eps-k", "1/2", "--out", tmp_path / "out"),
        ]
    else:
        expected, read = "nashreduce-mapping/2", read_mapping
        bad = retagged(mapping_path, tag)
        runs = [("recover", game_path, bad, profile_path)]
    message = f"expected format {expected!r}, got {tag!r}"
    with pytest.raises(ParseError) as err:
        read(bad)
    assert str(err.value) == message
    for args in runs:
        result = invoke(runner, *args)
        assert result.exit_code == 2, args
        assert result.output == f"error: {message}\n"
    assert not (tmp_path / "out.game.json").exists()


TAMPERED_MAPPINGS = {
    # name: (reduced files, mapping file fields, message); each would misread
    # the layout or loosen the tolerance recover verifies at.  A mapping holds
    # no layout at all.
    "source_counts": ("full", {"source_counts": [2, 3]}, "source counts (2, 3) are not the leading block sizes (2, 2)"),
    "g_in_v2": ("full", {"g": [1, 1]}, "unknown mapping field 'g'"),
    "h_in_v2": ("full", {"h": [[0, 1], [2, 3]]}, "unknown mapping field 'h'"),
    # the g and h a version 1 mapping held are refused whatever they hold,
    # before their shape is read
    "swapped_h": ("full", {"h": [[2, 3], [0, 1]]}, "unknown mapping field 'h'"),
    "wrong_g": ("full", {"g": [0, 1]}, "unknown mapping field 'g'"),
    "short_h": ("full", {"h": [[0, 1]]}, "unknown mapping field 'h'"),
    "bool_h": ("full", {"h": [[0, True], [2, 3]]}, "unknown mapping field 'h'"),
    "float_h": ("full", {"h": [[0, 1], [2.0, 3]]}, "unknown mapping field 'h'"),
    "h_not_lists": ("full", {"h": 4}, "unknown mapping field 'h'"),
    # a version 1 tag cannot carry a forged layout or tolerance past the reader
    "source_counts_v1": ("full", {"format": "nashreduce-mapping/1", "source_counts": [2, 3], "h": [[0, 1], [2, 3, 4]]},
                         "expected format 'nashreduce-mapping/2', got 'nashreduce-mapping/1'"),
    "forged_eps_2_v1": ("full", {"format": "nashreduce-mapping/1", "params": {"eps_2": "1000000000000"}},
                        "expected format 'nashreduce-mapping/2', got 'nashreduce-mapping/1'"),
    "extra_ledger_value": ("full", {"params": {"eps_2_normalized": "1/66539529120"}},
                           "unknown mapping field 'params.eps_2_normalized'"),
    # malformed fields that a GameMapping rejects are unreadable input too
    "unknown_stage": ("full", {"stage": "sideways"}, "unknown reduction stage 'sideways'"),
    "missing_block_sizes": ("full", {"block_sizes": None}, "full mappings need block_sizes and alpha"),
    "nonpositive_count": ("full", {"source_counts": [2, 0]}, "source strategy counts must be positive"),
    "no_blocks": ("full", {"stage": "bimatrixify", "source_counts": [], "block_sizes": [],
                           "params": {"m": 0, "N": 0, "eps_k": None, "construction": None}},
                  "block sizes must be one or more positive counts"),
    # the ledger is derived from the inputs and the layout, so a forged value is unreadable input
    "forged_eps_2": ("full", {"params": {"eps_2": "1000000000000"}},
                     'mapping field params.eps_2 is "1000000000000", but rewriting what was read gives "1/9120"'),
    "float_eps_2": ("full", {"params": {"eps_2": 0.5}}, 'mapping field params.eps_2 is 0.5, but rewriting what was read gives "1/9120"'),
    "forged_alpha": ("full", {"params": {"alpha": "1"}}, 'mapping field params.alpha is "1", but rewriting what was read gives "7296000"'),
    "forged_N": ("full", {"params": {"N": 21}}, "mapping field params.N is 21, but rewriting what was read gives 20"),
    "float_N": ("full", {"params": {"N": 20.0}}, "mapping field params.N is 20.0, but rewriting what was read gives 20"),
    "float_m": ("full", {"params": {"m": 10.0}}, "mapping field params.m is 10.0, but rewriting what was read gives 10"),
    "forged_top_level_alpha": ("full", {"alpha": "1"}, 'mapping field alpha is "1", but rewriting what was read gives "7296000"'),
    "forged_divisor": ("normalized", {"params": {"divisor": "1/1000000000000"}},
                       'mapping field params.divisor is "1/1000000000000", but rewriting what was read gives "7296001"'),
    "noncanonical_eps_m": ("full", {"params": {"eps_m": "2/912"}},
                           'mapping field params.eps_m is "2/912", but rewriting what was read gives "1/456"'),
    "forged_linearize_eps_m": ("linearized", {"params": {"eps_m": "1"}},
                               'mapping field params.eps_m is "1", but rewriting what was read gives "1/100000"'),
    "linearize_without_eps_k": ("linearized", {"params": {"eps_k": None}},
                                "a linearize mapping needs eps_k and a construction"),
}


@pytest.mark.parametrize("name", sorted(TAMPERED_MAPPINGS))
def test_recover_rejects_a_tampered_mapping(runner, request, name):
    files, fields, message = TAMPERED_MAPPINGS[name]
    fixture = "linearized" if files == "linearized" else "full_reduced"
    game_path, mapping_path, profile_path = request.getfixturevalue(fixture)
    if files == "normalized":
        game_path = game_path.replace(".game.", ".normalized.")
    result = recover_tampered(runner, (game_path, mapping_path, profile_path), fields)
    assert result.exit_code == 2
    assert f"error: {message}\n" in result.output
    assert "recovered profile" not in result.output
    assert "Traceback" not in result.output


def test_recover_rejects_a_mapping_with_another_divisor(runner, tmp_path):
    # a readable, self-consistent mapping whose divisor is not the game's
    game_path, mapping_path, prof = (tmp_path / name for name in ("g.json", "m.json", "p.json"))
    g2, mapping, params = bimatrixify(PolymatrixGame((2, 2), {(0, 1): [[R(1), R(0)], [R(0), R(1)]]}), R(1, 2))
    write_game(game_path, g2)
    write_mapping(mapping_path, replace(mapping, divisor=g2.divisor + 1), replace(params, divisor=g2.divisor + 1))
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


# the sha256 of each written file
BUILD_MULT_FILES = {
    "unary": "458327887edb62ac0507951881bd82bd9ba2d249eae9bbe8cf3cb1af767e9bd2",
    "log": "4bad9fccae727b875e1ffbe587e537f800e82093b82c4d1ea808dc3dd06d8188",
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
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILD_MULT_FILES[construction]


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
