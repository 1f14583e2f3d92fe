"""Serialization tests: exact round trips, byte-level determinism, and
loud failures on malformed input."""

import json
from fractions import Fraction

import pytest

from nashreduce import ParseError, R
from nashreduce.fileio import (
    GAME_FORMAT,
    PROFILE_FORMAT,
    dumps_canonical,
    game_from_dict,
    game_to_dict,
    mapping_from_dict,
    mapping_to_dict,
    profile_from_dict,
    profile_to_dict,
    read_game,
    read_mapping,
    read_profile,
    write_game,
    write_mapping,
    write_profile,
)
from nashreduce.model import (
    BimatrixGame,
    NormalFormGame,
    PolymatrixGame,
    random_normal_form,
    random_polymatrix,
)
from nashreduce.reductions import bimatrixify, linearize, normalize_bimatrix, reduce_full


def tiny_game():
    return NormalFormGame((2,), [[[R(1)], [R(0)]]])


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("seed", range(5))
def test_normal_form_round_trip(seed):
    game = random_normal_form(seed, (2, 3, 2))
    assert game_from_dict(game_to_dict(game)) == game


@pytest.mark.parametrize("seed", range(5))
def test_polymatrix_round_trip(seed):
    game = random_polymatrix(seed, (2, 3, 4), lo=R(-1), hi=R(2))
    assert game_from_dict(game_to_dict(game)) == game


def test_polymatrix_roles_round_trip():
    gm, _, _ = linearize(random_normal_form(3, (2, 2)), R(1, 2), "unary")
    back = game_from_dict(game_to_dict(gm))
    assert back == gm
    assert [p.role for p in back.players] == [p.role for p in gm.players]
    assert back.players[2].scope == "mediator[0,0]"


def test_bimatrix_round_trips():
    dense = BimatrixGame.dense(
        [[R(1), R(0)], [R(0), R(1)]], [[R(0), R(1)], [R(1), R(0)]]
    )
    assert game_from_dict(game_to_dict(dense)) == dense
    gm = random_polymatrix(9, (2, 2, 2))
    structured, _, _ = bimatrixify(gm, R(3, 10))
    assert game_from_dict(game_to_dict(structured)) == structured
    from nashreduce.reductions import normalize_bimatrix

    normalized = normalize_bimatrix(structured)
    back = game_from_dict(game_to_dict(normalized))
    assert back == normalized and back.normalized and back.divisor == normalized.divisor


def test_profile_round_trip():
    profile = [(R(1, 3), R(2, 3)), (R(1), R(0), R(0))]
    assert profile_from_dict(profile_to_dict(profile)) == profile
    xy = [(R(1, 2), R(1, 2)), (R(1, 4), R(3, 4))]
    assert profile_from_dict(profile_to_dict(xy)) == xy


@pytest.mark.parametrize("stage", ["linearize", "bimatrixify", "full"])
def test_mapping_round_trip(tmp_path, stage):
    game = random_normal_form(11, (2, 3))
    if stage == "full":
        _, mapping, params = reduce_full(game, R(1, 2), "unary")
    else:
        gm, mapping, params = linearize(game, R(1, 2), "unary")
        if stage == "bimatrixify":
            _, mapping, params = bimatrixify(gm, params.eps_m)
    write_mapping(tmp_path / "a.json", mapping, params)
    back_mapping, back_params = read_mapping(tmp_path / "a.json")
    # the circuit is an in-process convenience and is never serialized
    assert back_mapping.circuit is None
    assert back_mapping == mapping  # equality ignores the circuit
    assert back_params == params
    write_mapping(tmp_path / "b.json", back_mapping, back_params)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# ---------------------------------------------------------------------------
# determinism


def test_canonical_bytes_are_frozen():
    expected = (
        '{"class":"normal_form","format":"nashreduce-game/1",'
        '"payoff_range":["0","1"],"payoffs":[[["1"],["0"]]],'
        '"players":1,"strategy_counts":[2]}\n'
    )
    assert dumps_canonical(game_to_dict(tiny_game())) == expected


def test_serialization_is_deterministic(tmp_path):
    game = random_polymatrix(4, (2, 2, 3))
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_game(first, game)
    write_game(second, game_from_dict(game_to_dict(game)))
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")


def test_key_order_does_not_matter():
    data = game_to_dict(tiny_game())
    shuffled = dict(reversed(list(data.items())))
    assert dumps_canonical(shuffled) == dumps_canonical(data)
    assert game_from_dict(shuffled) == tiny_game()


# ---------------------------------------------------------------------------
# file helpers


def test_write_read_files(tmp_path):
    game = random_normal_form(2, (2, 2, 2))
    path = tmp_path / "game.json"
    write_game(path, game)
    assert read_game(path) == game
    profile = [(R(1), R(0)), (R(1, 2), R(1, 2)), (R(0), R(1))]
    ppath = tmp_path / "profile.json"
    write_profile(ppath, profile)
    assert read_profile(ppath) == profile
    g2, mapping, params = reduce_full(random_normal_form(5, (2, 2)), R(1, 2))
    mpath = tmp_path / "mapping.json"
    write_mapping(mpath, mapping, params)
    assert read_mapping(mpath) == (mapping, params)


def test_read_missing_or_bad_file(tmp_path):
    with pytest.raises(ParseError):
        read_game(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        read_game(bad)


# ---------------------------------------------------------------------------
# malformed content


def mutate(**overrides):
    data = game_to_dict(tiny_game())
    data.update(overrides)
    return data


def test_parse_rejects_bad_rationals():
    with pytest.raises(ParseError):
        game_from_dict(mutate(payoffs=[[["1/0"], ["0"]]], payoff_range=["0", "1/0"]))
    with pytest.raises(ParseError):
        game_from_dict(mutate(payoffs=[[[0.5], ["0"]]]))
    with pytest.raises(ParseError):
        game_from_dict(mutate(payoffs=[[["a/b"], ["0"]]]))


def test_parse_rejects_structural_damage():
    with pytest.raises(ParseError):
        game_from_dict([])
    with pytest.raises(ParseError):
        game_from_dict(mutate(format="nashreduce-game/999"))
    with pytest.raises(ParseError):
        game_from_dict(mutate(**{"class": "quantum"}))
    data = game_to_dict(tiny_game())
    del data["payoffs"]
    with pytest.raises(ParseError):
        game_from_dict(data)
    with pytest.raises(ParseError):  # header contradicts body
        game_from_dict(mutate(players=7))
    with pytest.raises(ParseError):
        game_from_dict(mutate(payoff_range=["0", "7"]))
    with pytest.raises(ParseError):  # counts must be ints, not bools
        game_from_dict(mutate(strategy_counts=[True]))
    gm = random_polymatrix(2, (2, 3), lo=R(-1), hi=R(2))
    g2, _, _ = bimatrixify(gm, R(1, 4))
    for game in (gm, g2):
        data = game_to_dict(game)
        assert game_from_dict(data) == game
        lo, hi = data["payoff_range"]
        n = data["strategy_counts"][0]
        for field, wrong in (
            ("players", data["players"] + 1),
            ("players", float(data["players"])),  # equal to the count, but not an int
            ("strategy_counts", [n + 1] + data["strategy_counts"][1:]),
            ("payoff_range", [lo, "7"]),
            ("payoff_range", ["-7", hi]),
        ):
            with pytest.raises(ParseError, match="header"):
                game_from_dict(dict(data, **{field: wrong}))
        with pytest.raises(ParseError, match="missing field"):
            game_from_dict({k: v for k, v in data.items() if k != "payoff_range"})
    # a structured game's strategy counts are read from the header alone
    with pytest.raises(ParseError) as err:
        game_from_dict(dict(data, strategy_counts=[float(n), n]))
    assert str(err.value) == f"header field 'strategy_counts' is [{float(n)}, {n}] but the body implies [{n}, {n}]"


def test_parse_rejects_bad_edges_and_roles():
    gm = random_polymatrix(1, (2, 2))
    data = game_to_dict(gm)
    doubled = dict(data, edges=data["edges"] + data["edges"])
    if data["edges"]:
        with pytest.raises(ParseError):
            game_from_dict(doubled)
    with pytest.raises(ParseError):
        game_from_dict(dict(data, roles=[["wizard", ""], ["plain", ""]]))
    with pytest.raises(ParseError):
        game_from_dict(dict(data, roles=[["plain", ""]]))


def test_profile_and_mapping_parse_errors():
    with pytest.raises(ParseError):
        profile_from_dict({"format": "nashreduce-profile/1"})
    with pytest.raises(ParseError):
        profile_from_dict({"format": "wrong", "strategies": []})
    with pytest.raises(ParseError):
        mapping_from_dict({"format": "nashreduce-mapping/1", "stage": "full"})
    game = random_normal_form(5, (2, 2))
    _, mapping, params = linearize(game, R(1, 2))
    data = mapping_to_dict(mapping, params)
    with pytest.raises(ParseError):
        mapping_from_dict(dict(data, params=dict(data["params"], eps_m="1/0")))
    # a ledger's inputs follow the reduction's rules
    _, bi_mapping, bi_params = bimatrixify(linearize(game, R(1, 2))[0], R(1, 4))
    bi_data = mapping_to_dict(bi_mapping, bi_params)
    for mapping_data, fields, message in (
        (data, {"eps_k": "3/2"}, "eps_k must lie in (0, 1), got 3/2"),
        (data, {"construction": "ternary"}, "unknown construction 'ternary'; choose from ['log', 'unary']"),
        (data, {"construction": None}, "a linearize mapping needs eps_k and a construction"),
        (bi_data, {"eps_k": "1/2"}, 'mapping field params.eps_k is "1/2", but the ledger gives null'),
        (bi_data, {"construction": "unary"}, 'mapping field params.construction is "unary", but the ledger gives null'),
    ):
        with pytest.raises(ParseError) as err:
            mapping_from_dict(dict(mapping_data, params=dict(mapping_data["params"], **fields)))
        assert str(err.value) == message
    one_player = dict(data, g=[0], h=[[0, 1]], source_counts=[2])
    with pytest.raises(ParseError, match="need at least two players to linearize"):
        mapping_from_dict(one_player)


def test_bimatrix_encoding_guard():
    dense = BimatrixGame.dense([[R(1)]], [[R(0)]])
    data = game_to_dict(dense)
    with pytest.raises(ParseError):
        game_from_dict(dict(data, encoding="sparse"))


# ---------------------------------------------------------------------------
# the rational grammar


@pytest.mark.parametrize(
    "text",
    [" 1/3", "1/3 ", "1_0/3", "1/3_0", "+1", "+1/3", "1/-2", "", " ", "1/", "/3",
     "1//3", "-", "0.5", "1e3", "١", "1/0"],
)
def test_rationals_in_files_use_the_strict_grammar(text):
    message = f"invalid rational {text!r}"
    with pytest.raises(ParseError) as err:
        game_from_dict(mutate(payoffs=[[[text], ["0"]]]))
    assert str(err.value) == message
    with pytest.raises(ParseError) as err:
        profile_from_dict({"format": PROFILE_FORMAT, "strategies": [["1/2", text]]})
    assert str(err.value) == message
    _, mapping, params = linearize(random_normal_form(5, (2, 2)), R(1, 2))
    data = mapping_to_dict(mapping, params)
    with pytest.raises(ParseError) as err:
        mapping_from_dict(dict(data, params=dict(data["params"], eps_m=text)))
    assert str(err.value) == message


def test_canonical_rationals_parse_to_fractions():
    strategies = [["3/4", "1/4"], ["-2/6", "4/3"], ["0", "-0", "007/7"]]
    back = profile_from_dict({"format": PROFILE_FORMAT, "strategies": strategies})
    assert back == [(R(3, 4), R(1, 4)), (R(-1, 3), R(4, 3)), (R(0), R(0), R(1))]
    assert all(type(x) is Fraction for vec in back for x in vec)


# ---------------------------------------------------------------------------
# a body that breaks a builder's rule


def structured_dict() -> dict:
    g2, _, _ = bimatrixify(random_polymatrix(2, (2, 3)), R(1, 4))
    return game_to_dict(g2)


def with_edge(i, j, mat):
    data = structured_dict()
    return dict(data, edges=data["edges"] + [[i, j, mat]])


def with_first_edge_entry(data, text):
    data["edges"][0][2][0][0] = text
    return data


def with_polymatrix_entry(text):
    return with_first_edge_entry(game_to_dict(random_polymatrix(4, (2, 2))), text)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: dict(structured_dict(), alpha="-5"), "alpha must be positive"),
        (lambda: with_edge(0, 5, [["1", "0"], ["0", "1"]]),
         "edge (0, 5) references a missing player"),
        (lambda: with_edge(1, 1, [["1", "0", "0"]] * 3),
         "self-edge (1, 1) is not allowed"),
        (lambda: with_polymatrix_entry("-2"), "edge (0, 1) entry -2 outside [-1, 2]"),
        (lambda: mutate(payoffs=[[["2"], ["0"]]]), "player 0 payoff entry 2 outside [0, 1]"),
        (lambda: dict(structured_dict(), block_sizes=[1, 4]),
         "every polymatrix player needs at least two pure strategies"),
        (lambda: with_first_edge_entry(structured_dict(), "5/2"),
         "edge (0, 1) entry 5/2 outside [-1, 2]"),
        (lambda: with_first_edge_entry(structured_dict(), "-3/2"),
         "edge (0, 1) entry -3/2 outside [-1, 2]"),
    ],
    ids=[
        "bad_alpha",
        "missing_block",
        "diagonal_edge",
        "polymatrix_range",
        "normal_form_range",
        "size_one_block",
        "structured_entry_above_2",
        "structured_entry_below_minus_1",
    ],
)
def test_body_breaking_a_builder_rule_is_a_parse_error(make, message):
    with pytest.raises(ParseError) as err:
        game_from_dict(make())
    assert str(err.value) == message


def normalized_dict() -> dict:
    g2, _, _ = bimatrixify(random_polymatrix(2, (2, 3)), R(1, 4))
    return game_to_dict(normalize_bimatrix(g2))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: dict(normalized_dict(), divisor="642"),
         "header field 'divisor' is '642' but the body implies '641'"),
        (lambda: dict(normalized_dict(), divisor=None),
         "header field 'divisor' is None but the body implies '641'"),
        (lambda: dict(structured_dict(), divisor="641"),
         "header field 'divisor' is '641' but the body implies None"),
    ],
    ids=["normalized_wrong", "normalized_null", "unnormalized_set"],
)
def test_structured_divisor_is_checked_like_a_header_field(make, message):
    assert structured_dict()["divisor"] is None
    assert normalized_dict()["divisor"] == "641"
    with pytest.raises(ParseError) as err:
        game_from_dict(make())
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# the codec on a reduced game


@pytest.fixture(scope="module")
def log_reduction():
    gm, _, lin_params = linearize(random_normal_form(7, (3, 2, 2)), R(9, 10), "log")
    return bimatrixify(gm, lin_params.eps_m)


def test_log_reduction_round_trips_byte_identically(tmp_path, log_reduction):
    g2, mapping, params = log_reduction
    for game in (g2, normalize_bimatrix(g2)):
        write_game(tmp_path / "a.json", game)
        back = read_game(tmp_path / "a.json")
        write_game(tmp_path / "b.json", back)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert back == game
    write_mapping(tmp_path / "a.mapping.json", mapping, params)
    write_mapping(tmp_path / "b.mapping.json", *read_mapping(tmp_path / "a.mapping.json"))
    assert (tmp_path / "a.mapping.json").read_bytes() == (tmp_path / "b.mapping.json").read_bytes()


def test_log_reduction_reads_back_equal_fractions(tmp_path, log_reduction):
    g2, mapping, params = log_reduction
    write_game(tmp_path / "g.json", g2)
    back = read_game(tmp_path / "g.json")
    assert back.edges.keys() == g2.edges.keys()
    for key, mat in g2.edges.items():
        read = [x for row in back.edges[key] for x in row]
        assert all(type(x) is Fraction for x in read)
        assert read == [x for row in mat for x in row]
    assert type(back.alpha) is Fraction and back.alpha == g2.alpha
    write_mapping(tmp_path / "m.json", mapping, params)
    back_mapping, back_params = read_mapping(tmp_path / "m.json")
    for value, want in (
        (back_mapping.alpha, mapping.alpha),
        (back_params.eps_m, params.eps_m),
        (back_params.eps_2, params.eps_2),
        (back_params.alpha, params.alpha),
    ):
        assert type(value) is Fraction and value == want


@pytest.mark.parametrize("bad", ["1/0", "x", "1/2/3", "0.5"])
def test_a_repeated_malformed_string_fails_every_time(bad):
    data = game_to_dict(random_polymatrix(3, (2, 2, 2)))
    rows = [row for _, _, mat in data["edges"] for row in mat]
    for row in rows[1::3]:
        row[-1] = bad
    for _ in range(3):
        with pytest.raises(ParseError, match="invalid rational"):
            game_from_dict(data)
    strategies = [[bad, "1"], ["1", "0"], ["0", bad]]
    for _ in range(2):
        with pytest.raises(ParseError, match="invalid rational"):
            profile_from_dict({"format": PROFILE_FORMAT, "strategies": strategies})


@pytest.mark.parametrize("bad", [[1], 1, None, True, 0.5, {"n": 1}])
def test_a_non_string_after_a_repeated_string_fails_as_before(bad):
    data = game_to_dict(random_polymatrix(6, (2, 3)))
    row = data["edges"][0][2][1]
    row[:] = [row[0], row[0], bad]
    data["edges"][0][2][0][0] = row[0]
    with pytest.raises(ParseError) as err:
        game_from_dict(data)
    assert str(err.value) == f"rationals must be strings like '3/4', got {bad!r}"
    strategies = [["1/2", "1/2"], ["1/2", "1/2", bad]]
    with pytest.raises(ParseError) as err:
        profile_from_dict({"format": PROFILE_FORMAT, "strategies": strategies})
    assert str(err.value) == f"rationals must be strings like '3/4', got {bad!r}"
