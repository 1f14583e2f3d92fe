"""Serialization tests: exact round trips, byte-level determinism, and
loud failures on malformed input."""

import copy
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashreduce import ParseError, R, rational_str
from nashreduce.fileio import (
    GAME_FORMAT,
    MAPPING_FORMAT,
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
from nashreduce.reductions import bimatrixify, eps_m_for_counts, linearize, normalize_bimatrix, reduce_full


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
        '{"class":"normal_form","format":"nashreduce-game/2",'
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
            with pytest.raises(ParseError, match="contradicts its header|but rewriting what was read gives"):
                game_from_dict(dict(data, **{field: wrong}))
        with pytest.raises(ParseError, match="missing field"):
            game_from_dict({k: v for k, v in data.items() if k != "payoff_range"})
    # a structured game's strategy counts are read from the header alone
    with pytest.raises(ParseError) as err:
        game_from_dict(dict(data, strategy_counts=[float(n), n]))
    assert str(err.value) == f"game field strategy_counts[0] is {float(n)}, but rewriting what was read gives {n}"


def test_parse_rejects_bad_edges_and_roles():
    gm = random_polymatrix(1, (2, 2))
    data = game_to_dict(gm)
    doubled = dict(data, edges=data["edges"] + data["edges"])
    if data["edges"]:
        with pytest.raises(ParseError):
            game_from_dict(doubled)
    # unhashable, numeric, null and boolean names are unknown roles too
    for name in ("wizard", ["plain"], {"plain": 1}, 1, None, True):
        with pytest.raises(ParseError) as err:
            game_from_dict(dict(data, roles=[[name, ""], ["plain", ""]]))
        assert str(err.value) == f"unknown role {name!r}"
    with pytest.raises(ParseError):
        game_from_dict(dict(data, roles=[["plain", ""]]))


def test_profile_and_mapping_parse_errors():
    with pytest.raises(ParseError):
        profile_from_dict({"format": "nashreduce-profile/1"})
    with pytest.raises(ParseError):
        profile_from_dict({"format": "wrong", "strategies": []})
    with pytest.raises(ParseError):
        mapping_from_dict({"format": MAPPING_FORMAT, "stage": "full"})
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
        (bi_data, {"eps_m": "0"}, "eps_m must lie in (0, 1), got 0"),
        (bi_data, {"eps_k": "1/2"}, 'mapping field params.eps_k is "1/2", but rewriting what was read gives null'),
        (bi_data, {"construction": "unary"},
         'mapping field params.construction is "unary", but rewriting what was read gives null'),
    ):
        with pytest.raises(ParseError) as err:
            mapping_from_dict(dict(mapping_data, params=dict(mapping_data["params"], **fields)))
        assert str(err.value) == message
    one_player = dict(data, source_counts=[2])
    with pytest.raises(ParseError, match="need at least two players to linearize"):
        mapping_from_dict(one_player)


def test_bimatrix_encoding_guard():
    dense = BimatrixGame.dense([[R(1)]], [[R(0)]])
    data = game_to_dict(dense)
    with pytest.raises(ParseError):
        game_from_dict(dict(data, encoding="sparse"))


# ---------------------------------------------------------------------------
# a version 2 reader accepts only what the writer writes


def honest(kind) -> dict:
    if kind == "game":  # six edges, each with a matrix of its own
        return game_to_dict(random_polymatrix(3, (2, 2, 2)))
    if kind == "profile":
        return profile_to_dict([(R(1, 2), R(1, 2)), (R(1), R(0))])
    return mapping_to_dict(*bimatrixify(random_polymatrix(2, (2, 3)), R(1, 4))[1:])


def swap_first_uses(data):
    data["matrices"][:2] = data["matrices"][1::-1]
    data["edges"][0][2], data["edges"][1][2] = 1, 0


STRICT_CASES = {
    # name: (file kind, edit of an honest file, message)
    "unknown_game_field": ("game", lambda d: d.update(extra=1), "unknown game field 'extra'"),
    "unknown_mapping_field": ("mapping", lambda d: d.update(extra=1), "unknown mapping field 'extra'"),
    "unknown_params_field": ("mapping", lambda d: d["params"].update(eps=1), "unknown mapping field 'params.eps'"),
    "unknown_profile_field": ("profile", lambda d: d.update(extra=1), "unknown profile field 'extra'"),
    "g_in_v2_mapping": ("mapping", lambda d: d.update(g=[0, 1]), "unknown mapping field 'g'"),
    "h_in_v2_mapping": ("mapping", lambda d: d.update(h=[[0, 1], [2, 3, 4]]), "unknown mapping field 'h'"),
    "repeated_edge": ("game", lambda d: d["edges"][1].__setitem__(1, 1),
                      "game field edges[1][0] is 0, but rewriting what was read gives 1"),
    "edges_out_of_order": ("game", lambda d: (d["edges"][0].__setitem__(1, 2), d["edges"][1].__setitem__(1, 1)),
                           "game field edges[0][1] is 2, but rewriting what was read gives 1"),
    "duplicated_entry": ("game", lambda d: d["matrices"].__setitem__(1, d["matrices"][0]),
                         "game field edges[1][2] is 1, but rewriting what was read gives 0"),
    "unused_entry": ("game", lambda d: d["matrices"].append([["1", "0"], ["0", "1"]]),
                     "unknown game field 'matrices[6]'"),
    "out_of_first_use_order": ("game", swap_first_uses,
                               "game field edges[0][2] is 1, but rewriting what was read gives 0"),
    "index_out_of_range": ("game", lambda d: d["edges"][5].__setitem__(2, 6), "edges[5][2] is 6, but matrices has 6 entries"),
    "negative_index": ("game", lambda d: d["edges"][5].__setitem__(2, -1),
                       "game field edges[5][2] is -1, but rewriting what was read gives 5"),
    "float_index": ("game", lambda d: d["edges"][2].__setitem__(2, 2.0), "edges[2][2] must be an integer, got 2.0"),
    "bool_index": ("game", lambda d: d["edges"][1].__setitem__(2, True), "edges[1][2] must be an integer, got True"),
    "float_endpoint": ("game", lambda d: d["edges"][3].__setitem__(0, 1.0), "edges[3][0] must be an integer, got 1.0"),
    "not_a_triple": ("game", lambda d: d["edges"].__setitem__(3, [1, 2]), "edges[3] must be an [i, j, k] triple, got [1, 2]"),
    "all_zero_entry": ("game", lambda d: d["matrices"].__setitem__(2, [["0", "0"], ["0", "0"]]),
                       "game field edges[2][1] is 0, but rewriting what was read gives 2"),
    "missing_table": ("game", lambda d: d.pop("matrices"), "game file is missing field 'matrices'"),
    "profile_without_format": ("profile", lambda d: d.pop("format"), "expected format 'nashreduce-profile/1', got None"),
    "profile_with_null_format": ("profile", lambda d: d.update(format=None),
                                 "expected format 'nashreduce-profile/1', got None"),
}


@pytest.mark.parametrize("name", sorted(STRICT_CASES))
def test_a_v2_reader_rejects_what_the_writer_never_writes(name):
    kind, edit, message = STRICT_CASES[name]
    reader = {"game": game_from_dict, "mapping": mapping_from_dict, "profile": profile_from_dict}[kind]
    reader(honest(kind))  # the honest file reads
    data = json.loads(dumps_canonical(honest(kind)))
    edit(data)
    with pytest.raises(ParseError) as err:
        reader(data)
    assert str(err.value) == message


V1_GAME = "expected format 'nashreduce-game/2', got 'nashreduce-game/1'"


def test_a_v1_file_with_a_table_is_unreadable():
    # a version 1 game lists its edges as [i, j, rows]; no reader reads it,
    # with or without a table, and its edges are unreadable under the current tag
    data = game_to_dict(random_polymatrix(3, (2, 2, 2)))
    v1 = dict(data, format="nashreduce-game/1", edges=[[i, j, data["matrices"][k]] for i, j, k in data["edges"]])
    for file in (v1, {k: v for k, v in v1.items() if k != "matrices"}):
        with pytest.raises(ParseError) as err:
            game_from_dict(file)
        assert str(err.value) == V1_GAME
    with pytest.raises(ParseError) as err:
        game_from_dict(dict(v1, format=GAME_FORMAT))
    assert str(err.value) == f"edges[0][2] must be an integer, got {v1['edges'][0][2]!r}"


@pytest.mark.parametrize("states_derived_eps_m", [False, True])
def test_a_v1_mapping_is_rejected_before_its_counts_lay_out_h(states_derived_eps_m):
    # h would hold one int per source strategy: about 110 MB for these counts
    _, mapping, params = linearize(random_normal_form(5, (2, 2)), R(1, 2), "unary")
    data = dict(mapping_to_dict(mapping, params), source_counts=[2_000_000, 2], g=[0, 1], h=[[0, 1], [0, 1]])
    if states_derived_eps_m:
        data["params"]["eps_m"] = rational_str(eps_m_for_counts(data["source_counts"], R(1, 2), "unary"))
    for tag, message in (
        ("nashreduce-mapping/1", "expected format 'nashreduce-mapping/2', got 'nashreduce-mapping/1'"),
        (MAPPING_FORMAT, "unknown mapping field 'g'"),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                mapping_from_dict(dict(data, format=tag))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == message
        assert peak < 2_000_000


# ---------------------------------------------------------------------------
# one rule for every file: accepted only if its writer writes it for the
# value read


V1_DATA = Path(__file__).parent / "data" / "v1"  # the profile the version 1 writers wrote
READERS = {"game": game_from_dict, "mapping": mapping_from_dict, "profile": profile_from_dict}
WRITERS = {"game": game_to_dict, "mapping": lambda read: mapping_to_dict(*read), "profile": profile_to_dict}


def honest_files() -> dict:
    """``{name: (kind, data)}``: a game of every class and encoding, a
    mapping of every stage and a profile, as the writers write them, and the
    profile that the version 1 writers wrote in the same format."""
    source = random_normal_form(5, (2, 2))
    poly, lin_mapping, lin_params = linearize(source, R(1, 2), "unary")
    g2, bi_mapping, bi_params = bimatrixify(random_polymatrix(2, (2, 3)), R(1, 4))
    _, full_mapping, full_params = reduce_full(source, R(1, 2), "unary")
    dense = BimatrixGame.dense([[R(1), R(0)], [R(0), R(1)]], [[R(0), R(1)], [R(1, 2), R(0)]])
    return {
        "normal_form": ("game", game_to_dict(source)),
        "polymatrix": ("game", game_to_dict(random_polymatrix(3, (2, 2, 2)))),
        "linearized": ("game", game_to_dict(poly)),
        "dense": ("game", game_to_dict(dense)),
        "structured": ("game", game_to_dict(g2)),
        "normalized": ("game", game_to_dict(normalize_bimatrix(g2))),
        "linearize_mapping": ("mapping", mapping_to_dict(lin_mapping, lin_params)),
        "bimatrixify_mapping": ("mapping", mapping_to_dict(bi_mapping, bi_params)),
        "full_mapping": ("mapping", mapping_to_dict(full_mapping, full_params)),
        "profile": ("profile", profile_to_dict([(R(1, 3), R(2, 3)), (R(1), R(0), R(0))])),
        "v1/full.profile.json": ("profile", json.loads((V1_DATA / "full.profile.json").read_text())),
    }


HONEST = honest_files()


def rewrite(kind, data):
    """What the writer writes for the value ``data`` reads as."""
    return WRITERS[kind](READERS[kind](data))


def reorder(data):
    """``data`` with the keys of every object in reverse order."""
    if isinstance(data, dict):
        return {key: reorder(data[key]) for key in reversed(data)}
    return [*map(reorder, data)] if isinstance(data, list) else data


@pytest.mark.parametrize("name", sorted(HONEST))
def test_an_honest_file_reads_back_whatever_its_layout(name, tmp_path):
    kind, data = HONEST[name]
    assert dumps_canonical(rewrite(kind, data)) == dumps_canonical(data)
    path = tmp_path / "file.json"
    path.write_text(json.dumps(reorder(data), indent=2) + "\n")
    read = {"game": read_game, "mapping": read_mapping, "profile": read_profile}[kind]
    assert read(path) == READERS[kind](data)


def json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)


# small ints, like the counts and ledger values the files hold
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.floats() | st.text(max_size=4)
    | st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,3})?", fullmatch=True),
    json_containers,
    max_leaves=4,
)


@st.composite
def mutations(draw, data):
    """A copy of ``data`` with one key or leaf replaced by any JSON value,
    deleted, renamed or joined by a new one.  The mutated node is drawn by
    a walk from the root that stops at each level with even odds, so the
    top-level fields are drawn far more often than a uniform draw would."""
    data = copy.deepcopy(data)
    node = data
    while True:
        keys = [*node] if isinstance(node, dict) else [*range(len(node))]
        inner = [key for key in keys if isinstance(node[key], (dict, list)) and node[key]]
        if not inner or draw(st.booleans()):
            break
        node = node[draw(st.sampled_from(inner))]
    action = draw(st.sampled_from(["replace", "delete", "rename", "add"] if keys else ["add"]))
    if action == "add":
        if isinstance(node, dict):
            node[draw(st.text(max_size=4))] = draw(json_values)
        else:
            node.insert(draw(st.integers(0, len(node))), draw(json_values))
        return data
    key = draw(st.sampled_from(keys))
    if action == "replace":
        node[key] = draw(json_values)
    elif action == "delete" or isinstance(node, list):
        del node[key]
    else:
        node[draw(st.text(max_size=4))] = node.pop(key)
    return data


@pytest.mark.parametrize("name", sorted(HONEST))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_mutated_file_is_rejected_or_written_as_it_reads(name, data):
    kind, honest_data = HONEST[name]
    mutated = data.draw(mutations(honest_data))
    try:
        written = rewrite(kind, mutated)
    except ParseError:
        return
    assert dumps_canonical(written) == dumps_canonical(mutated)


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
    with pytest.raises(ParseError) as err:  # an input
        mapping_from_dict(dict(data, params=dict(data["params"], eps_k=text)))
    assert str(err.value) == message
    with pytest.raises(ParseError) as err:  # a derived value
        mapping_from_dict(dict(data, params=dict(data["params"], eps_m=text)))
    assert str(err.value) == f'mapping field params.eps_m is {json.dumps(text)}, but rewriting what was read gives "1/456"'


def test_canonical_rationals_parse_to_fractions():
    strategies = [["3/4", "1/4"], ["-1/3", "4/3"], ["0", "1", "-7"]]
    back = profile_from_dict({"format": PROFILE_FORMAT, "strategies": strategies})
    assert back == [(R(3, 4), R(1, 4)), (R(-1, 3), R(4, 3)), (R(0), R(1), R(-7))]
    assert all(type(x) is Fraction for vec in back for x in vec)


@pytest.mark.parametrize(
    "text, canonical",
    [("1/1", "1"), ("0/7", "0"), ("-0", "0"), ("2/2", "1"), ("-2/6", "-1/3"), ("007/7", "1"), ("01", "1"),
     ("14592000/2", "7296000")],
)
def test_noncanonical_rationals_are_rejected(text, canonical):
    message = f"non-canonical rational {text!r}; its canonical form is {canonical!r}"
    with pytest.raises(ParseError) as err:
        profile_from_dict({"format": PROFILE_FORMAT, "strategies": [["1/2", text]]})
    assert str(err.value) == message
    with pytest.raises(ParseError) as err:
        game_from_dict(mutate(payoffs=[[[text], ["0"]]]))
    assert str(err.value) == message
    with pytest.raises(ParseError) as err:
        game_from_dict(dict(structured_dict(), alpha=text))
    assert str(err.value) == message
    _, mapping, params = linearize(random_normal_form(5, (2, 2)), R(1, 2))
    data = mapping_to_dict(mapping, params)
    with pytest.raises(ParseError) as err:
        mapping_from_dict(dict(data, params=dict(data["params"], eps_k=text)))
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# a body that breaks a builder's rule


def structured_dict() -> dict:
    g2, _, _ = bimatrixify(random_polymatrix(2, (2, 3)), R(1, 4))
    return game_to_dict(g2)


def edge_bodies(data) -> dict:
    """The edges of a game file as ``{(i, j): rows}``."""
    return {(i, j): data["matrices"][k] for i, j, k in data["edges"]}


def tabled(data, bodies) -> dict:
    """``data`` with its edges replaced by ``bodies``, ``{(i, j): rows}``,
    written as the writer writes them: a table in first-use order and sorted
    triples."""
    matrices, edges = [], []
    for (i, j), rows in sorted(bodies.items()):
        if rows not in matrices:
            matrices.append(rows)
        edges.append([i, j, matrices.index(rows)])
    return dict(data, matrices=matrices, edges=edges)


def with_edge(i, j, mat):
    data = structured_dict()
    return tabled(data, {**edge_bodies(data), (i, j): mat})


def with_first_edge_entry(data, text):
    data["matrices"][data["edges"][0][2]][0][0] = text
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
         'game field divisor is "642", but rewriting what was read gives "641"'),
        (lambda: dict(normalized_dict(), divisor=None),
         'game field divisor is null, but rewriting what was read gives "641"'),
        (lambda: dict(structured_dict(), divisor="641"),
         'game field divisor is "641", but rewriting what was read gives null'),
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
    rows = [row for mat in data["matrices"] for row in mat]
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
    row = data["matrices"][0][1]
    row[:] = [row[0], row[0], bad]
    data["matrices"][0][0][0] = row[0]
    with pytest.raises(ParseError) as err:
        game_from_dict(data)
    assert str(err.value) == f"rationals must be strings like '3/4', got {bad!r}"
    strategies = [["1/2", "1/2"], ["1/2", "1/2", bad]]
    with pytest.raises(ParseError) as err:
        profile_from_dict({"format": PROFILE_FORMAT, "strategies": strategies})
    assert str(err.value) == f"rationals must be strings like '3/4', got {bad!r}"
