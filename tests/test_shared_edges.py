"""Shared edge matrices.

A reduction builds its polymatrix game from a few gadget templates, so most
of its edges carry one of a handful of matrices.  A polymatrix game holds
one object per distinct matrix value, however its edges were given, so it
checks, and the writer renders, each distinct matrix once, and the file
reader's table entries map one to one to the game's objects.  These tests
pin that sharing and check that it changes no result: a game built from
per-edge copies, or from entries of other exact types, is equal, holds the
same number of objects, reports the same range and verification result and
writes the same bytes, and every malformed matrix fails as it does on its
own.
"""

import random
from fractions import Fraction

import pytest

from nashreduce import DimensionMismatch, ParameterError, ParseError, R
from nashreduce.fileio import game_from_dict, game_to_dict, read_game, write_game
from nashreduce.gadgets import GadgetCircuit
from nashreduce.model import PolymatrixGame, make_matrix, pure_strategy, random_normal_form
from nashreduce.reductions import bimatrixify, lift_to_polymatrix, linearize


def distinct_objects(game) -> int:
    return len({id(mat) for mat in game.edges.values()})


def distinct_values(game) -> int:
    return len(set(game.edges.values()))


def per_edge_copies(game) -> PolymatrixGame:
    """The same game with every edge given a matrix object of its own."""
    edges = {key: [list(row) for row in mat] for key, mat in game.edges.items()}
    return PolymatrixGame(game.strategy_counts, edges, game.players)


@pytest.fixture(scope="module")
def log_reduction():
    source = random_normal_form(random.Random(3), (2, 2, 2))
    return linearize(source, R(9, 10), "log")


def test_combine_shares_equal_matrices(log_reduction):
    gm, mapping, _ = log_reduction
    for game in (gm, mapping.circuit.combine()):
        assert distinct_objects(game) == distinct_values(game)
        assert distinct_values(game) < len(game.edges) // 10


def test_combine_leaves_the_circuit_holding_only_shared_matrices(log_reduction):
    # the circuit lives as long as its mapping; accumulator lists would too
    _, mapping, _ = log_reduction
    held = mapping.circuit._edges.values()
    assert {type(mat) for mat in held} == {tuple}
    assert len({id(mat) for mat in held}) < len(held) // 10


@pytest.mark.parametrize("stage", ["polymatrix", "bimatrix"])
def test_read_game_shares_equal_matrices(tmp_path, log_reduction, stage):
    gm, _, params = log_reduction
    game = gm if stage == "polymatrix" else bimatrixify(gm, params.eps_m)[0]
    write_game(tmp_path / "g.json", game)
    back = read_game(tmp_path / "g.json")
    assert back == game
    assert distinct_objects(back) == distinct_values(back) == distinct_values(gm)


def test_per_edge_copies_match_the_shared_game(tmp_path, log_reduction):
    gm, mapping, params = log_reduction
    copies = per_edge_copies(gm)
    # the constructor gives the per-edge copies one object per value again
    assert distinct_objects(copies) == distinct_values(copies) == distinct_objects(gm) < len(copies.edges)
    assert copies == gm
    assert copies.payoff_range() == gm.payoff_range()
    planted = [pure_strategy(2, 0)] * 3
    profile = lift_to_polymatrix(planted, mapping)
    skewed = [profile[0][::-1], *profile[1:]]
    for prof in (profile, skewed):
        assert copies.verify_wsne(prof, params.eps_m) == gm.verify_wsne(prof, params.eps_m)
    assert not gm.verify_wsne(skewed, R(0)).ok
    for name, shared, own in (
        ("poly", gm, copies),
        ("bi", bimatrixify(gm, params.eps_m)[0], bimatrixify(copies, params.eps_m)[0]),
    ):
        write_game(tmp_path / f"{name}-shared.json", shared)
        write_game(tmp_path / f"{name}-own.json", own)
        assert (tmp_path / f"{name}-shared.json").read_bytes() == (tmp_path / f"{name}-own.json").read_bytes()


def test_equal_matrices_of_other_entry_types_share_one_object(tmp_path):
    ints = [[1, 0], [0, -1]]
    fractions = [[R(1), R(0)], [R(0), R(-1)]]
    half = [[R(1, 2), 0], [0, 1]]
    mixed = PolymatrixGame(
        (2, 2, 2), {(0, 1): ints, (0, 2): half, (1, 2): fractions, (2, 0): [list(row) for row in half]}
    )
    assert distinct_objects(mixed) == distinct_values(mixed) == 2
    assert mixed.edges[(0, 1)] is mixed.edges[(1, 2)]
    assert mixed.edges[(0, 2)] is mixed.edges[(2, 0)]
    assert [type(x) for row in mixed.edges[(1, 2)] for x in row] == [int] * 4  # the first edge's copy
    # the same values, Fraction entries first, and half given as one object
    exact = PolymatrixGame((2, 2, 2), {(0, 1): fractions, (0, 2): half, (1, 2): ints, (2, 0): half})
    assert [type(x) for row in exact.edges[(1, 2)] for x in row] == [Fraction] * 4
    assert exact == mixed
    assert exact.payoff_range() == mixed.payoff_range() == (-1, 1)
    write_game(tmp_path / "mixed.json", mixed)
    write_game(tmp_path / "exact.json", exact)
    assert (tmp_path / "mixed.json").read_bytes() == (tmp_path / "exact.json").read_bytes()
    assert game_to_dict(mixed)["edges"] == [[0, 1, 0], [0, 2, 1], [1, 2, 0], [2, 0, 1]]


def test_game_to_dict_rows_are_not_shared(log_reduction):
    gm, _, _ = log_reduction
    data = game_to_dict(gm)
    # the table holds each distinct matrix once, in lists of its own
    assert len(data["matrices"]) == distinct_values(gm)
    rows = [row for mat in data["matrices"] for row in mat]
    assert len({id(row) for row in rows}) == len(rows)
    assert len({id(mat) for mat in data["matrices"]}) == len(data["matrices"])
    assert len({id(edge) for edge in data["edges"]}) == len(data["edges"]) == len(gm.edges)


# ---------------------------------------------------------------------------
# a bad matrix fails as it does when every edge has its own copy

I2 = [[1, 0], [0, 1]]


def raised(build) -> tuple[type, str]:
    with pytest.raises((ParameterError, DimensionMismatch)) as err:
        build()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("inexact_first", [False, True])
def test_combine_rejects_a_float_next_to_an_equal_exact_matrix(inexact_first):
    c = GadgetCircuit()
    a, b, d = c.add_player(), c.add_player(), c.add_player()
    matrices = [I2, [[1.0, 0], [0, 1]]]
    if inexact_first:
        matrices.reverse()
    c.add_edge_matrix(a, b, matrices[0])
    c.add_edge_matrix(b, d, matrices[1])
    with pytest.raises(ParameterError, match="not an exact rational"):
        c.combine()


def test_combine_keeps_apart_matrices_with_equal_entries_in_other_shapes():
    c = GadgetCircuit()
    two, three = c.add_player(2), c.add_player(3)
    wide, tall = [[1, 0, 1], [0, 1, 0]], [[1, 0], [1, 0], [1, 0]]
    c.add_edge_matrix(two, three, wide)
    c.add_edge_matrix(three, two, tall)
    game = c.combine()
    assert game.edges == {(two, three): make_matrix(wide), (three, two): make_matrix(tall)}


@pytest.mark.parametrize(
    "counts, matrix, message",
    [
        ((2, 2, 2), [[1.0, 0], [0, 1]], "edge (0, 1) matrix has an entry that is not an exact rational"),
        ((2, 2, 2), [[3, 0], [0, 1]], "edge (0, 1) entry 3 outside [-1, 2]"),
        ((2, 2, 3), I2, "edge (1, 2) matrix must be 2x3"),
        ((2, 2, 2), [[1, 0], [0]], "matrix rows have unequal lengths"),
    ],
    ids=["float", "out_of_range", "second_edge_shape", "ragged"],
)
def test_a_shared_bad_matrix_fails_as_per_edge_copies_do(counts, matrix, message):
    shared = {(0, 1): matrix, (1, 2): matrix}
    own = {(0, 1): matrix, (1, 2): [list(row) for row in matrix]}
    got = raised(lambda: PolymatrixGame(counts, shared))
    assert got == raised(lambda: PolymatrixGame(counts, own))
    assert got[1] == message


def test_edge_checks_keep_their_order_with_a_shared_matrix():
    # the self-edge comes first, before the shared matrix's own fault
    bad = [[3, 0], [0, 1]]
    with pytest.raises(ParameterError, match="self-edge"):
        PolymatrixGame((2, 2), {(1, 1): bad, (0, 1): bad})
    with pytest.raises(ParameterError, match=r"edge \(1, 0\) entry 3"):
        PolymatrixGame((2, 2), {(1, 0): bad, (0, 1): bad})


# ---------------------------------------------------------------------------
# malformed edge bodies in a file: inline in an edge, or in its matrices table

VALID = {
    "2x2": [["1", "0"], ["0", "1"]],
    "2x1": [["1"], ["0"]],
}

# each body is read beside the valid body whose rows it resembles
MALFORMED = [
    ("string", "10", "2x1", "expected a non-empty matrix"),
    ("string_rows", ["10", "01"], "2x2", "expected a list of rationals"),
    ("empty", [], "2x2", "expected a non-empty matrix"),
    ("ragged", [["1", "0"], ["0"]], "2x2", "game body contradicts its header: matrix rows have unequal lengths"),
    ("int_entry", [[1, "0"], ["0", "1"]], "2x2", "rationals must be strings like '3/4', got 1"),
    ("list_entry", [[["1"], "0"], ["0", "1"]], "2x2", "rationals must be strings like '3/4', got ['1']"),
]


@pytest.mark.parametrize("malformed_first", [False, True])
@pytest.mark.parametrize("body, valid", [case[1:3] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
def test_a_malformed_edge_body_fails_before_or_after_a_valid_one(body, valid, malformed_first):
    # a body inline in an edge, where version 1 edge lists held it, is read as
    # the edge's table index: refused by its own edge, before or after an edge
    # into a table entry, and before any body or shape is checked
    at = 0 if malformed_first else 1
    edges = [[0, 2, 0], [1, 2, 0]]
    edges[at][2] = body
    data = game_to_dict(PolymatrixGame((2, 2, 2), {(0, 1): I2}))
    data.update(matrices=[VALID[valid]], edges=edges)
    with pytest.raises(ParseError) as err:
        game_from_dict(data)
    assert str(err.value) == f"edges[{at}][2] must be an integer, got {body!r}"


@pytest.mark.parametrize("malformed_first", [False, True])
@pytest.mark.parametrize(
    "body, valid, message", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_a_malformed_table_entry_fails_before_or_after_a_valid_one(body, valid, message, malformed_first):
    # every table entry is parsed before any edge is checked
    bodies = [body, VALID[valid]] if malformed_first else [VALID[valid], body]
    data = game_to_dict(PolymatrixGame((2, 2, 2), {(0, 1): I2}))
    data.update(matrices=bodies, edges=[[0, 2, 0], [1, 2, 1]])
    with pytest.raises(ParseError) as err:
        game_from_dict(data)
    assert str(err.value) == message
