"""Gadgets built from shared templates, and the lift that reads them.

A primitive's read of a tap is one frozen matrix per circuit, shared by
every gadget that reads a tap of that shape; a second write to an edge adds
into a copy.  ``GadgetCircuit.lift`` shares the pure and indifferent binary
strategies it assigns and evaluates stamped multipliers from their
recording.  The oracles are matrices accumulated by hand and
``spec_walk_lift``, the plain Fraction walk of the circuit's spec trees,
compared with ``lift`` on values and entry types.
"""

import itertools
import random

import pytest

from lift_oracles import MIXED_PLANTS, planted_mixed_source, planted_pure_source, spec_walk_lift
from nashreduce import R
from nashreduce.gadgets import GadgetCircuit, Tap
from nashreduce.model import _scaled_profile, pure_strategy, random_normal_form
from nashreduce.multipliers import build_robust_multiplier, build_unary_multiplier
from nashreduce.reductions import linearize


def typed(rows) -> list:
    """Rows of a matrix or profile with the type of every entry."""
    return [[(type(x), x) for x in row] for row in rows]


def assert_lifts_agree(circuit, inputs):
    """``lift`` against the spec walk: values, entry types, and the ints
    the walk's tuples scale to."""
    got = circuit.lift(inputs)
    want = spec_walk_lift(circuit, inputs)
    assert typed(got) == typed(want)
    assert got.offsets == tuple(itertools.accumulate(circuit.strategy_counts, initial=0))
    scales, units = _scaled_profile(want, got.offsets)
    assert (list(got.scales), list(got.units)) == (list(scales), list(units))
    return got


# ---------------------------------------------------------------------------
# template edges


def test_a_unary_build_holds_one_object_per_distinct_matrix():
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    build_unary_multiplier(c, a, b, R(1, 10))
    held = list(c._edges.values())
    assert {type(mat) for mat in held} == {tuple}
    assert len({id(mat) for mat in held}) == len(set(held)) < len(held) // 5


def test_adding_onto_a_template_edge_changes_no_other_edge():
    c = GadgetCircuit()
    a = c.add_input()
    p, q, r = (c.build_threshold(a, R(1, 3)).player for _ in range(3))
    template = c._edges[(p, a.player)]
    assert c._edges[(q, a.player)] is c._edges[(r, a.player)] is template
    c.add_edge_matrix(q, a.player, [[R(1, 6), 0], [0, R(-1, 2)]])
    assert template == ((R(1, 3), R(1, 3)), (0, 1))
    edges = c.combine().edges
    assert edges[(p, a.player)] is edges[(r, a.player)]
    assert typed(edges[(p, a.player)]) == typed(((R(1, 3), R(1, 3)), (0, 1)))
    assert typed(edges[(q, a.player)]) == typed(((R(1, 2), R(1, 3)), (0, R(1, 2))))


def test_and_of_one_tap_twice_adds_both_reads():
    c = GadgetCircuit()
    a = c.add_input()
    p = c.build_and(a, a)
    # two reads of ((3/8, 0), (3/8, 1/2)) summed from int zeros
    assert typed(c.combine().edges[(p.player, a.player)]) == typed(((R(3, 4), R(3, 4)), (0, R(1))))


def test_scaled_sum_of_one_tap_twice_adds_both_reads():
    c = GadgetCircuit()
    a = c.add_input()
    c.build_scaled_sum([a, a], R(1, 4))
    (spec,) = c.specs
    (w,) = spec.aux
    assert typed(c.combine().edges[(w, a.player)]) == typed(((0, 0), (0, R(1, 2))))


def test_an_out_player_keeps_its_earlier_edges():
    c = GadgetCircuit()
    a = c.add_input(n=3)
    out = c.add_player()
    c.add_edge_matrix(out, a.player, [[R(1, 8), 0, 0], [0, R(1, 2), 0]])
    c.build_threshold(Tap(a.player, 2), R(1, 3), out=Tap(out, 1))
    other = c.build_threshold(Tap(a.player, 2), R(1, 3))
    edges = c.combine().edges
    assert typed(edges[(out, a.player)]) == typed(
        ((R(11, 24), R(1, 3), R(1, 3)), (0, R(1, 2), 1))
    )
    assert typed(edges[(other.player, a.player)]) == typed(((R(1, 3), R(1, 3), R(1, 3)), (0, 0, 1)))


def test_equal_templates_of_other_entry_types_stay_apart():
    # 1 == R(1): a shared template must keep the types a sum cell by cell gives
    c = GadgetCircuit()
    a = c.add_input()
    out = c.add_player()
    c.add_edge_matrix(out, a.player, [[0, 0], [0, -1]])
    c.build_threshold(a, 1)
    c.build_threshold(a, R(1), out=Tap(out, 1))
    assert typed(c.combine().edges[(out, a.player)]) == typed(((R(1), R(1)), (0, 0)))


# ---------------------------------------------------------------------------
# lift against the spec walk


MULTIPLIERS = [(build_unary_multiplier, R(1, 10)), (build_robust_multiplier, R(1, 1000))]
VALUES = [
    (R(1, 3), R(37, 97)),
    (R(37, 97), R(1, 3)),
    (R(0), R(1)),  # fresh Fractions, not the ones lift shares
    (R(1), R(1)),
    (0, 1),
    (1, R(37, 97)),
    (0, 0),
    # seeded values over denominators from 1 to 2^20 + 7
    *[
        tuple(R(rng.randint(0, d), d) for d in rng.sample((1, 2, 3, 7, 10, 97, 1000, 2**20 + 7), 2))
        for rng in [random.Random(5)]
        for _ in range(6)
    ],
]


@pytest.mark.parametrize("v1, v2", VALUES)
@pytest.mark.parametrize("build, eps", MULTIPLIERS)
def test_multiplier_lifts_match_the_spec_walk(build, eps, v1, v2):
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    build(c, a, b, eps)
    assert_lifts_agree(c, {a.player: v1, b.player: v2})


@pytest.mark.parametrize("vec", [(R(1, 2), R(1, 3), R(1, 6)), (0, 0, 1), (R(0), R(1), R(0))])
@pytest.mark.parametrize("build, eps", MULTIPLIERS)
def test_three_strategy_inputs_match_the_spec_walk(build, eps, vec):
    c = GadgetCircuit()
    a, b = c.add_input(n=3), c.add_input()
    build(c, Tap(a.player, 2), b, eps)
    build(c, b, Tap(a.player, 0), eps)
    assert_lifts_agree(c, {a.player: vec, b.player: R(37, 97)})


@pytest.fixture(scope="module", params=[(2, 2, 2), (3, 2, 2)])
def log_reduction(request):
    source = random_normal_form(random.Random(11), request.param)
    gm, mapping, _ = linearize(source, R(9, 10), "log")
    return request.param, mapping.circuit


MIXED = {2: (R(1, 3), R(2, 3)), 3: (R(1, 2), R(1, 3), R(1, 6))}


@pytest.mark.parametrize("profile", ["pure", "mixed"])
def test_linearized_lifts_match_the_spec_walk(log_reduction, profile):
    shape, circuit = log_reduction
    inputs = {
        i: pure_strategy(n, n - 1) if profile == "pure" else MIXED[n] for i, n in enumerate(shape)
    }
    got = assert_lifts_agree(circuit, inputs)
    assert circuit.combine().verify_wsne(got, R(0), clamped=set(inputs)).ok


@pytest.mark.parametrize("source", ["pure-222", "pure-322", "pure-333", "mixed-3", "mixed-5"])
def test_planted_lifts_match_the_spec_walk(source):
    kind, arg = source.split("-")
    if kind == "pure":
        game, profile = planted_pure_source(7, tuple(map(int, arg)))
    else:
        profile = MIXED_PLANTS[int(arg)]
        game = planted_mixed_source(profile, int(arg))
    gm, mapping, params = linearize(game, R(9, 10), "log")
    got = assert_lifts_agree(mapping.circuit, dict(enumerate(profile)))
    assert all(got[i] is profile[i] for i in range(3))  # the caller's tuples, kept
    assert gm.verify_wsne(got, params.eps_m, clamped=range(3)).ok
