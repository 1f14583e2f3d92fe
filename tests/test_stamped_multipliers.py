"""Stamped multipliers.

A circuit builds its first multiplier per construction, eps and scope
through the ordinary builder, records that build when a second one asks
for it, and stamps every later one from the recording.  A log multiplier
is stamped in two parts: its first input's digits, which a circuit holds
once per first input tap, eps and scope, and the product built from them.
The oracle is the same call sequence with ``GadgetCircuit._build_repeated``
replaced by :func:`stamp_oracles.always_build`, which always builds (a log
multiplier still shares digits through the circuit's table): both circuits
must have the same players, specs, edges, lifted profiles and written
files, and fail with the same errors.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from nashreduce import CycleDetected, DuplicateOutput, ParameterError, R, SizeBudgetExceeded
from nashreduce import multipliers
from nashreduce.gadgets import GadgetCircuit, Tap
from nashreduce.model import pure_strategy, random_normal_form
from nashreduce.multipliers import build_multiplication_chain, predicted_player_count
from nashreduce.reductions import estimate_linearized_players, lift_to_polymatrix, linearize
from stamp_oracles import always_build, assert_same

EPS = {"unary": R(1, 4), "log": R(1, 1000)}

def run_both(monkeypatch, script):
    """Run ``script()`` stamping and then with every repeated gadget built
    (chains included).  Returns both results, how many multipliers (a unary
    one, or a log one's product) the stamped run built and the other run
    built, and the same pair for log digit sets."""
    runs = []
    for repeat in (GadgetCircuit._build_repeated, always_build):
        calls = Counter()

        def counted(self, key, build, inputs, out, repeat=repeat, calls=calls):
            return repeat(self, key, lambda *args: calls.update([key[0]]) or build(*args), inputs, out)

        with monkeypatch.context() as m:
            m.setattr(GadgetCircuit, "_build_repeated", counted)
            result = script()
        runs.append((result, calls["unary"] + calls["robust_product"], calls["robust_digits"]))
    (stamped, built, digits_built), (direct, calls, digits) = runs
    return stamped, direct, built, calls, (digits_built, digits)


@pytest.mark.parametrize("construction", ["unary", "log"])
def test_repeated_multipliers_match_direct_builds(monkeypatch, tmp_path, construction):
    eps = EPS[construction]

    def script():
        c = GadgetCircuit()
        a, b, d, e = (c.add_input() for _ in range(4))
        multipliers.build_multiplier(c, a, b, eps, construction)
        multipliers.build_multiplier(c, d, e, eps, construction)
        multipliers.build_multiplier(c, b, a, eps, construction)
        return c

    stamped, direct, built, calls, digits = run_both(monkeypatch, script)
    assert (built, calls) == (1, 3)
    # three first inputs: one digits recording, stamped twice
    assert digits == ((1, 3) if construction == "log" else (0, 0))
    assert_same(stamped, direct, tmp_path)


@pytest.mark.parametrize("construction", ["unary", "log"])
def test_wide_inputs_tapped_at_every_strategy(monkeypatch, tmp_path, construction):
    eps = EPS[construction]

    def script():
        c = GadgetCircuit()
        wide, other = c.add_input(n=3), c.add_input(n=3)
        binary = c.add_input()
        for s in (0, 1, 2):
            multipliers.build_multiplier(c, Tap(wide.player, s), binary, eps, construction)
            multipliers.build_multiplier(c, binary, Tap(other.player, 2 - s), eps, construction)
        multipliers.build_multiplier(c, Tap(wide.player, 1), Tap(other.player, 0), eps, construction)
        return c

    stamped, direct, built, calls, digits = run_both(monkeypatch, script)
    assert (built, calls) == (1, 7)
    # first inputs wide at 0, 1 and 2, and binary
    assert digits == ((1, 4) if construction == "log" else (0, 0))
    assert_same(stamped, direct, tmp_path)


@pytest.mark.parametrize("construction", ["unary", "log"])
def test_chains_of_four_factors_with_and_without_out(monkeypatch, tmp_path, construction):
    # every link after the first reads the previous link's product
    eps = EPS[construction]

    def script():
        c = GadgetCircuit()
        a, b, d, e = c.add_input(n=3), c.add_input(), c.add_input(n=4), c.add_input()
        for s in range(3):
            mediator = Tap(c.add_player(), 1)
            factors = [Tap(a.player, s), b, Tap(d.player, 3 - s), e]
            build_multiplication_chain(c, factors, eps, construction, out=mediator)
        build_multiplication_chain(c, [b, Tap(d.player, 0), e, Tap(a.player, 1)], eps, construction)
        return c

    stamped, direct, built, calls, digits = run_both(monkeypatch, script)
    assert (built, calls) == (2, 12)  # one recording with out given, one without
    # a chain's first link shares the digits of a at 0, 1, 2 or of b; each
    # later link reads a new product
    assert digits == ((1, 4 + 4 * 2) if construction == "log" else (0, 0))
    assert_same(stamped, direct, tmp_path)


def test_nested_scopes_keep_their_own_recordings(monkeypatch, tmp_path):
    eps = EPS["log"]

    def script():
        c = GadgetCircuit()
        a, b = c.add_input(), c.add_input()
        multipliers.build_multiplier(c, a, b, eps, "log")
        for outer in ("left", "right", "left"):
            with c._composite(outer, (a, b)):
                build_multiplication_chain(c, [a, b], eps, "log")
                multipliers.build_multiplier(c, b, a, eps, "log", out=Tap(c.add_player(), 1))
        return c

    stamped, direct, built, calls, digits = run_both(monkeypatch, script)
    # the top level, the left and right chains, left and right with out given
    assert (built, calls) == (5, 7)
    # the same five scopes; the second left reads the first left's digits
    assert digits == (5, 5)
    assert_same(stamped, direct, tmp_path)
    scopes = {info.scope.split("/")[0] for info in stamped.combine().players}
    assert {"left", "right", "robust_mult"} <= scopes


def test_two_inputs_on_one_player_are_built_directly(monkeypatch, tmp_path):
    eps = EPS["log"]

    def script():
        c = GadgetCircuit()
        wide, b = c.add_input(n=3), c.add_input()
        multipliers.build_multiplier(c, Tap(wide.player, 0), Tap(wide.player, 2), eps, "log")
        multipliers.build_multiplier(c, wide, b, eps, "log")
        multipliers.build_multiplier(c, Tap(wide.player, 2), Tap(wide.player, 1), eps, "log")
        multipliers.build_multiplier(c, b, b, eps, "log")
        multipliers.build_multiplier(c, b, Tap(wide.player, 0), eps, "log")
        return c

    stamped, direct, built, calls, digits = run_both(monkeypatch, script)
    # the product of inputs on one player is built; its digits read only
    # in1, so they are stamped and shared as any other's
    assert (built, calls) == (4, 5)
    assert digits == (1, 4)  # wide at 0, 1 and 2, and b
    assert_same(stamped, direct, tmp_path)


class Exact(Fraction):
    """Fraction's values under another exact type."""


def test_each_sharing_key_builds_its_own_digits(monkeypatch, tmp_path):
    eps = EPS["log"]

    def script():
        c = GadgetCircuit()
        wide, b = c.add_input(n=3), c.add_input()
        first = Tap(wide.player, 0)
        # another strategy of in1's player, another eps, an equal eps of
        # another type: each builds its own digits
        for in1, e in ((first, eps), (Tap(wide.player, 1), eps), (first, R(1, 10**4)), (first, Exact(eps))):
            multipliers.build_multiplier(c, in1, b, e, "log")
        with c._composite("outer", (wide, b)):  # another scope
            multipliers.build_multiplier(c, first, b, eps, "log")
        multipliers.build_multiplier(c, first, Tap(wide.player, 2), eps, "log", out=Tap(c.add_player(), 1))
        return c

    stamped, direct, built, calls, digits = run_both(monkeypatch, script)
    # stamped: one recording of each part per eps, type and scope (the
    # product's also per whether out is given); the second and the last
    # multiplier read the first's digits
    assert (built, calls) == (5, 6)
    assert digits == (4, 5)
    assert_same(stamped, direct, tmp_path)
    mults = stamped.specs
    assert [len(m.internal) for m in mults] == [2, 2, 2, 2, 1, 1]
    assert mults[5].internal[0].inputs[2:] == mults[0].internal[0].outputs
    # eps: three sets of digits and four products; the out player stands in
    # for the last product's output
    size = predicted_player_count
    others = sum(size(part, e) for e in (R(1, 10**4), Exact(eps)) for part in ("log_digits", "log_product"))
    assert stamped.num_players == 2 + 3 * size("log_digits", eps) + 4 * size("log_product", eps) + others


def test_an_out_player_with_earlier_edges(monkeypatch, tmp_path):
    eps = EPS["log"]

    def script():
        c = GadgetCircuit()
        a, b = c.add_input(), c.add_input(n=3)
        for q in range(3):
            mediator = c.add_player()
            c.add_edge_matrix(mediator, a.player, [[R(q, 4), 0], [0, R(1, 2)]])
            c.add_edge_matrix(a.player, mediator, [[1, 0], [0, 1]])
            multipliers.build_multiplier(c, a, Tap(b.player, q), eps, "log", out=Tap(mediator, 1))
        return c

    stamped, direct, built, calls, digits = run_both(monkeypatch, script)
    assert (built, calls) == (1, 3)
    assert digits == (1, 1)
    assert_same(stamped, direct, tmp_path)


def test_adding_to_a_stamped_edge_changes_no_other_edge(monkeypatch, tmp_path):
    # a multiplier's output P is made just before its aux player W, and
    # the edge (P, W) is the identity in every copy
    eps = EPS["log"]
    added = [[R(1, 8), 0], [0, R(-1, 8)]]

    def script():
        c = GadgetCircuit()
        a, b = c.add_input(), c.add_input()
        first, middle, last = (multipliers.build_multiplier(c, a, b, eps, "log").player for _ in range(3))
        c.add_edge_matrix(last, last + 1, added)
        c.combine()  # stores each accumulator back frozen, so adding must copy it
        c.add_edge_matrix(first, first + 1, added)
        return c, (first, middle, last)

    (stamped, players), (direct, _), _, _, digits = run_both(monkeypatch, script)
    assert digits == (1, 1)
    assert_same(stamped, direct, tmp_path)
    edges = stamped.combine().edges
    first, middle, last = ((p, p + 1) for p in players)
    assert edges[middle] == ((1, 0), (0, 1))
    assert edges[first] == edges[last] == ((R(9, 8), 0), (0, R(7, 8)))


def test_a_repeated_gadget_adds_onto_edges_that_exist(tmp_path):
    # a compare gadget given out= reads its inputs from out itself, so its
    # edges join players that exist before it, and may already carry payoffs
    def script(repeat):
        c = GadgetCircuit()
        a, b = c.add_input(n=3), c.add_input()
        for q in range(3):
            out = Tap(c.add_player(), 1)
            c.add_edge_matrix(out.player, a.player, [[R(q, 8), 0, 0], [0, 0, R(1, 4)]])
            inputs = (Tap(a.player, q), b)
            if repeat:
                c._build_repeated(("compare",), lambda taps, o: (c.build_compare(*taps, out=o),), inputs, out)
            else:
                c.build_compare(*inputs, out=out)
        return c

    assert_same(script(True), script(False), tmp_path)


def doubled(c, taps, out):
    """A composite whose scaled_sum reads twice a copy it made."""
    with c._composite("doubled", taps, out) as outputs:
        x = c.build_copy(taps[0])
        outputs.append(c.build_scaled_sum([x, x, taps[1]], R(1, 3), out=out))
    return tuple(outputs)


def test_a_copy_is_stamped_from_the_first_build_as_it_was_built(monkeypatch, tmp_path):
    # the first build holds an accumulator list edge (the scaled_sum's aux
    # reading x twice); adding onto it and onto a template edge before the
    # second copy must not reach that copy or the ones after it
    added = [[R(1, 8), 0], [0, R(-1, 8)]]

    def script():
        c = GadgetCircuit()
        a, b, d = (c.add_input() for _ in range(3))
        built = []

        def repeat(taps):
            return c._build_repeated(("doubled",), lambda t, o: built.append(t) or doubled(c, t, o), taps, None)

        w = repeat((a, b))[0].player + 1  # the scaled_sum's aux
        accumulators = [edge for edge, mat in c._edges.items() if type(mat) is list]
        assert accumulators == [(w, w - 3)]  # x is the copy's output, before its aux
        assert type(c._edges[w, b.player]) is tuple
        c.add_edge_matrix(*accumulators[0], added)
        c.add_edge_matrix(w, b.player, added)
        repeat((b, d))
        repeat((d, a))
        return c, len(built)

    (stamped, built), (direct, calls), *_ = run_both(monkeypatch, script)
    assert (built, calls) == (1, 3)
    assert_same(stamped, direct, tmp_path)


@pytest.mark.parametrize("construction, recordings", [("unary", 1), ("log", 2)])
def test_a_gadget_is_recorded_only_when_it_repeats(construction, recordings):
    eps = EPS[construction]
    builder = getattr(multipliers, {"unary": "build_unary_multiplier", "log": "build_robust_multiplier"}[construction])
    c = GadgetCircuit()
    a, b, d, e = (c.add_input() for _ in range(4))
    builder(c, a, b, eps)
    assert c._recordings == {}
    builder(c, d, e, eps)
    # a log multiplier records its digits and its product
    assert len(c._recordings) == recordings


def test_a_stamp_resolves_no_tap_again(monkeypatch):
    # a stamp's taps were resolved by its caller or made by the circuit
    counted = Counter()
    resolve = GadgetCircuit._resolve_taps

    def counting(self, taps):
        taps = resolve(self, taps)
        counted.update(calls=1, taps=len(taps))
        return taps

    monkeypatch.setattr(GadgetCircuit, "_resolve_taps", counting)
    linearize(random_normal_form(random.Random(7), (3, 2, 2)), R(9, 10), "log")
    assert (counted["calls"], counted["taps"]) == (211, 374)


@pytest.mark.parametrize("shape", [(2, 3, 2), (2, 2, 2, 2)])
def test_linearize_matches_direct_builds(monkeypatch, tmp_path, shape):
    source = random_normal_form(random.Random(7), shape)
    runs = run_both(monkeypatch, lambda: linearize(source, R(9, 10), "log"))
    (gm, mapping, params), (gm_direct, mapping_direct, _), built, calls, digits = runs
    # one recording with out given; a 4-player source's chains add one without
    assert built == len(shape) - 2
    mediators = sum(math.prod(source.opponent_counts(i)) for i in range(len(shape)))
    assert calls == (len(shape) - 2) * mediators
    # one digits recording; built once per strategy of players 0 and 1 (the
    # chains' first inputs) and once per later link
    assert digits == (1, sum(shape[:2]) + (len(shape) - 3) * mediators)
    assert gm.m == estimate_linearized_players(source, params.eps_m, "log")
    assert gm == gm_direct
    assert_same(mapping.circuit, mapping_direct.circuit, tmp_path)
    profile = [pure_strategy(n, n - 1) for n in shape]
    assert lift_to_polymatrix(profile, mapping) == lift_to_polymatrix(profile, mapping_direct)


# ---------------------------------------------------------------------------
# budgets and errors: a stamped copy fails as a direct build does


def failure(monkeypatch, script):
    """The (class, message) each run of ``script`` raises, stamped first."""
    got = []
    for stamping in (True, False):
        with monkeypatch.context() as m:
            if not stamping:
                m.setattr(GadgetCircuit, "_build_repeated", always_build)
            with pytest.raises((ParameterError, SizeBudgetExceeded, CycleDetected, DuplicateOutput)) as err:
                script()
        got.append((type(err.value), str(err.value)))
    assert got[0] == got[1]
    return got[0]


@pytest.mark.parametrize("construction", ["unary", "log"])
def test_a_budget_that_runs_out_inside_a_stamped_copy(monkeypatch, construction):
    eps = EPS[construction]
    # a and b are different first inputs, so the two share no digits
    budget = 2 + 2 * predicted_player_count(construction, eps) - 1

    def script():
        c = GadgetCircuit(player_budget=budget)
        a, b = c.add_input(), c.add_input()
        multipliers.build_multiplier(c, a, b, eps, construction)
        multipliers.build_multiplier(c, b, a, eps, construction)

    assert failure(monkeypatch, script) == (SizeBudgetExceeded, f"player budget of {budget} players exhausted")


@pytest.mark.parametrize(
    "parts",
    [
        ("log", "log_digits"),  # inside (b, a)'s stamped digits
        ("log", "log", "log_product"),  # inside the second (a, b), which reads a's digits
    ],
)
def test_a_budget_that_runs_out_inside_a_stamped_part(monkeypatch, parts):
    eps = EPS["log"]
    budget = 2 + sum(predicted_player_count(part, eps) for part in parts) - 1

    def script():
        c = GadgetCircuit(player_budget=budget)
        a, b = c.add_input(), c.add_input()
        for in1, in2 in ((a, b), (b, a), (a, b)):
            multipliers.build_multiplier(c, in1, in2, eps, "log")

    assert failure(monkeypatch, script) == (SizeBudgetExceeded, f"player budget of {budget} players exhausted")


def test_a_budget_that_fits_exactly(monkeypatch, tmp_path):
    eps = EPS["log"]
    # three multipliers on (a, b) build a's digits once
    budget = 2 + predicted_player_count("log_digits", eps) + 3 * predicted_player_count("log_product", eps)

    def script():
        c = GadgetCircuit(player_budget=budget)
        a, b = c.add_input(), c.add_input()
        for _ in range(3):
            multipliers.build_multiplier(c, a, b, eps, "log")
        return c

    stamped, direct, _, _, digits = run_both(monkeypatch, script)
    assert digits == (1, 1)
    assert stamped.num_players == budget
    assert_same(stamped, direct, tmp_path)


@pytest.mark.parametrize(
    "bad_out, cls", [("driven", DuplicateOutput), ("input", ParameterError), ("wide", ParameterError)]
)
def test_a_bad_out_fails_as_before(monkeypatch, bad_out, cls):
    eps = EPS["log"]

    def script():
        c = GadgetCircuit()
        a, b = c.add_input(), c.add_input()
        wide = c.add_player(3)
        multipliers.build_multiplier(c, a, b, eps, "log", out=Tap(c.add_player(), 1))
        out = {
            "driven": multipliers.build_multiplier(c, a, b, eps, "log"),
            "input": a,
            "wide": Tap(wide, 1),
        }[bad_out]
        multipliers.build_multiplier(c, b, a, eps, "log", out=out)

    assert failure(monkeypatch, script)[0] is cls


@pytest.mark.parametrize("which", [0, 1])
def test_a_cyclic_tap_fails_as_before(monkeypatch, which):
    eps = EPS["log"]

    def script():
        c = GadgetCircuit()
        a, b = c.add_input(), c.add_input()
        multipliers.build_multiplier(c, a, b, eps, "log")
        pending = Tap(c.add_player(), 1)
        multipliers.build_multiplier(c, *((pending, b) if which == 0 else (a, pending)), eps, "log")

    cls, message = failure(monkeypatch, script)
    assert cls is CycleDetected
    assert "carries no value yet" in message


def test_a_bad_tap_strategy_fails_as_before(monkeypatch):
    eps = EPS["unary"]

    def script():
        c = GadgetCircuit()
        a, b = c.add_input(), c.add_input()
        multipliers.build_multiplier(c, a, b, eps)
        multipliers.build_multiplier(c, Tap(a.player, 2), b, eps)

    assert failure(monkeypatch, script) == (ParameterError, "tap strategy 2 outside player 0's range")
