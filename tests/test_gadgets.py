"""Gadget library tests.

Two layers of oracle here:

* the exact payoff matrices each primitive must emit (frozen below);
* the semantic value each gadget must compute, checked by lifting exact
  input values to a profile and verifying it is an *exact* (eps = 0)
  well-supported equilibrium of the combined game with inputs clamped.
"""

import itertools
import os
import subprocess
import sys

import nashreduce
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashreduce import (
    CycleDetected,
    DuplicateOutput,
    ParameterError,
    R,
    Role,
    SizeBudgetExceeded,
)
from nashreduce.gadgets import GADGET_INFO, GADGET_KINDS, GadgetCircuit, Tap, spec_player_count
from nashreduce.multipliers import (
    build_brittle_multiplier,
    build_multiplication_chain,
    build_multiplier,
    build_robust_multiplier,
    build_unary_multiplier,
)

I2 = ((R(1), R(0)), (R(0), R(1)))


def rationals_01(denominator=24):
    return st.integers(0, denominator).map(lambda n: R(n, denominator))


def lift_and_check(circuit, values, taps):
    """Lift exact inputs, insist the result is an exact equilibrium, and
    return the values carried by ``taps``."""
    profile = circuit.lift(values)
    game = circuit.combine()
    clamped = set(values)
    result = game.verify_wsne(profile, R(0), clamped=clamped)
    assert result.ok, result.violations
    return [profile[t.player][t.strategy] for t in taps]


# ---------------------------------------------------------------------------
# frozen payoff matrices


def test_threshold_matrix():
    c = GadgetCircuit()
    a = c.add_input()
    p = c.build_threshold(a, R(1, 4))
    g = c.combine()
    assert g.edges == {
        (p.player, a.player): ((R(1, 4), R(1, 4)), (R(0), R(1))),
    }


def test_and_matrix():
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    p = c.build_and(a, b)
    g = c.combine()
    expected = ((R(3, 8), R(3, 8)), (R(0), R(1, 2)))
    assert g.edges == {
        (p.player, a.player): expected,
        (p.player, b.player): expected,
    }


def test_scaled_sum_matrices():
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    p = c.build_scaled_sum([a, b], R(2, 3))
    (spec,) = c.specs
    (w,) = spec.aux
    g = c.combine()
    assert g.edges == {
        (w, p.player): ((R(0), R(1)), (R(0), R(0))),
        (w, a.player): ((R(0), R(0)), (R(0), R(2, 3))),
        (w, b.player): ((R(0), R(0)), (R(0), R(2, 3))),
        (p.player, w): I2,
    }


def test_compare_matrices():
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    p = c.build_compare(a, b)
    g = c.combine()
    assert g.edges == {
        (p.player, a.player): ((R(0), R(1)), (R(0), R(0))),
        (p.player, b.player): ((R(0), R(0)), (R(0), R(1))),
    }


def test_minus_matrices():
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    p = c.build_minus(a, b)
    (spec,) = c.specs
    (w,) = spec.aux
    g = c.combine()
    assert g.edges == {
        (w, p.player): ((R(0), R(1)), (R(0), R(0))),
        (w, a.player): ((R(0), R(0)), (R(0), R(-1))),
        (w, b.player): ((R(0), R(0)), (R(0), R(1))),
        (p.player, w): I2,
    }


def test_complement_matrices():
    c = GadgetCircuit()
    a = c.add_input()
    p = c.build_complement(a)
    (spec,) = c.specs
    (w,) = spec.aux
    g = c.combine()
    assert g.edges == {
        (w, p.player): ((R(0), R(1)), (R(0), R(0))),
        (w, a.player): ((R(0), R(0)), (R(1), R(0))),
        (p.player, w): I2,
    }


def test_assign_matrices():
    c = GadgetCircuit()
    p = c.build_assign(R(3, 5))
    (spec,) = c.specs
    (w,) = spec.aux
    g = c.combine()
    assert g.edges == {
        (w, p.player): ((R(0), R(1)), (R(3, 5), R(3, 5))),
        (p.player, w): I2,
    }


def test_scale_matrices():
    c = GadgetCircuit()
    a = c.add_input()
    p = c.build_scale(a, R(1, 3))
    (spec,) = c.specs
    (w,) = spec.aux
    g = c.combine()
    assert g.edges == {
        (w, p.player): ((R(0), R(1)), (R(0), R(0))),
        (w, a.player): ((R(0), R(0)), (R(0), R(1, 3))),
        (p.player, w): I2,
    }


def test_mask_matrices():
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    p = c.build_mask(a, b)
    (spec,) = c.specs
    (w,) = spec.aux
    g = c.combine()
    assert g.edges == {
        (w, p.player): ((R(0), R(1)), (R(0), R(0))),
        (w, a.player): ((R(2), R(0)), (R(0), R(0))),
        (w, b.player): ((R(0), R(0)), (R(0), R(1))),
        (p.player, w): I2,
    }


# ---------------------------------------------------------------------------
# lifted profiles are exact equilibria computing the right value


@settings(max_examples=60, deadline=None)
@given(v=rationals_01(), zeta=rationals_01())
def test_threshold_lift(v, zeta):
    c = GadgetCircuit()
    a = c.add_input()
    p = c.build_threshold(a, zeta)
    (got,) = lift_and_check(c, {a.player: v}, [p])
    assert got == (1 if v >= zeta else 0)


@settings(max_examples=60, deadline=None)
@given(v1=rationals_01(), v2=rationals_01())
def test_and_lift(v1, v2):
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    p = c.build_and(a, b)
    (got,) = lift_and_check(c, {a.player: v1, b.player: v2}, [p])
    assert got == (1 if v1 + v2 >= R(3, 2) else 0)
    if v1 == v2 == 1:
        assert got == 1
    if v1 == 0 or v2 == 0:
        assert got == 0


@settings(max_examples=60, deadline=None)
@given(v1=rationals_01(), v2=rationals_01(), zeta=rationals_01())
def test_scaled_sum_lift(v1, v2, zeta):
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    p = c.build_scaled_sum([a, b], zeta)
    (got,) = lift_and_check(c, {a.player: v1, b.player: v2}, [p])
    assert got == min(zeta * (v1 + v2), R(1))


@settings(max_examples=60, deadline=None)
@given(v1=rationals_01(), v2=rationals_01())
def test_compare_lift(v1, v2):
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    p = c.build_compare(a, b)
    (got,) = lift_and_check(c, {a.player: v1, b.player: v2}, [p])
    assert got == (1 if v1 <= v2 else 0)


@settings(max_examples=60, deadline=None)
@given(v1=rationals_01(), v2=rationals_01())
def test_minus_lift(v1, v2):
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    p = c.build_minus(a, b)
    (got,) = lift_and_check(c, {a.player: v1, b.player: v2}, [p])
    assert got == max(R(0), v2 - v1)


@settings(max_examples=40, deadline=None)
@given(v=rationals_01())
def test_complement_lift(v):
    c = GadgetCircuit()
    a = c.add_input()
    p = c.build_complement(a)
    (got,) = lift_and_check(c, {a.player: v}, [p])
    assert got == 1 - v


@settings(max_examples=40, deadline=None)
@given(zeta=rationals_01())
def test_assign_lift(zeta):
    c = GadgetCircuit()
    p = c.build_assign(zeta)
    (got,) = lift_and_check(c, {}, [p])
    assert got == zeta


@settings(max_examples=60, deadline=None)
@given(v=rationals_01(), zeta=rationals_01())
def test_scale_lift(v, zeta):
    c = GadgetCircuit()
    a = c.add_input()
    p = c.build_scale(a, zeta)
    (got,) = lift_and_check(c, {a.player: v}, [p])
    assert got == zeta * v


@settings(max_examples=60, deadline=None)
@given(v1=rationals_01(), v2=rationals_01())
def test_mask_lift(v1, v2):
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    p = c.build_mask(a, b)
    (got,) = lift_and_check(c, {a.player: v1, b.player: v2}, [p])
    assert got == max(R(0), min(R(1), v2 - 2 * (1 - v1)))
    if v1 == 1:
        assert got == v2
    if v1 == 0 or v2 == 0:
        assert got == 0


@settings(max_examples=60, deadline=None)
@given(v1=rationals_01(), v2=rationals_01())
def test_max_lift(v1, v2):
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    p = c.build_max(a, b)
    (got,) = lift_and_check(c, {a.player: v1, b.player: v2}, [p])
    assert got == max(v1, v2)


@settings(max_examples=60, deadline=None)
@given(v1=rationals_01(), v2=rationals_01())
def test_min_lift(v1, v2):
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    p = c.build_min(a, b)
    (got,) = lift_and_check(c, {a.player: v1, b.player: v2}, [p])
    assert got == min(v1, v2)


@settings(max_examples=40, deadline=None)
@given(v1=rationals_01(12), v2=rationals_01(12), v3=rationals_01(12))
def test_median_lift(v1, v2, v3):
    c = GadgetCircuit()
    a, b, d = c.add_input(), c.add_input(), c.add_input()
    p = c.build_median(a, b, d)
    (got,) = lift_and_check(c, {a.player: v1, b.player: v2, d.player: v3}, [p])
    assert got == sorted([v1, v2, v3])[1]


@settings(max_examples=40, deadline=None)
@given(v=rationals_01(64), beta=st.integers(1, 4))
def test_bit_extract_lift(v, beta):
    c = GadgetCircuit()
    a = c.add_input()
    bits = c.build_bit_extract(a, beta)
    got = lift_and_check(c, {a.player: v}, list(bits))
    # greedy binary expansion: digits of min(floor(v * 2^beta), 2^beta - 1)
    code = min(int(v * 2**beta), 2**beta - 1)
    expected = [(code >> (beta - i)) & 1 for i in range(1, beta + 1)]
    assert got == expected


def test_bit_extract_eps_precondition():
    c = GadgetCircuit()
    a = c.add_input()
    c.build_bit_extract(a, 2, eps=R(1, 384))
    with pytest.raises(ParameterError):
        c_bad = GadgetCircuit()
        a_bad = c_bad.add_input()
        c_bad.build_bit_extract(a_bad, 2, eps=R(1, 383))


# ---------------------------------------------------------------------------
# taps on multi-strategy players, shared inputs, raw edges


def test_multi_strategy_tap():
    c = GadgetCircuit()
    src = c.add_input(n=3)
    tap = Tap(src.player, 2)
    p = c.build_copy(tap)
    (spec,) = c.specs
    (w,) = spec.aux
    g = c.combine()
    assert g.edges[(w, src.player)] == ((R(0), R(0), R(0)), (R(0), R(0), R(1)))
    vec = (R(1, 6), R(1, 3), R(1, 2))
    profile = c.lift({src.player: vec})
    assert profile[p.player] == (R(1, 2), R(1, 2))
    assert c.combine().verify_wsne(profile, R(0), clamped={src.player}).ok


def test_shared_input_accumulates():
    c = GadgetCircuit()
    a = c.add_input()
    p = c.build_minus(a, a)  # max(0, v - v) = 0
    g = c.combine()
    (spec,) = c.specs
    (w,) = spec.aux
    assert (w, a.player) not in g.edges  # -1 and +1 cancel to an all-zero matrix
    (got,) = lift_and_check(c, {a.player: R(2, 3)}, [p])
    assert got == 0


def test_combined_range_enforced():
    c = GadgetCircuit()
    a = c.add_input()
    c.build_scaled_sum([a, a, a], R(1))  # accumulates 3 > 2 on one entry
    with pytest.raises(ParameterError):
        c.combine()


# ---------------------------------------------------------------------------
# wiring discipline


def test_duplicate_output_rejected():
    c = GadgetCircuit()
    a = c.add_input()
    shared = c.add_player()
    c.build_copy(a, out=Tap(shared, 1))
    with pytest.raises(DuplicateOutput):
        c.build_complement(a, out=Tap(shared, 1))


def test_input_cannot_be_driven():
    c = GadgetCircuit()
    a = c.add_input()
    b = c.add_input()
    with pytest.raises(ParameterError):
        c.build_copy(a, out=b)


def test_undriven_player_cannot_feed_gadget():
    c = GadgetCircuit()
    pending = c.add_player()
    with pytest.raises(CycleDetected):
        c.build_complement(Tap(pending, 1))


def test_undriven_player_needs_lift_value():
    c = GadgetCircuit()
    a = c.add_input()
    pending = c.add_player()
    c.build_copy(a)
    with pytest.raises(ParameterError):
        c.lift({a.player: R(1, 2)})
    profile = c.lift({a.player: R(1, 2), pending: R(1, 4)})
    assert profile[pending] == (R(3, 4), R(1, 4))


def test_player_budget(monkeypatch):
    with pytest.raises(SizeBudgetExceeded):
        tiny = GadgetCircuit(player_budget=2)
        a = tiny.add_input()
        tiny.build_minus(a, a)  # needs two new players
    monkeypatch.setenv("NASHREDUCE_PLAYER_BUDGET", "1")
    env_circuit = GadgetCircuit()
    env_circuit.add_input()
    with pytest.raises(SizeBudgetExceeded):
        env_circuit.add_player()


def test_zeta_range_checked():
    c = GadgetCircuit()
    a = c.add_input()
    for bad in (R(-1, 2), R(3, 2)):
        with pytest.raises(ParameterError):
            c.build_threshold(a, bad)
        with pytest.raises(ParameterError):
            c.build_assign(bad)


def assert_no_frame_open(c):
    assert c._frames == [("", c._specs)]


def assert_untouched(c, players):
    """``c`` holds ``players`` players, no spec, and no open composite."""
    assert c.num_players == players
    assert c.specs == ()
    assert_no_frame_open(c)


ZETA_BUILDERS = {
    "threshold": lambda c, a, z: c.build_threshold(a, z),
    "scaled_sum": lambda c, a, z: c.build_scaled_sum([a, a], z),
    "assign": lambda c, a, z: c.build_assign(z),
    "scale": lambda c, a, z: c.build_scale(a, z),
}


# a float shares int ratios with exact entries, so it must not reach the
# shared matrices; a complex one cannot be ordered
@pytest.mark.parametrize("zeta", [0.5, 1.0, 1j])
@pytest.mark.parametrize("kind", ZETA_BUILDERS)
def test_an_inexact_zeta_fails_before_any_player_is_made(kind, zeta):
    c = GadgetCircuit()
    a = c.add_input()
    with pytest.raises(ParameterError, match="zeta must be an exact rational"):
        ZETA_BUILDERS[kind](c, a, zeta)
    assert_untouched(c, 1)


MULTIPLIERS = {
    "unary": build_unary_multiplier,
    "brittle": build_brittle_multiplier,
    "robust": build_robust_multiplier,
    "chain-1": lambda c, a, b, eps: build_multiplication_chain(c, [a], eps, "log"),
    "chain-2": lambda c, a, b, eps: build_multiplication_chain(c, [a, b], eps, "log"),
}


# the multipliers compare eps and derive sizes from it before any gadget
# sees it, so they check it themselves
@pytest.mark.parametrize("eps", [0.01, 1e-6, 1.0, 1j])
@pytest.mark.parametrize("kind", MULTIPLIERS)
def test_an_inexact_multiplier_eps_fails_before_any_player_is_made(kind, eps):
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    with pytest.raises(ParameterError, match="^eps has an entry that is not an exact rational$"):
        MULTIPLIERS[kind](c, a, b, eps)
    assert_untouched(c, 2)


BAD_OUTS = {
    "input": (ParameterError, "player 0 is a clamped input; it cannot be driven"),
    "driven": (DuplicateOutput, "player 2 is already driven by a gadget"),
    "wide": (ParameterError, "gadget outputs must be binary players tapped at strategy 1"),
    "missing": (ParameterError, "no player 9 in this circuit"),
}
COMPOSITES = {
    "max": lambda c, a, b, out: c.build_max(a, b, out=out),
    "min": lambda c, a, b, out: c.build_min(a, b, out=out),
    "median": lambda c, a, b, out: c.build_median(a, b, a, out=out),
    "unary_mult": lambda c, a, b, out: build_unary_multiplier(c, a, b, R(1, 4), out=out),
    "robust_mult": lambda c, a, b, out: build_robust_multiplier(c, a, b, R(1, 1000), out=out),
}


@pytest.mark.parametrize("bad", BAD_OUTS)
@pytest.mark.parametrize("kind", COMPOSITES)
def test_a_composite_checks_out_before_any_player_is_made(kind, bad):
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    driven = c.build_copy(a)
    wide = c.add_player(3)
    out = {"input": a, "driven": driven, "wide": Tap(wide, 1), "missing": Tap(9, 1)}[bad]
    cls, message = BAD_OUTS[bad]
    with pytest.raises(cls, match=message):
        COMPOSITES[kind](c, a, b, out)
    assert c.num_players == 5
    assert len(c.specs) == 1
    assert_no_frame_open(c)


def test_a_failed_composite_leaves_no_composite_open():
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    with pytest.raises(ParameterError, match="player 0 is a clamped input"):
        build_robust_multiplier(c, a, b, R(1, 1000), out=a)
    assert_untouched(c, 2)
    p = c.build_threshold(a, R(1, 2))
    assert [spec.kind for spec in c.specs] == ["threshold"]
    assert c.combine().players[p.player].scope == "threshold"
    assert c.lift({a.player: R(3, 4), b.player: R(0)})[p.player] == (R(0), R(1))


# every composite builder, on inputs a (a wide player's strategy 2), b and d
EVERY_COMPOSITE = {
    "max": lambda c, a, b, d: c.build_max(a, b),
    "min": lambda c, a, b, d: c.build_min(a, b),
    "median": lambda c, a, b, d: c.build_median(a, b, d),
    "bit_extract": lambda c, a, b, d: c.build_bit_extract(a, 3),
    "unary_mult": lambda c, a, b, d: build_unary_multiplier(c, a, b, R(1, 10)),
    "brittle_mult": lambda c, a, b, d: build_brittle_multiplier(c, a, b, R(1, 1000)),
    "robust_mult": lambda c, a, b, d: build_robust_multiplier(c, a, b, R(1, 1000)),
    "mult_chain": lambda c, a, b, d: build_multiplication_chain(c, [a, b, d], R(1, 1000), "log"),
}


def three_inputs(c):
    return Tap(c.add_input(n=3).player, 2), c.add_input(), Tap(c.add_input().player, 0)


@pytest.mark.parametrize("kind", EVERY_COMPOSITE)
def test_a_composite_that_runs_out_of_players_pops_its_scopes(kind):
    full = GadgetCircuit()
    EVERY_COMPOSITE[kind](full, *three_inputs(full))
    c = GadgetCircuit(player_budget=5 + (full.num_players - 3) // 2)  # half the composite's players
    inputs = three_inputs(c)
    c.build_copy(inputs[0])  # players 3 and 4
    specs = c.specs
    with pytest.raises(SizeBudgetExceeded):
        EVERY_COMPOSITE[kind](c, *inputs)
    assert c.num_players > 5
    assert_no_frame_open(c)
    assert c.specs == specs
    c.player_budget = c.num_players + 1
    c.build_threshold(inputs[1], R(1, 2))
    assert c.combine().players[-1].scope == "threshold"
    c.player_budget = 10**6
    EVERY_COMPOSITE[kind](c, *inputs)
    assert [spec.kind for spec in c.specs] == ["scale", "threshold", kind]
    assert c.combine().players[-1].scope.startswith(kind + "/")
    assert_no_frame_open(c)


MULT_EPS = {"unary": R(1, 10), "log": R(1, 1000)}
PLAIN_PAIR_BUILDS = {
    **EVERY_COMPOSITE,
    **{f"multiplier-{x}": lambda c, a, b, d, x=x: build_multiplier(c, a, b, MULT_EPS[x], x) for x in MULT_EPS},
    **{
        f"chain-{m}-{x}": lambda c, a, b, d, m=m, x=x: build_multiplication_chain(c, [a, b, d][:m], MULT_EPS[x], x)
        for m in (1, 2, 3)
        for x in MULT_EPS
    },
}


@pytest.mark.parametrize("kind", PLAIN_PAIR_BUILDS)
def test_plain_pairs_build_what_taps_build(kind):
    circuits = []
    for plain in (False, True):
        c = GadgetCircuit()
        inputs = three_inputs(c)
        PLAIN_PAIR_BUILDS[kind](c, *(tuple(tap) if plain else tap for tap in inputs))
        circuits.append(c)
    taps, pairs = circuits
    assert pairs.strategy_counts == taps.strategy_counts
    assert repr(pairs.specs) == repr(taps.specs)  # Tap inputs, not plain tuples
    assert pairs.combine().players == taps.combine().players
    assert pairs.combine().edges == taps.combine().edges
    values = {0: (R(1, 6), R(1, 3), R(1, 2)), 1: R(2, 5), 2: R(3, 4)}
    assert pairs.lift(values) == taps.lift(values)


STRANDED = """
from nashreduce import GadgetCircuit, NashreduceError, R, SizeBudgetExceeded

c = GadgetCircuit(player_budget=12)
a, b = c.add_input(), c.add_input()
try:
    c.build_median(a, b, a)
except SizeBudgetExceeded:
    pass
try:
    c.lift({0: R(1, 2), 1: R(1, 3)})
except NashreduceError as err:
    print(type(err).__name__, err)
"""
STRANDED_ERROR = "ParameterError no recorded gadget drives players [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]"


def test_lift_names_the_players_a_failed_composite_left_undriven(capsys):
    # the players the max gadget made stay driven, but no spec drives them
    exec(STRANDED, {})
    assert capsys.readouterr().out == STRANDED_ERROR + "\n"


def test_lift_names_the_undriven_players_under_python_optimize():
    package_root = os.path.dirname(os.path.dirname(nashreduce.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", STRANDED],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, STRANDED_ERROR + "\n", "")


# ---------------------------------------------------------------------------
# bookkeeping: registry, roles, scopes, counts


def test_registry_covers_thirteen_kinds():
    assert len(GADGET_KINDS) == 13
    assert set(GADGET_INFO) == set(GADGET_KINDS)


def test_roles_and_scopes():
    c = GadgetCircuit()
    a, b, d = c.add_input(), c.add_input(), c.add_input()
    c.build_median(a, b, d)
    g = c.combine()
    roles = {info.role for i, info in enumerate(g.players) if i > d.player}
    assert roles == {Role.GADGET_AUX}
    assert any("median/max" in info.scope for info in g.players)


def test_spec_player_counts():
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    c.build_max(a, b)
    (spec,) = c.specs
    # compare (1) + minus (2) + mask (2) + scaled_sum (2)
    assert spec_player_count(spec) == 7
    assert c.num_players == 2 + 7

    c2 = GadgetCircuit()
    a2, b2 = c2.add_input(), c2.add_input()
    c2.build_min(a2, b2)
    (spec2,) = c2.specs
    # two complements (2+2) + max (7) + final complement (2)
    assert spec_player_count(spec2) == 13

    c3 = GadgetCircuit()
    ins = [c3.add_input() for _ in range(3)]
    c3.build_median(*ins)
    (spec3,) = c3.specs
    # max (7) + min (13) + min (13) + max (7)
    assert spec_player_count(spec3) == 40

    for beta in (1, 2, 5):
        c4 = GadgetCircuit()
        a4 = c4.add_input()
        c4.build_bit_extract(a4, beta)
        (spec4,) = c4.specs
        # copy (2) + beta thresholds + (beta-1) * (scale 2 + minus 2)
        assert spec_player_count(spec4) == 5 * beta - 2


def test_composite_spec_structure():
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    p = c.build_max(a, b)
    (spec,) = c.specs
    assert spec.kind == "max"
    assert spec.inputs == (a, b)
    assert spec.outputs == (p,)
    assert [s.kind for s in spec.internal] == ["compare", "minus", "mask", "scaled_sum"]
    assert spec.created == ()


# ---------------------------------------------------------------------------
# brute-force cross-check: the lift engine against exhaustive grid search


def grid_vectors(n, denominator):
    """All length-n nonnegative rational vectors with denominator `denominator` summing to 1."""
    total = denominator
    if n == 1:
        return [(R(1),)]
    out = []
    for cuts in itertools.combinations_with_replacement(range(total + 1), n - 1):
        parts = []
        prev = 0
        for cut in cuts:
            parts.append(cut - prev)
            prev = cut
        parts.append(total - prev)
        out.append(tuple(R(v, total) for v in parts))
    return out


@pytest.mark.parametrize("kind", ["threshold", "compare", "minus", "complement", "scale", "mask"])
def test_exhaustive_grid_agrees_with_lift(kind):
    """On a coarse grid, enumerate every completion of the gadget's free
    players and check (a) the lifted profile's output value is among the
    accepted values whenever it lies on the grid, (b) accepted values obey
    the gadget guarantee with the grid eps."""
    eps = R(1, 5)
    den = 10
    inputs_needed = GADGET_INFO[kind].arity
    for in_vals in itertools.product([R(0), R(3, 10), R(1, 2), R(1)], repeat=inputs_needed):
        c = GadgetCircuit()
        taps = [c.add_input() for _ in range(inputs_needed)]
        builder = getattr(c, f"build_{kind}")
        if GADGET_INFO[kind].takes_zeta:
            out = builder(*taps, R(1, 2))
        else:
            out = builder(*taps)
        game = c.combine()
        clamped = {t.player for t in taps}
        values = dict(zip((t.player for t in taps), in_vals))
        free = [i for i in range(c.num_players) if i not in clamped]
        accepted = set()
        grid = grid_vectors(2, den)
        for combo in itertools.product(grid, repeat=len(free)):
            profile = [None] * c.num_players
            for t, v in zip(taps, in_vals):
                profile[t.player] = (1 - v, v)
            for player, vec in zip(free, combo):
                profile[player] = vec
            if game.verify_wsne(profile, eps, clamped=clamped).ok:
                accepted.add(profile[out.player][1])
        assert accepted, f"{kind}{in_vals}: no accepted completion on the grid"
        lifted = c.lift(values)[out.player][1]
        if lifted.denominator in (1, 2, 5, 10):
            assert lifted in accepted
