"""Sweep engine tests.

The closed-form acceptance sets are checked three ways: against direct
enumeration of all internal-player grid profiles on the *built* games
(complete for the one- and two-player gadgets, and for max at a small
grid, which anchors the composite factorization), against an
independently written slow enumerator that walks the composite layer by
layer with explicit loops, and against frozen envelope expectations at
the guarantee grids.  A sha256 over every case of every kind pins the
sweep's outputs at two grids.
"""

import hashlib
import itertools
from functools import lru_cache

import pytest

from nashreduce import ParameterError, R, sweep
from nashreduce._rational import rational_str
from nashreduce.gadgets import GADGET_KINDS, GadgetCircuit
from nashreduce.sweep import (
    SweepCase,
    _accepted_mask,
    _band_mask,
    _envelope,
    _full_mask,
    _mask_spans,
    _range_mask,
    mask_values,
    sweep_all,
    sweep_gadget,
)

EPS = R(1, 20)


def accepted_values(kind, g, eps, inputs, zeta=None):
    return set(mask_values(g, _accepted_mask(kind, g, eps, inputs, zeta)))


# ---------------------------------------------------------------------------
# bitmask helpers


def test_mask_helpers():
    assert _full_mask(4) == 0b11111
    assert _range_mask(10, 3, 5) == 0b111000
    assert _range_mask(10, 8, 12) == 0b111 << 8
    assert _range_mask(10, 5, 3) == 0
    assert _mask_spans(0b1011001) == [(0, 0), (3, 4), (6, 6)]
    assert mask_values(4, 0b10001) == [R(0), R(1)]
    # indices within 1/4 of 1/2 on the 1/8 grid: 2/8 .. 6/8
    assert _band_mask(8, R(1, 2), R(1, 4)) == _range_mask(8, 2, 6)


# ---------------------------------------------------------------------------
# direct enumeration anchors (the built games are the ground truth)


def build_gadget_game(kind, arity, zeta):
    circuit = GadgetCircuit()
    taps = [circuit.add_input() for _ in range(arity)]
    if kind == "threshold":
        out = circuit.build_threshold(taps[0], zeta)
    elif kind == "and":
        out = circuit.build_and(*taps)
    elif kind == "compare":
        out = circuit.build_compare(*taps)
    elif kind == "scaled_sum":
        out = circuit.build_scaled_sum(taps, zeta)
    elif kind == "minus":
        out = circuit.build_minus(*taps)
    elif kind == "complement":
        out = circuit.build_complement(*taps)
    elif kind == "assign":
        out = circuit.build_assign(zeta)
    elif kind == "scale":
        out = circuit.build_scale(taps[0], zeta)
    elif kind == "mask":
        out = circuit.build_mask(*taps)
    elif kind == "max":
        out = circuit.build_max(*taps)
    else:
        raise AssertionError(kind)
    return circuit.combine(), [t.player for t in taps], out.player


def direct_accepted(kind, inputs, zeta, eps, g):
    """Enumerate every internal grid profile of the built game."""
    game, clamped, out = build_gadget_game(kind, len(inputs), zeta)
    internal = [i for i in range(game.m) if i not in clamped]
    grid = [R(i, g) for i in range(g + 1)]
    accepted = set()
    for combo in itertools.product(grid, repeat=len(internal)):
        profile = [None] * game.m
        for player, v in zip(clamped, inputs):
            profile[player] = (1 - v, v)
        for player, v in zip(internal, combo):
            profile[player] = (1 - v, v)
        if game.verify_wsne(profile, eps, clamped=clamped).ok:
            accepted.add(profile[out][1])
    return accepted


SIMPLE_CASES = [
    ("threshold", (R(7, 10),), R(1, 2)),
    ("threshold", (R(1, 2),), R(1, 2)),
    ("threshold", (R(9, 20),), R(1, 2)),
    ("and", (R(1), R(1)), None),
    ("and", (R(0), R(17, 20)), None),
    ("and", (R(3, 4), R(3, 4)), None),
    ("compare", (R(1, 4), R(3, 4)), None),
    ("compare", (R(3, 4), R(1, 4)), None),
    ("compare", (R(1, 2), R(1, 2)), None),
    ("scaled_sum", (R(1, 5), R(3, 10)), R(1)),
    ("scaled_sum", (R(4, 5), R(4, 5)), R(1)),
    ("scaled_sum", (R(1, 2), R(1, 2)), R(1, 2)),
    ("minus", (R(7, 10), R(1, 5)), None),
    ("minus", (R(1, 5), R(7, 10)), None),
    ("complement", (R(3, 10),), None),
    ("assign", (), R(7, 20)),
    ("assign", (), R(0)),
    ("assign", (), R(1)),
    ("scale", (R(3, 5),), R(1, 2)),
    ("mask", (R(1), R(2, 5)), None),
    ("mask", (R(0), R(9, 10)), None),
    ("mask", (R(1, 2), R(1, 20)), None),
    ("mask", (R(19, 20), R(1, 2)), None),
]


@pytest.mark.parametrize("kind,inputs,zeta", SIMPLE_CASES)
def test_closed_form_matches_built_game(kind, inputs, zeta):
    g = 20
    assert accepted_values(kind, g, EPS, inputs, zeta) == direct_accepted(
        kind, inputs, zeta, EPS, g
    )


def test_max_closed_form_matches_built_game():
    # 7 internal players: direct enumeration only fits a tiny grid, with
    # eps scaled up to keep the contiguity requirement coef/g <= 2 eps
    for inputs, eps, g in [
        ((R(1, 3), R(2, 3)), R(1, 3), 3),
        ((R(0), R(1)), R(1, 3), 3),
        ((R(1, 4), R(3, 4)), R(1, 2), 4),
    ]:
        assert accepted_values("max", g, eps, inputs) == direct_accepted(
            "max", inputs, None, eps, g
        )


# ---------------------------------------------------------------------------
# slow layered enumeration (independent reimplementation) for composites


def ok_pair(p, u0, u1, eps):
    best = max(u0, u1)
    if p == 0:
        return u0 >= best - eps
    if p == 1:
        return u1 >= best - eps
    return u0 >= best - eps and u1 >= best - eps


def grid_of(g):
    return [R(i, g) for i in range(g + 1)]


def slow_decision(g, eps, gap):
    """Single player with payoffs (0, gap): accepted own values."""
    return {p for p in grid_of(g) if ok_pair(p, R(0), gap, eps)}


def slow_two_cycle(g, eps, kc):
    """Output p imitating an aux q that earns (p, kc): accepted p values."""
    accepted = set()
    for p in grid_of(g):
        for q in grid_of(g):
            if ok_pair(q, p, kc, eps) and ok_pair(p, 1 - q, q, eps):
                accepted.add(p)
                break
    return accepted


@lru_cache(maxsize=None)
def slow_max(g, eps, a, b):
    accepted = set()
    for c in slow_decision(g, eps, b - a):
        for e in slow_two_cycle(g, eps, b - a):
            for gate in slow_two_cycle(g, eps, e + 2 * c - 2):
                accepted |= slow_two_cycle(g, eps, gate + a)
    return accepted


@lru_cache(maxsize=None)
def slow_min(g, eps, a, b):
    accepted = set()
    for n1 in slow_two_cycle(g, eps, 1 - a):
        for n2 in slow_two_cycle(g, eps, 1 - b):
            for mx in slow_max(g, eps, n1, n2):
                accepted |= slow_two_cycle(g, eps, 1 - mx)
    return accepted


def slow_median(g, eps, a, b, c):
    lo_set = slow_min(g, eps, a, b)
    cap_set = set()
    for h in slow_max(g, eps, a, b):
        cap_set |= slow_min(g, eps, c, h)
    accepted = set()
    for lo in lo_set:
        for cap in cap_set:
            accepted |= slow_max(g, eps, lo, cap)
    return accepted


def test_min_closed_form_matches_slow_enumeration():
    g, eps = 6, R(1, 6)
    for a, b in [(R(0), R(1)), (R(1, 2), R(1, 3)), (R(5, 6), R(5, 6)), (R(1, 6), R(2, 3))]:
        assert accepted_values("min", g, eps, (a, b)) == slow_min(g, eps, a, b)


def test_median_closed_form_matches_slow_enumeration():
    g, eps = 6, R(1, 6)
    for triple in [
        (R(0), R(1, 2), R(1)),
        (R(1, 3), R(1, 3), R(1)),
        (R(5, 6), R(1, 6), R(1, 2)),
    ]:
        assert accepted_values("median", g, eps, triple) == slow_median(g, eps, *triple)


def test_bit_extract_closed_form_matches_slow_enumeration():
    g, eps = 20, R(1, 20)
    for v in [R(0), R(1, 4), R(9, 20), R(1, 2), R(11, 20), R(1)]:
        expected = set()
        for x in slow_two_cycle(g, eps, v):  # the internal copy
            expected |= slow_decision(g, eps, x - R(1, 2))  # threshold at 1/2
        assert accepted_values("bit_extract", g, eps, (v,)) == expected


# ---------------------------------------------------------------------------
# envelopes


def test_threshold_envelope_rows():
    g = 100
    assert _envelope("threshold", g, EPS, (R(3, 5),), R(1, 2)) == 1 << g
    assert _envelope("threshold", g, EPS, (R(2, 5),), R(1, 2)) == 1
    assert _envelope("threshold", g, EPS, (R(11, 20),), R(1, 2)) == _full_mask(g)


def test_mask_envelope_intersects_applicable_rows():
    g = 100
    # value input near zero and binary input exactly 1: both rows bind
    allowed = _envelope("mask", g, EPS, (R(1), R(1, 20)), None)
    assert allowed == _band_mask(g, R(1, 20), EPS) & _range_mask(g, 0, 15)
    assert _envelope("mask", g, EPS, (R(0), R(9, 10)), None) == 1
    assert _envelope("mask", g, EPS, (R(1, 2), R(1, 2)), None) == _full_mask(g)


def test_bit_extract_envelope_far_and_near():
    g = 100
    assert _envelope("bit_extract", g, EPS, (R(1, 4),), None) == 1
    assert _envelope("bit_extract", g, EPS, (R(3, 4),), None) == 1 << g
    # 3/20 sits exactly 3 eps from zero: not strictly far, so unconstrained
    assert _envelope("bit_extract", g, EPS, (R(3, 20),), None) == _full_mask(g)


# ---------------------------------------------------------------------------
# sweep reports


CHEAP_KINDS = [k for k in GADGET_KINDS if k not in ("median",)]


@pytest.mark.parametrize("kind", CHEAP_KINDS)
def test_guarantee_sweep_passes_at_criterion_grids(kind):
    report = sweep_gadget(kind)
    assert report.ok
    assert report.empty == 0
    assert report.eps == EPS
    assert report.internal_step == R(1, 100)


def test_median_sweep_passes_on_coarse_inputs():
    report = sweep_gadget("median", input_step=R(1, 4))
    assert report.ok
    assert report.empty == 0
    assert report.cases == 75  # 15 unordered first pairs x 5 third values


def test_sweep_case_counts():
    assert sweep_gadget("threshold").cases == 21 * 21
    assert sweep_gadget("complement").cases == 21
    assert sweep_gadget("assign").cases == 21
    assert sweep_gadget("scaled_sum").cases == 21**3
    assert sweep_gadget("bit_extract").cases == 21


def test_sweep_parameter_validation():
    with pytest.raises(ParameterError):
        sweep_gadget("xor")
    with pytest.raises(ParameterError):
        sweep_gadget("minus", eps=R(0))
    with pytest.raises(ParameterError):
        sweep_gadget("minus", eps=R(1))
    with pytest.raises(ParameterError):
        sweep_gadget("minus", input_step=R(2, 3))
    with pytest.raises(ParameterError):
        sweep_gadget("minus", internal_step=R(3, 2))


def test_sweep_rejects_grid_too_coarse_for_composites():
    # the mask stage moves K - C by 2 per unit of its binary input; at
    # internal step 1/10 and eps 1/20 one step jumps 4 eps, so the
    # interval-union argument breaks down and the sweep must refuse
    with pytest.raises(ParameterError):
        sweep_gadget("max", internal_step=R(1, 10))


def test_sweep_case_ok_flag():
    case = SweepCase("threshold", (R(1),), R(1, 2), accepted=0b11, allowed=0b01)
    assert not case.ok
    assert SweepCase("threshold", (R(1),), R(1, 2), 0b01, 0b11).ok


def test_sweep_all_covers_every_kind():
    reports = sweep_all(input_step=R(1, 2), internal_step=R(1, 20), eps=R(1, 10))
    assert set(reports) == set(GADGET_KINDS)
    assert all(r.ok for r in reports.values())


# ---------------------------------------------------------------------------
# pinned outputs: every case of every kind, at two grids


def sweep_digest(monkeypatch, eps, input_step, internal_step):
    """sha256 over ``(kind, inputs, zeta, accepted, allowed)`` of every case.

    The envelope is wrapped to record each case with its allowed mask and
    to allow nothing, so that every case with an accepted value comes
    back as a failure carrying its accepted mask.
    """
    envelope = sweep._envelope
    calls = []

    def capture(kind, g, eps, inputs, zeta):
        calls.append((kind, tuple(inputs), zeta, envelope(kind, g, eps, inputs, zeta)))
        return 0

    monkeypatch.setattr(sweep, "_envelope", capture)
    accepted = {}
    for kind in GADGET_KINDS:
        for case in sweep_gadget(kind, eps, input_step, internal_step).failures:
            accepted[case.kind, case.inputs, case.zeta] = case.accepted
    digest = hashlib.sha256()
    for kind, inputs, zeta, allowed in calls:
        shown_zeta = "-" if zeta is None else rational_str(zeta)
        shown_inputs = ",".join(map(rational_str, inputs))
        mask = accepted.get((kind, inputs, zeta), 0)
        digest.update(f"{kind} {shown_inputs} {shown_zeta} {mask:x} {allowed:x}\n".encode())
    return len(calls), digest.hexdigest()


@pytest.mark.parametrize(
    "eps,input_step,internal_step,cases,expected",
    [
        # the gadget-check benchmark's grid
        (R(1, 20), R(1, 10), R(1, 50), 3058,
         "edd34bdb6da9f19b975b8dde500fcdf6a2cb8ee216fd7eb20e1c393a6bf5e794"),
        # an input step that does not divide the internal step
        (R(1, 20), R(1, 6), R(1, 100), 952,
         "1eaf0ae53a49693fa255d1be0dc11d7140ebdcce82e6538ae529c6c1a6101d5f"),
    ],
)
def test_sweep_outputs_pinned(monkeypatch, eps, input_step, internal_step, cases, expected):
    assert sweep_digest(monkeypatch, eps, input_step, internal_step) == (cases, expected)
