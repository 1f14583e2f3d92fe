"""Multiplication gadget tests.

Each construction has an independent closed-form oracle for the value its
lifted output carries (``*_lift_value``, in ``lift_oracles.py``); circuits
are checked against the oracle *and* verified to be exact (eps = 0)
equilibria, and the closed form is separately checked against the
advertised error band around the true product.  Player counts are pinned to their closed forms.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashreduce import ParameterError, R
from nashreduce.gadgets import GadgetCircuit, spec_player_count
from nashreduce.multipliers import (
    BINARY_LOG,
    MULT_PARAMS,
    UNARY_POLY,
    beta_for_eps,
    build_brittle_multiplier,
    build_multiplication_chain,
    build_multiplier,
    build_robust_multiplier,
    build_unary_multiplier,
    get_params,
    predicted_player_count,
    unary_cells,
)

from lift_oracles import (
    MIXED_PLANTS,
    brittle_lift_value,
    chain_lift_value,
    robust_lift_value,
    spec_walk_lift,
    unary_lift_value,
)


def rationals_01(denominator=48):
    return st.integers(0, denominator).map(lambda n: R(n, denominator))


def lift_output(build, v1, v2, eps, **kwargs):
    """Build one multiplier over two inputs, lift exact input values, check
    the profile is an exact equilibrium, and return the output value."""
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    p = build(c, a, b, eps, **kwargs)
    profile = c.lift({a.player: v1, b.player: v2})
    game = c.combine()
    result = game.verify_wsne(profile, R(0), clamped={a.player, b.player})
    assert result.ok, result.violations
    return profile[p.player][1]


# ---------------------------------------------------------------------------
# parameter helpers


def test_beta_for_eps_frozen():
    assert beta_for_eps(R(1, 100)) == 4
    assert beta_for_eps(R(1, 1000)) == 5
    assert beta_for_eps(R(1, 10**4)) == 7
    assert beta_for_eps(R(1, 10**5)) == 9
    assert beta_for_eps(R(1, 10**6)) == 10
    assert beta_for_eps(R(1, 10**8)) == 14
    # exact powers of four sit on the boundary
    assert beta_for_eps(R(1, 4)) == 1
    assert beta_for_eps(R(1, 16)) == 2
    with pytest.raises(ParameterError):
        beta_for_eps(R(0))
    with pytest.raises(ParameterError):
        beta_for_eps(R(1))


def test_unary_cells_frozen():
    assert unary_cells(R(1, 4)) == 2
    assert unary_cells(R(1, 20)) == 7
    assert unary_cells(R(1, 40)) == 14
    assert unary_cells(R(1, 80)) == 27
    assert unary_cells(R(1, 100)) == 34


def test_params_registry():
    assert set(MULT_PARAMS) == {"unary", "log"}
    assert UNARY_POLY.eps0 == R(1, 4)
    assert UNARY_POLY.c == 1 and UNARY_POLY.d == 19
    assert BINARY_LOG.eps0 == R(1, 100000)
    assert 2 * BINARY_LOG.c == 1 and BINARY_LOG.d == 3
    assert get_params("unary") is UNARY_POLY
    with pytest.raises(ParameterError):
        get_params("ternary")


def test_within_error_exact_comparisons():
    assert UNARY_POLY.within_error(R(19, 100), 1, R(1, 100))
    assert not UNARY_POLY.within_error(R(191, 1000), 1, R(1, 100))
    assert UNARY_POLY.within_error(R(-19, 100), 1, R(1, 100))
    # square-root band checked by squaring, no floats involved
    assert BINARY_LOG.within_error(R(3, 1000), 1, R(1, 10**6))
    assert not BINARY_LOG.within_error(R(301, 100000), 1, R(1, 10**6))
    with pytest.raises(ParameterError):
        type(UNARY_POLY)("odd", R(1), R(1, 3), 2).within_error(R(0), 1, R(1, 2))


def test_eps_m_from_frozen():
    # linear construction: eps_k / (3 * nmax * d * k)
    assert UNARY_POLY.eps_m_from(R(9, 10), 4, 3) == R(1, 760)
    # square-root construction squares the base, then eps0 caps it
    assert BINARY_LOG.eps_m_from(R(9, 10), 4, 3) == R(1, 100000)
    assert BINARY_LOG.eps_m_from(R(1, 1000), 4, 3) == R(1, 108000) ** 2


# ---------------------------------------------------------------------------
# player counts


@pytest.mark.parametrize(
    "eps,count",
    [(R(1, 20), 65), (R(1, 40), 226), (R(1, 80), 785), (R(1, 100), 1226)],
)
def test_unary_player_count(eps, count):
    assert predicted_player_count("unary", eps) == count
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    build_unary_multiplier(c, a, b, eps)
    assert c.num_players - 2 == count
    (spec,) = c.specs
    assert spec.kind == "unary_mult"
    assert spec_player_count(spec) == count


@pytest.mark.parametrize(
    "eps,brittle,robust",
    [
        (R(1, 1000), 45, 192),
        (R(1, 10**4), 63, 246),
        (R(1, 10**6), 90, 327),
        (R(1, 10**8), 126, 435),
    ],
)
def test_log_player_counts(eps, brittle, robust):
    assert predicted_player_count("brittle", eps) == brittle
    assert predicted_player_count("log", eps) == robust
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    build_brittle_multiplier(c, a, b, eps)
    assert c.num_players - 2 == brittle
    if eps > R(1, 1000):
        return
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    build_robust_multiplier(c, a, b, eps)
    assert c.num_players - 2 == robust
    (spec,) = c.specs
    assert spec.kind == "robust_mult"
    assert spec_player_count(spec) == robust
    digits, product = spec.internal
    assert [inner.kind for inner in digits.internal] == [
        "assign", "max", "assign", "assign", "minus", "minus",
        "bit_extract", "bit_extract", "bit_extract",
    ]
    beta = beta_for_eps(eps)
    assert [inner.kind for inner in product.internal] == (["scale", "mask"] * beta + ["scaled_sum"]) * 3 + ["median"]
    assert spec_player_count(digits) == predicted_player_count("log_digits", eps)
    assert spec_player_count(product) == predicted_player_count("log_product", eps)
    # a second multiplier on the same first input reads the same digits
    build_robust_multiplier(c, a, c.add_input(), eps)
    assert c.num_players - 3 == robust + predicted_player_count("log_product", eps)
    assert [inner.kind for inner in c.specs[1].internal] == ["robust_product"]
    assert c.specs[1].internal[0].inputs[2:] == digits.outputs


def test_chain_player_count_is_per_link():
    c = GadgetCircuit()
    ins = [c.add_input() for _ in range(4)]
    build_multiplication_chain(c, ins, R(1, 20), "unary")
    assert c.num_players - 4 == 3 * predicted_player_count("unary", R(1, 20))


def test_predicted_player_count_rejects_unknown():
    with pytest.raises(ParameterError):
        predicted_player_count("ternary", R(1, 20))


# ---------------------------------------------------------------------------
# parameter validation


def test_unary_rejects_out_of_range_eps():
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    with pytest.raises(ParameterError):
        build_unary_multiplier(c, a, b, R(3, 10))
    with pytest.raises(ParameterError):
        build_unary_multiplier(c, a, b, R(0))


def test_robust_rejects_out_of_range_eps():
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    with pytest.raises(ParameterError):
        build_robust_multiplier(c, a, b, R(1, 999))


def test_brittle_rejects_coarse_eps():
    # beta = 5 digits but 6 * 5 * eps * 32 >= 1
    c = GadgetCircuit()
    a, b = c.add_input(), c.add_input()
    with pytest.raises(ParameterError):
        build_brittle_multiplier(c, a, b, R(11, 10000))


def test_chain_rejects_empty_and_unknown():
    c = GadgetCircuit()
    with pytest.raises(ParameterError):
        build_multiplication_chain(c, [], R(1, 20), "unary")
    a = c.add_input()
    with pytest.raises(ParameterError):
        build_multiplication_chain(c, [a], R(1, 20), "ternary")
    with pytest.raises(ParameterError):
        chain_lift_value([], R(1, 20))


# ---------------------------------------------------------------------------
# exact lift values


@settings(max_examples=40, deadline=None)
@given(rationals_01(), rationals_01(), st.sampled_from([R(1, 20), R(1, 10), R(1, 4)]))
def test_unary_lift_matches_oracle(v1, v2, eps):
    got = lift_output(build_unary_multiplier, v1, v2, eps)
    assert got == unary_lift_value(v1, v2, eps)
    assert abs(got - v1 * v2) <= 19 * eps


@settings(max_examples=25, deadline=None)
@given(rationals_01(), rationals_01())
def test_brittle_lift_matches_oracle(v1, v2):
    eps = R(1, 10**4)
    got = lift_output(build_brittle_multiplier, v1, v2, eps)
    assert got == brittle_lift_value(v1, v2, eps)
    # on exact lifted inputs the digit code is the true floor, so the
    # output sits within one digit of the product
    assert abs(got - v1 * v2) <= R(1, 2**7)


@settings(max_examples=15, deadline=None)
@given(rationals_01(), rationals_01())
def test_robust_lift_matches_oracle(v1, v2):
    eps = R(1, 1000)
    got = lift_output(build_robust_multiplier, v1, v2, eps)
    assert got == robust_lift_value(v1, v2, eps)


@pytest.mark.parametrize(
    "v1,v2",
    [
        (R(0), R(0)),
        (R(1), R(1)),
        (R(1), R(1, 3)),
        (R(1, 2), R(1, 2)),
        (R(1, 3), R(2, 3)),
        (R(7, 11), R(5, 13)),
        (R(1, 100000), R(1)),
        (R(99999, 100000), R(99999, 100000)),
    ],
)
def test_robust_error_band_at_certified_eps(v1, v2):
    eps = R(1, 10**5)
    got = lift_output(build_robust_multiplier, v1, v2, eps)
    assert got == robust_lift_value(v1, v2, eps)
    assert BINARY_LOG.within_error(got - v1 * v2, 1, eps)


@settings(max_examples=200, deadline=None)
@given(rationals_01(1000), rationals_01(1000))
def test_robust_oracle_error_band_wide(v1, v2):
    # the closed form is cheap, so sweep it much harder than the circuits
    eps = R(1, 10**6)
    value = robust_lift_value(v1, v2, eps)
    assert BINARY_LOG.within_error(value - v1 * v2, 1, eps)


@settings(max_examples=200, deadline=None)
@given(rationals_01(1000), rationals_01(1000), st.sampled_from([R(1, 20), R(1, 100)]))
def test_unary_oracle_error_band_wide(v1, v2, eps):
    assert UNARY_POLY.within_error(unary_lift_value(v1, v2, eps) - v1 * v2, 1, eps)


def test_unary_worked_example_is_exact():
    eps = R(1, 100)
    tau = 3 * eps
    v1 = 7 * tau + eps / 4  # 17/80, lights exactly 7 thresholds
    v2 = 3 * tau - eps / 8  # 71/800, lights exactly 2
    got = lift_output(build_unary_multiplier, v1, v2, eps)
    assert got == 14 * tau * tau == R(63, 5000)
    assert abs(got - v1 * v2) <= 19 * eps
    assert abs(got - 12 * tau * tau) <= 19 * eps


def test_unary_output_caps_at_one():
    # 2 cells at eps = 1/4: thresholds at 3/4 and 1, zeta = 9/16 per cell
    assert unary_lift_value(R(1), R(1), R(1, 4)) == 1
    got = lift_output(build_unary_multiplier, R(1), R(1), R(1, 4))
    assert got == 1


def test_brittle_code_caps_below_one():
    # v1 = 1 must not need a beta+1-digit code
    eps = R(1, 10**4)
    assert brittle_lift_value(R(1), R(1), eps) == R(127, 128)


# ---------------------------------------------------------------------------
# multipliers sharing their first input's digits

FAN_EPS = R(1, 10**5)  # beta = 9, so the digits resolve multiples of 1/512
FAN_MARGIN = 3 * 9 * FAN_EPS  # a brittle copy is reliable this far from a multiple


def fan_out_cases():
    """in1 and three in2 values: pure, the planted mixed profiles' values,
    and in1 at, and within 3 beta eps of, multiples of 2^-beta."""
    rng = random.Random(29)
    seeded = lambda: tuple(R(rng.randint(0, den), den) for den in (97, 100, 256))  # noqa: E731
    cases = {"pure-0": (R(0), (R(1), R(0), R(1))), "pure-1": (R(1), (R(1), R(0), R(1)))}
    for seed, plant in MIXED_PLANTS.items():
        cases[f"mixed-{seed}"] = (plant[0][1], tuple(p[1] for p in plant))
    for k in (1, 256, 511):
        for name, off in (("at", 0), ("below", -FAN_MARGIN), ("above", FAN_MARGIN), ("just-above", FAN_EPS)):
            cases[f"{name}-{k}"] = (R(k, 512) + off, seeded())
    return cases


FAN_OUT = fan_out_cases()


@pytest.mark.parametrize("case", FAN_OUT)
def test_multipliers_sharing_digits_keep_their_guarantee(case):
    v1, v2s = FAN_OUT[case]
    c = GadgetCircuit()
    a = c.add_input()
    bs = [c.add_input() for _ in v2s]
    outs = [build_robust_multiplier(c, a, b, FAN_EPS) for b in bs]
    assert c.num_players == 4 + predicted_player_count("log_digits", FAN_EPS) + 3 * predicted_player_count(
        "log_product", FAN_EPS
    )
    inputs = {a.player: v1, **{b.player: v2 for b, v2 in zip(bs, v2s)}}
    profile = c.lift(inputs)
    assert c.combine().verify_wsne(profile, FAN_EPS, clamped=set(inputs)).ok
    assert list(profile) == spec_walk_lift(c, inputs)
    for out, v2 in zip(outs, v2s):
        got = profile[out.player][1]
        assert got == robust_lift_value(v1, v2, FAN_EPS)
        assert BINARY_LOG.within_error(got - v1 * v2, 1, FAN_EPS)
    if case.startswith(("at-", "above-", "just-above-")):
        # the brittle regime: the lowest staggered copy reads a digit fewer,
        # and the median discards it
        delta = 7 * 9 * FAN_EPS
        votes = {brittle_lift_value(x, R(1), FAN_EPS) for x in (v1, v1 - delta, v1 - 2 * delta)}
        assert len(votes) == 2


# ---------------------------------------------------------------------------
# chains


def test_chain_single_input_copies():
    c = GadgetCircuit()
    (a,) = [c.add_input()]
    p = build_multiplication_chain(c, [a], R(1, 20), "unary")
    profile = c.lift({a.player: R(2, 3)})
    game = c.combine()
    assert game.verify_wsne(profile, R(0), clamped={a.player}).ok
    assert profile[p.player][1] == R(2, 3)
    assert chain_lift_value([R(2, 3)], R(1, 20)) == R(2, 3)


@pytest.mark.parametrize("construction", ["unary", "log"])
def test_chain_three_inputs(construction):
    eps = R(1, 20) if construction == "unary" else R(1, 1000)
    values = [R(1, 2), R(3, 4), R(1, 3)]
    c = GadgetCircuit()
    ins = [c.add_input() for _ in values]
    p = build_multiplication_chain(c, ins, eps, construction)
    profile = c.lift({t.player: v for t, v in zip(ins, values)})
    game = c.combine()
    result = game.verify_wsne(profile, R(0), clamped={t.player for t in ins})
    assert result.ok, result.violations
    got = profile[p.player][1]
    assert got == chain_lift_value(values, eps, construction)
    params = get_params(construction)
    assert params.within_error(got - R(1, 8), len(values), eps)
    (spec,) = c.specs
    assert spec.kind == "mult_chain"
    assert len(spec.internal) == 2


def test_build_multiplier_dispatch():
    got = lift_output(build_multiplier, R(1, 2), R(1, 2), R(1, 20), construction="unary")
    assert got == unary_lift_value(R(1, 2), R(1, 2), R(1, 20))
    got = lift_output(build_multiplier, R(1, 2), R(1, 2), R(1, 1000), construction="log")
    assert got == robust_lift_value(R(1, 2), R(1, 2), R(1, 1000))
    with pytest.raises(ParameterError):
        lift_output(build_multiplier, R(1, 2), R(1, 2), R(1, 20), construction="nope")
