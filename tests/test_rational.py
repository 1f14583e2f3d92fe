"""Exact-arithmetic tests: parsing, formatting and rounding of Fractions."""

import fractions
from math import ceil, floor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nashreduce import ACTIVE
from nashreduce._rational import R, rational, rational_str


class TestParsing:
    def test_int(self):
        assert rational(7) == 7

    def test_pair(self):
        q = rational(3, 4)
        assert q * 4 == 3

    def test_string_fraction(self):
        assert rational("3/4") == rational(3, 4)

    def test_string_integer(self):
        assert rational("-12") == -12

    def test_negative_denominator_normalizes(self):
        q = rational(1, -2)
        assert q == rational(-1, 2)

    def test_from_fraction(self):
        other = fractions.Fraction(22, 7)
        assert rational(other) == other

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            rational(0.5)
        with pytest.raises(TypeError):
            rational(1, 2.0)

    @pytest.mark.parametrize("text", ["0.5", "1e3"])
    def test_decimal_string_rejected(self, text):
        # Fraction itself would accept these
        assert fractions.Fraction(text)
        with pytest.raises(ValueError):
            rational(text)

    @pytest.mark.parametrize("text", ["-1/-2", "1_0/3", "+1/2", " 1/2", "1/2\n", "\u0663/4", "1/", ""])
    def test_string_outside_the_file_grammar_rejected(self, text):
        with pytest.raises(ValueError):
            rational(text)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            rational("1/0")

    def test_always_a_fraction(self):
        for q in (rational(7), rational(3, 4), rational("5/6"), rational(fractions.Fraction(1, 2))):
            assert type(q) is fractions.Fraction


def test_active_names_fractions():
    assert ACTIVE.name == "fractions"


def test_rational_str():
    assert rational_str(R(5)) == "5"
    assert rational_str(R(10, 4)) == "5/2"
    assert rational_str(R(-1, 3)) == "-1/3"
    assert rational_str(R(4, 2)) == "2"


def test_floor_ceil():
    # the package rounds rationals with math.floor and math.ceil, which
    # return ints for Fractions and ints
    assert floor(R(7, 2)) == 3
    assert ceil(R(7, 2)) == 4
    assert floor(R(-7, 2)) == -4
    assert ceil(R(-7, 2)) == -3
    assert floor(R(6, 2)) == ceil(R(6, 2)) == 3
    assert floor(5) == ceil(5) == 5
    assert {type(f(q)) for f in (floor, ceil) for q in (R(7, 2), R(-7, 2), 5)} == {int}


@given(n=st.integers(-10**9, 10**9), d=st.integers(1, 10**6))
def test_floor_ceil_consistent(n, d):
    q = R(n, d)
    f, c = floor(q), ceil(q)
    assert type(f) is type(c) is int
    assert f <= q <= c
    assert c - f == (0 if q == f else 1)
