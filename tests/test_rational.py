"""Exact-arithmetic tests: parsing, formatting and rounding of Fractions."""

import fractions

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nashreduce import ACTIVE
from nashreduce._rational import R, iceil, ifloor, rational, rational_str


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
    assert ifloor(R(7, 2)) == 3
    assert iceil(R(7, 2)) == 4
    assert ifloor(R(-7, 2)) == -4
    assert iceil(R(-7, 2)) == -3
    assert ifloor(R(6, 2)) == iceil(R(6, 2)) == 3
    assert ifloor(5) == iceil(5) == 5


@given(n=st.integers(-10**9, 10**9), d=st.integers(1, 10**6))
def test_floor_ceil_consistent(n, d):
    q = R(n, d)
    f, c = ifloor(q), iceil(q)
    assert f <= q <= c
    assert c - f == (0 if q == f else 1)
