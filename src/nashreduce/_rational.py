"""Exact rational arithmetic on :class:`fractions.Fraction`.

All payoff arithmetic in this package is exact: values are ``Fraction``
objects, or plain ints where an int is the natural value, never floats.
New values are built with :func:`rational`, which checks its arguments
more strictly than ``Fraction`` does: it rejects floats and complex
numbers, and reads strings, from files and flags alike, only in the
grammar ``-?[0-9]+(/[0-9]+)?``, so ``"0.5"`` and ``" 1/2"`` fail.  Where
a hot loop has summed int numerators over a known int denominator (see
:func:`exact_sum` and the payoff kernel in :mod:`nashreduce.model`), it
builds the result with ``Fraction(numerator, denominator)`` directly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from numbers import Rational
from types import SimpleNamespace

from .errors import ParameterError

__all__ = [
    "ACTIVE",
    "rational",
    "R",
    "rational_str",
    "unit_denominator",
    "exact_sum",
]

# the package's one rational type, by name
ACTIVE = SimpleNamespace(name="fractions")

_INEXACT = (float, complex)
_GRAMMAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # ASCII digits only


def rational(value, den=None) -> Fraction:
    """A ``Fraction`` from an int, an ``"n"`` or ``"n/d"`` string, or
    another exact rational.

    ``den`` gives an explicit denominator for an integer numerator.
    Floats and complex numbers raise ``TypeError``: they are not exact.  A
    string outside ``-?[0-9]+(/[0-9]+)?`` raises ``ValueError``, and a zero
    denominator ``ZeroDivisionError``.
    """
    if isinstance(value, _INEXACT) or isinstance(den, _INEXACT):
        raise TypeError(
            "floats are not exact; pass an int, an 'n/d' string, or a rational"
        )
    if den is not None:
        return Fraction(_as_int(value, "numerator"), _as_int(den, "denominator"))
    if isinstance(value, str):
        match = _GRAMMAR.fullmatch(value)
        if match is None:
            raise ValueError(f"invalid rational {value!r}")
        return Fraction(int(match[1]), int(match[2] or 1))
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    raise TypeError(f"cannot build a rational from {type(value).__name__}")


R = rational


def _as_int(value, what: str) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, Rational) and value.denominator == 1:
        return int(value.numerator)
    raise TypeError(f"{what} must be an integer, got {type(value).__name__}")


def rational_str(value) -> str:
    """Canonical string form: ``"n"`` for integers, else ``"n/d"`` in lowest terms."""
    n, d = value.numerator, value.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def unit_denominator(step, what: str = "grid step") -> int:
    """``D`` for a grid step ``1/D`` with ``D`` a positive integer.

    ``step`` is anything :func:`rational` accepts; any other step value
    raises :class:`ParameterError` naming ``what``.
    """
    step = rational(step)
    if step.numerator != 1:
        raise ParameterError(
            f"{what} must be 1/D for a positive integer D, got {rational_str(step)}"
        )
    return step.denominator


def exact_sum(pairs) -> tuple[int, int]:
    """``sum(n / d for n, d in pairs)`` in lowest terms, as an int pair
    ``(total, den)``; each ``d`` is a positive int.

    Numerators that share a denominator are added as plain ints first;
    then the per-denominator sums are combined as in Knuth's fraction
    addition, which keeps the running sum in lowest terms so that its
    denominator grows no faster than the true sum's.
    """
    groups: dict = {}
    for n, d in pairs:
        groups[d] = groups.get(d, 0) + n
    total, den = 0, 1
    for d, n in groups.items():
        g = gcd(n, d)
        n, d = n // g, d // g
        g = gcd(den, d)
        s = den // g
        total = total * (d // g) + n * s
        den = s * d
        g = gcd(total, g)
        if g > 1:
            total, den = total // g, den // g
    return total, den
