"""Exact rational arithmetic with a compiled backend when available.

All payoff arithmetic in this package is exact: values are rationals, never
floats.  Two interchangeable backends provide the rational type:

* ``gmpy2.mpq`` -- compiled, considerably faster on large reductions;
* ``fractions.Fraction`` -- pure Python, always available.

The active backend is chosen once at import time: ``gmpy2`` when importable,
otherwise ``fractions``.  Set ``NASHREDUCE_RATIONAL_BACKEND`` to ``gmpy2`` or
``fractions`` to force the choice.  Both backends remain available side by
side as :data:`GMPY2` and :data:`FRACTIONS`, which is how the benchmark and
the test suite exercise the pure fallback without re-importing the package.

Code elsewhere in the package is backend-agnostic: it does arithmetic on
whatever rational objects it is handed and uses plain ints ``0``/``1`` as
neutral elements.  It builds new values with :func:`rational`, or, where a
hot loop has summed int numerators over a known int denominator (see
:func:`common_denominator` and :func:`exact_sum`), with
``ACTIVE.make(numerator, denominator)``, the active backend's constructor
without the argument checks.  Either way only ``.numerator``,
``.denominator`` and :mod:`math` look inside a value, so the two backends
stay interchangeable.
"""

from __future__ import annotations

import fractions
import os
from dataclasses import dataclass
from math import gcd, lcm
from typing import Any, Callable

__all__ = [
    "RationalBackend",
    "GMPY2",
    "FRACTIONS",
    "ACTIVE",
    "rational",
    "R",
    "rational_str",
    "ifloor",
    "iceil",
    "is_rational",
    "common_denominator",
    "exact_sum",
]

_INEXACT = (float, complex)


@dataclass(frozen=True)
class RationalBackend:
    """A rational-number implementation: a name plus a ``(num, den)`` constructor."""

    name: str
    make: Callable[[int, int], Any]

    def rational(self, value, den=None):
        """Build a rational from an int, a ``"n/d"`` string, or another rational.

        ``den`` gives an explicit denominator for an integer numerator.
        Floats are rejected: they are not exact.
        """
        if isinstance(value, _INEXACT) or isinstance(den, _INEXACT):
            raise TypeError(
                "floats are not exact; pass an int, an 'n/d' string, or a rational"
            )
        if den is not None:
            return self.make(_as_int(value, "numerator"), _as_int(den, "denominator"))
        if isinstance(value, str):
            text = value.strip()
            num, sep, d = text.partition("/")
            if sep:
                return self.make(int(num), int(d))
            return self.make(int(text), 1)
        if isinstance(value, int):
            return self.make(value, 1)
        if is_rational(value):
            return self.make(int(value.numerator), int(value.denominator))
        raise TypeError(f"cannot build a rational from {type(value).__name__}")


def _as_int(value, what: str) -> int:
    if isinstance(value, int):
        return value
    if is_rational(value) and value.denominator == 1:
        return int(value.numerator)
    raise TypeError(f"{what} must be an integer, got {type(value).__name__}")


def is_rational(value) -> bool:
    """True for objects exposing exact ``numerator``/``denominator`` attributes."""
    return (
        hasattr(value, "numerator")
        and hasattr(value, "denominator")
        and not isinstance(value, _INEXACT)
    )


FRACTIONS = RationalBackend("fractions", fractions.Fraction)

try:
    import gmpy2 as _gmpy2
except ImportError:  # pragma: no cover - exercised via env override tests
    GMPY2 = None
else:
    GMPY2 = RationalBackend("gmpy2", _gmpy2.mpq)


def _select(env: str | None) -> RationalBackend:
    if env:
        name = env.strip().lower()
        if name == "gmpy2":
            if GMPY2 is None:
                raise RuntimeError(
                    "NASHREDUCE_RATIONAL_BACKEND=gmpy2 but gmpy2 is not installed"
                )
            return GMPY2
        if name in ("fractions", "fraction", "pure"):
            return FRACTIONS
        raise RuntimeError(f"unknown rational backend {env!r}")
    return GMPY2 if GMPY2 is not None else FRACTIONS


ACTIVE = _select(os.environ.get("NASHREDUCE_RATIONAL_BACKEND"))


def rational(value, den=None):
    """Build a rational with the active backend.  See :meth:`RationalBackend.rational`."""
    return ACTIVE.rational(value, den)


R = rational


def rational_str(value) -> str:
    """Canonical string form: ``"n"`` for integers, else ``"n/d"`` in lowest terms."""
    n, d = value.numerator, value.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def ifloor(value) -> int:
    """Exact floor of a rational, as a plain int."""
    if isinstance(value, int):
        return value
    return int(value.numerator // value.denominator)


def iceil(value) -> int:
    """Exact ceiling of a rational, as a plain int."""
    if isinstance(value, int):
        return value
    return -int((-value.numerator) // value.denominator)


def common_denominator(values) -> tuple[int, list[int]]:
    """``(L, nums)`` with ``values[c] == nums[c] / L`` exactly, where ``L``
    is the lcm of the values' own denominators (1 when there are none).

    Sums over ``nums`` are plain int arithmetic.  Meant for short vectors:
    with many distinct denominators ``L`` gets huge, and :func:`exact_sum`
    is the cheaper way to add them.
    """
    scale = lcm(*{x.denominator for x in values})
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def exact_sum(values) -> tuple[int, int]:
    """``sum(values)`` in lowest terms, as an int pair ``(total, den)``.

    Numerators that share a denominator are added as plain ints first;
    then the per-denominator sums are combined as in Knuth's fraction
    addition, which keeps the running sum in lowest terms so that its
    denominator grows no faster than the true sum's.
    """
    groups: dict = {}
    for x in values:
        d = x.denominator
        groups[d] = groups.get(d, 0) + x.numerator
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
