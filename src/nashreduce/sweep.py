"""Exhaustive guarantee sweeps for the gadget library.

For every gadget kind and every grid combination of clamped input values,
this module computes the *exact* set of output values the well-supported
verifier accepts -- over all grid assignments of the gadget's internal
players -- and checks that set against the gadget's advertised guarantee
envelope.

Enumerating internal profiles directly is hopeless (a median gadget has
40 internal players), so acceptance sets are computed in closed form:

* A *decision* player (threshold, and, compare) has a payoff difference
  ``d = u1 - u0`` that is constant in its own play, so its accepted
  values are ``{0}`` when ``d <= eps``, ``{1}`` when ``d >= -eps``, and
  every interior grid point when both hold.
* Every other primitive is an output/auxiliary *two-cycle* whose
  auxiliary earns ``(p + C, K)``: the output accepts ``0`` iff
  ``K - C <= eps``, ``1`` iff ``K - C >= 1 - eps``, and the interior
  grid points within ``eps`` of ``K - C`` provided some interior grid
  value falls in the auxiliary's indifference window ``(1 ± eps)/2``.
* Both affine forms -- ``d`` and ``K - C`` -- come from
  :func:`nashreduce.gadgets.primitive_gap`, which derives them from the
  gadget table :data:`nashreduce.gadgets.PRIMITIVES`, the one source of
  each primitive's payoffs; the composites below name the primitives
  they are built from.
* ``K - C`` is affine in the upstream values, so when an upstream value
  ranges over a contiguous run of grid points the union of acceptance
  windows is a single interval -- exact as long as one grid step moves
  ``K - C`` by at most ``2 eps``, which is asserted.
* Composites are trees once the inputs are fixed, with two exceptions:
  inside max, compare/minus/sum share the *same* input players, so max
  is evaluated pointwise on its input values (memoized across the
  sweep); min and median are compositions of complements and maxes over
  distinct players and reuse the same machinery.

Accepted sets are bitmasks over grid indices ``0..g`` (bit ``i`` means
value ``i/g``), making unions cheap and the envelope check a single
``accepted & ~allowed == 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from ._rational import iceil, ifloor, rational, unit_denominator
from .errors import ParameterError
from .gadgets import GADGET_INFO, GADGET_KINDS, PRIMITIVES, primitive_gap
from .model import Rat

Source = object  # a rational input value or an int bitmask of grid values
Term = tuple  # (coefficient, Source)


# ---------------------------------------------------------------------------
# bitmask helpers


def _full_mask(g: int) -> int:
    return (1 << (g + 1)) - 1


def _range_mask(g: int, lo: int, hi: int) -> int:
    lo = max(lo, 0)
    hi = min(hi, g)
    if lo > hi:
        return 0
    return ((1 << (hi - lo + 1)) - 1) << lo


def _band_mask(g: int, value: Rat, width: Rat) -> int:
    """Grid indices within ``width`` of ``value`` (endpoints included)."""
    return _range_mask(g, iceil((value - width) * g), ifloor((value + width) * g))


def mask_values(g: int, mask: int) -> list[Rat]:
    """The grid values a bitmask contains."""
    return [rational(i, g) for i in range(g + 1) if mask >> i & 1]


def _mask_spans(mask: int) -> list[tuple[int, int]]:
    spans = []
    i = 0
    while mask:
        if mask & 1:
            j = i
            while mask & 2:
                mask >>= 1
                j += 1
            spans.append((i, j))
            i = j
        mask >>= 1
        i += 1
    return spans


def _spans_of(g: int, source: Source) -> list[tuple[Rat, Rat, bool]]:
    """Value intervals a source covers, as ``(low, high, more_than_one_point)``."""
    if is_mask(source):
        return [
            (rational(lo, g), rational(hi, g), hi > lo) for lo, hi in _mask_spans(source)
        ]
    return [(source, source, False)]


def is_mask(source: Source) -> bool:
    return type(source) is int


def _points_of(g: int, source: Source) -> list[Rat]:
    if is_mask(source):
        return mask_values(g, source)
    return [source]


# ---------------------------------------------------------------------------
# closed-form acceptance


def _rectangles(
    g: int, eps: Rat, terms: Sequence[Term]
) -> Iterator[tuple[Rat, Rat]]:
    """Ranges of ``sum(coef * value)`` over each combination of source spans.

    Asserts the contiguity condition: within a multi-point span, one grid
    step may move the sum by at most ``2 eps``, otherwise the interval
    union below would overshoot the true acceptance set.
    """
    span_lists = []
    for coef, source in terms:
        spans = _spans_of(g, source)
        if any(multi for _, _, multi in spans) and abs(coef) > 2 * eps * g:
            raise ParameterError(
                f"internal grid step 1/{g} is too coarse for a gadget "
                f"coefficient of {coef} at eps {eps}"
            )
        span_lists.append([(coef * lo, coef * hi) for lo, hi, _ in spans])
    for choice in product(*span_lists):
        lo = sum((min(a, b) for a, b in choice), rational(0))
        hi = sum((max(a, b) for a, b in choice), rational(0))
        yield lo, hi


def _decision_mask(g: int, eps: Rat, const: Rat, terms: Sequence[Term]) -> int:
    """Accepted values of a single player whose payoff gap is affine.

    ``d = u1 - u0 = const + sum(coef * value)`` does not depend on the
    player's own strategy, so ``0`` is accepted iff ``d <= eps`` is
    achievable, ``1`` iff ``d >= -eps`` is achievable, and every interior
    point iff some achievable ``d`` lies within ``eps`` of zero.
    """
    accepted = 0
    interior = _range_mask(g, 1, g - 1)
    for lo, hi in _rectangles(g, eps, terms):
        lo, hi = const + lo, const + hi
        if lo <= eps:
            accepted |= 1
        if hi >= -eps:
            accepted |= 1 << g
        if lo <= eps and hi >= -eps:
            accepted |= interior
    return accepted


def _aux_window_nonempty(g: int, eps: Rat) -> bool:
    lo = max(1, iceil((1 - eps) * g / 2))
    hi = min(g - 1, ifloor((1 + eps) * g / 2))
    return lo <= hi


def _two_cycle_mask(g: int, eps: Rat, const: Rat, terms: Sequence[Term]) -> int:
    """Accepted values of a two-cycle output with ``K - C`` affine in inputs."""
    accepted = 0
    has_window = _aux_window_nonempty(g, eps)
    for lo, hi in _rectangles(g, eps, terms):
        kc_lo, kc_hi = const + lo, const + hi
        if kc_lo <= eps:
            accepted |= 1
        if kc_hi >= 1 - eps:
            accepted |= 1 << g
        if has_window:
            accepted |= _range_mask(
                g, max(1, iceil((kc_lo - eps) * g)), min(g - 1, ifloor((kc_hi + eps) * g))
            )
    return accepted


def _primitive_mask(
    kind: str, g: int, eps: Rat, inputs: Sequence[Source], zeta: Rat | None = None
) -> int:
    """Accepted outputs of one primitive, from its gap in the gadget table."""
    form = primitive_gap(kind, zeta, len(inputs))
    accept = _decision_mask if form.decision else _two_cycle_mask
    return accept(g, eps, form.const, list(zip(form.coefs, inputs)))


def _max_mask(g: int, eps: Rat, in1: Source, in2: Source, memo: dict) -> int:
    """Accepted outputs of the max composite over all input value pairs.

    Compare, minus and the final sum all read the same input players, so
    acceptance is computed per value pair and united; the memo is shared
    across a sweep because min/median call this on heavily overlapping
    value sets.
    """
    accepted = 0
    for a in _points_of(g, in1):
        for b in _points_of(g, in2):
            key = (a, b)
            hit = memo.get(key)
            if hit is None:
                is_less = _primitive_mask("compare", g, eps, (a, b))
                excess = _primitive_mask("minus", g, eps, (a, b))
                gated = _primitive_mask("mask", g, eps, (is_less, excess))
                hit = _primitive_mask("scaled_sum", g, eps, (gated, a), rational(1))
                memo[key] = hit
            accepted |= hit
    return accepted


def _min_mask(g: int, eps: Rat, in1: Source, in2: Source, memo: dict) -> int:
    not1 = _primitive_mask("complement", g, eps, (in1,))
    not2 = _primitive_mask("complement", g, eps, (in2,))
    biggest = _max_mask(g, eps, not1, not2, memo)
    return _primitive_mask("complement", g, eps, (biggest,))


def _median_mask(g: int, eps: Rat, in1: Rat, in2: Rat, in3: Rat, memo: dict) -> int:
    hi12 = _max_mask(g, eps, in1, in2, memo)
    lo12 = _min_mask(g, eps, in1, in2, memo)
    capped = _min_mask(g, eps, in3, hi12, memo)
    return _max_mask(g, eps, lo12, capped, memo)


def _bit_extract_mask(g: int, eps: Rat, value: Rat) -> int:
    """Accepted values of the single bit at beta = 1 (a copy into a threshold)."""
    copied = _primitive_mask("scale", g, eps, (value,), rational(1))
    return _primitive_mask("threshold", g, eps, (copied,), rational(1, 2))


# ---------------------------------------------------------------------------
# guarantee envelopes


def _envelope(kind: str, g: int, eps: Rat, inputs: Sequence[Rat], zeta: Rat | None) -> int:
    """Bitmask of output values the gadget's guarantee allows."""
    full = _full_mask(g)
    one = 1 << g
    if kind == "threshold":
        (v,) = inputs
        if v > zeta + eps:
            return one
        if v < zeta - eps:
            return 1
        return full
    if kind == "and":
        v1, v2 = inputs
        if v1 == 1 and v2 == 1:
            return one
        if v1 == 0 or v2 == 0:
            return 1
        return full
    if kind == "compare":
        v1, v2 = inputs
        if v1 < v2 - eps:
            return one
        if v1 > v2 + eps:
            return 1
        return full
    if kind == "scaled_sum":
        return _band_mask(g, min(zeta * sum(inputs), rational(1)), eps)
    if kind == "minus":
        v1, v2 = inputs
        return _band_mask(g, max(rational(0), v2 - v1), eps)
    if kind == "complement":
        return _band_mask(g, 1 - inputs[0], eps)
    if kind == "assign":
        return _band_mask(g, zeta, eps)
    if kind == "scale":
        return _band_mask(g, zeta * inputs[0], eps)
    if kind == "mask":
        v1, v2 = inputs
        allowed = full
        if v1 == 1:
            allowed &= _band_mask(g, v2, eps)
        if v1 == 0:
            allowed &= 1
        if v2 <= 2 * eps:
            allowed &= _range_mask(g, 0, ifloor(3 * eps * g))
        return allowed
    if kind == "max":
        return _band_mask(g, max(inputs), 4 * eps)
    if kind == "min":
        return _band_mask(g, min(inputs), 8 * eps)
    if kind == "median":
        return _band_mask(g, sorted(inputs)[1], 20 * eps)
    if kind == "bit_extract":
        (v,) = inputs
        half = rational(1, 2)
        if all(abs(v - t) > 3 * eps for t in (rational(0), half, rational(1))):
            return one if v > half else 1
        return full
    raise ParameterError(f"unknown gadget kind {kind!r}")


# ---------------------------------------------------------------------------
# the sweep


@dataclass(frozen=True)
class SweepCase:
    """One input combination: what was accepted vs. what the guarantee allows."""

    kind: str
    inputs: tuple[Rat, ...]
    zeta: Rat | None
    accepted: int
    allowed: int

    @property
    def ok(self) -> bool:
        return self.accepted & ~self.allowed == 0


@dataclass(frozen=True)
class SweepReport:
    """Envelope-soundness result for one gadget kind."""

    kind: str
    eps: Rat
    input_step: Rat
    internal_step: Rat
    cases: int
    empty: int
    failures: tuple[SweepCase, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _accepted_mask(
    kind: str, g: int, eps: Rat, inputs: Sequence[Rat], zeta: Rat | None, memo: dict
) -> int:
    if kind in PRIMITIVES:
        return _primitive_mask(kind, g, eps, inputs, zeta)
    if kind == "max":
        return _max_mask(g, eps, inputs[0], inputs[1], memo)
    if kind == "min":
        return _min_mask(g, eps, inputs[0], inputs[1], memo)
    if kind == "median":
        return _median_mask(g, eps, inputs[0], inputs[1], inputs[2], memo)
    if kind == "bit_extract":
        return _bit_extract_mask(g, eps, inputs[0])
    raise ParameterError(f"unknown gadget kind {kind!r}")


def _case_stream(kind: str, values: list[Rat]) -> Iterator[tuple[tuple[Rat, ...], Rat | None]]:
    info = GADGET_INFO[kind]
    arity = 2 if info.arity is None else info.arity  # scaled_sum: two inputs
    for zeta in values if info.takes_zeta else [None]:
        for inputs in product(values, repeat=arity):
            # the median construction is symmetric in its first two arguments
            if kind == "median" and inputs[1] < inputs[0]:
                continue
            yield inputs, zeta


def sweep_gadget(
    kind: str,
    eps: Rat = rational(1, 20),
    input_step=rational(1, 20),
    internal_step=rational(1, 100),
) -> SweepReport:
    """Check one gadget kind's guarantee over every grid input combination.

    For each combination of input values (and scaling parameter, where the
    gadget takes one) on the ``input_step`` grid, the exact set of
    verifier-accepted output values over the ``internal_step`` grid is
    compared against the guarantee envelope.  A case fails when some
    accepted output value falls outside the envelope; every failing case
    is kept for diagnosis.
    """
    if kind not in GADGET_KINDS:
        raise ParameterError(f"unknown gadget kind {kind!r}")
    eps = rational(eps)
    if not 0 < eps < 1:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    g_in = unit_denominator(input_step, "input grid step")
    g = unit_denominator(internal_step, "internal grid step")
    values = [rational(i, g_in) for i in range(g_in + 1)]
    memo: dict = {}
    cases = 0
    empty = 0
    failures: list[SweepCase] = []
    for inputs, zeta in _case_stream(kind, values):
        accepted = _accepted_mask(kind, g, eps, inputs, zeta, memo)
        allowed = _envelope(kind, g, eps, inputs, zeta)
        cases += 1
        if accepted == 0:
            empty += 1
        if accepted & ~allowed:
            failures.append(SweepCase(kind, tuple(inputs), zeta, accepted, allowed))
    return SweepReport(
        kind=kind,
        eps=eps,
        input_step=rational(1, g_in),
        internal_step=rational(1, g),
        cases=cases,
        empty=empty,
        failures=tuple(failures),
    )


def sweep_all(
    eps: Rat = rational(1, 20),
    input_step=rational(1, 20),
    internal_step=rational(1, 100),
) -> dict[str, SweepReport]:
    """Run :func:`sweep_gadget` for every registered gadget kind."""
    return {
        kind: sweep_gadget(kind, eps, input_step, internal_step) for kind in GADGET_KINDS
    }
