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

Accepted sets are bitmasks over grid indices ``0..g``, making unions cheap
and the envelope check a single ``accepted & ~allowed == 0``.

The closed forms run on ints.  Every value the sweep touches lies on a
known grid, so one scale serves the whole sweep:

* ``L = lcm(g, g_in)`` for internal grid step ``1/g`` and input grid step
  ``1/g_in`` (:func:`_accepted_mask` takes the lcm of ``g`` and its
  inputs' denominators instead).  Every value is an int ``x`` standing for
  ``x / L``, and grid index ``i`` of a mask stands for the value
  ``i * (L // g)``.
* Each primitive's gap is scaled once per sweep to ints over
  ``T = L * D``, where ``D`` is the lcm of the denominators of its
  constant, its coefficients and eps: a value ``x`` contributes
  ``coef * D * x``, and eps becomes ``eps * T``.  Rectangles and gap
  comparisons are int sums and comparisons, window bounds are floor
  divisions by ``T``, and the contiguity condition reads
  ``|coef * D| <= 2 * (eps * D) * g``.
* The max memo is keyed by pairs of int values.

Only the guarantee envelopes, one per case, are computed on rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import ceil, floor, lcm
from typing import Iterator, NamedTuple, Sequence

from ._rational import rational, unit_denominator
from .errors import ParameterError
from .gadgets import GADGET_INFO, GADGET_KINDS, PRIMITIVES, primitive_gap
from .model import Rat

# A source is the set of values a player may carry, as value intervals
# ``(low, high)`` in units of 1/L whose points are one grid step apart: an
# input is one point ``((x, x),)``, an internal output the runs of its mask.
Spans = tuple[tuple[int, int], ...]


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
    return _range_mask(g, ceil((value - width) * g), floor((value + width) * g))


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


# ---------------------------------------------------------------------------
# integer units


class _Gap(NamedTuple):
    """A primitive's affine gap scaled to ints over ``T = L * D``."""

    decision: bool
    const: int  # const * T
    coefs: tuple[int, ...]  # coef * D, applied to values in units of 1/L
    eps: int  # eps * T
    T: int
    limit: int  # 2 * (eps * D) * g: the largest |coef * D| a multi-point span allows


def _aux_window_nonempty(g: int, eps: Rat) -> bool:
    lo = max(1, ceil((1 - eps) * g / 2))
    hi = min(g - 1, floor((1 + eps) * g / 2))
    return lo <= hi


class _Units:
    """One sweep's integer scale ``L`` with its scaled gaps and memos."""

    def __init__(self, g: int, eps: Rat, scale: int):
        self.g = g
        self.eps = eps
        self.scale = scale
        self.step = scale // g  # the value of one internal grid index
        self.has_window = _aux_window_nonempty(g, eps)
        self.interior = _range_mask(g, 1, g - 1)
        self._gaps: dict = {}
        self._spans: dict[int, Spans] = {}
        self.max_memo: dict[tuple[int, int], int] = {}

    def gap(self, kind: str, zeta: Rat | None, arity: int) -> _Gap:
        key = (kind, zeta, arity)
        gap = self._gaps.get(key)
        if gap is None:
            form = primitive_gap(kind, zeta, arity)
            d = lcm(self.eps.denominator, form.den)
            t = self.scale * d
            up = d // form.den
            gap = self._gaps[key] = _Gap(
                form.decision,
                form.const * self.scale * up,
                tuple(c * up for c in form.coefs),
                int(self.eps * t),
                t,
                int(2 * self.eps * d * self.g),
            )
        return gap

    def spans(self, mask: int) -> Spans:
        """A mask's runs of grid indices as value intervals."""
        spans = self._spans.get(mask)
        if spans is None:
            step = self.step
            spans = self._spans[mask] = tuple(
                (lo * step, hi * step) for lo, hi in _mask_spans(mask)
            )
        return spans

    def points(self, source: Spans) -> list[int]:
        return [x for lo, hi in source for x in range(lo, hi + 1, self.step)]


# ---------------------------------------------------------------------------
# closed-form acceptance


def _rectangles(units: _Units, gap: _Gap, sources: Sequence[Spans]) -> Iterator[tuple[int, int]]:
    """Ranges of the gap ``const + sum(coef * value)`` over each combination
    of source spans, in units of 1/T.

    Asserts the contiguity condition: within a multi-point span, one grid
    step may move the sum by at most ``2 eps``, otherwise the interval
    union below would overshoot the true acceptance set.
    """
    span_lists = []
    for coef, source in zip(gap.coefs, sources):
        if abs(coef) > gap.limit and any(lo < hi for lo, hi in source):
            raise ParameterError(
                f"internal grid step 1/{units.g} is too coarse for a gadget "
                f"coefficient of {rational(coef, gap.T // units.scale)} at eps {units.eps}"
            )
        if coef < 0:
            span_lists.append([(coef * hi, coef * lo) for lo, hi in source])
        else:
            span_lists.append([(coef * lo, coef * hi) for lo, hi in source])
    for choice in product(*span_lists):
        lo = hi = gap.const
        for a, b in choice:
            lo += a
            hi += b
        yield lo, hi


def _decision_mask(units: _Units, gap: _Gap, sources: Sequence[Spans]) -> int:
    """Accepted values of a single player whose payoff gap is affine.

    ``d = u1 - u0 = const + sum(coef * value)`` does not depend on the
    player's own strategy, so ``0`` is accepted iff ``d <= eps`` is
    achievable, ``1`` iff ``d >= -eps`` is achievable, and every interior
    point iff some achievable ``d`` lies within ``eps`` of zero.
    """
    eps = gap.eps
    accepted = 0
    for lo, hi in _rectangles(units, gap, sources):
        if lo <= eps:
            accepted |= 1
        if hi >= -eps:
            accepted |= 1 << units.g
        if lo <= eps and hi >= -eps:
            accepted |= units.interior
    return accepted


def _two_cycle_mask(units: _Units, gap: _Gap, sources: Sequence[Spans]) -> int:
    """Accepted values of a two-cycle output with ``K - C`` affine in inputs."""
    g, eps, t = units.g, gap.eps, gap.T
    accepted = 0
    for lo, hi in _rectangles(units, gap, sources):
        if lo <= eps:
            accepted |= 1
        if hi >= t - eps:
            accepted |= 1 << g
        if units.has_window:
            # indices i with lo - eps <= i * T / g <= hi + eps
            accepted |= _range_mask(
                g, max(1, -((eps - lo) * g // t)), min(g - 1, (hi + eps) * g // t)
            )
    return accepted


def _primitive_mask(
    units: _Units, kind: str, sources: Sequence[Spans], zeta: Rat | None = None
) -> int:
    """Accepted outputs of one primitive, from its gap in the gadget table."""
    gap = units.gap(kind, zeta, len(sources))
    accept = _decision_mask if gap.decision else _two_cycle_mask
    return accept(units, gap, sources)


def _max_mask(units: _Units, in1: Spans, in2: Spans) -> int:
    """Accepted outputs of the max composite over all input value pairs.

    Compare, minus and the final sum all read the same input players, so
    acceptance is computed per value pair and united; the memo is shared
    across a sweep because min/median call this on heavily overlapping
    value sets.
    """
    memo = units.max_memo
    accepted = 0
    points2 = units.points(in2)
    for a in units.points(in1):
        for b in points2:
            hit = memo.get((a, b))
            if hit is None:
                pa, pb = ((a, a),), ((b, b),)
                is_less = _primitive_mask(units, "compare", (pa, pb))
                excess = _primitive_mask(units, "minus", (pa, pb))
                gated = _primitive_mask(
                    units, "mask", (units.spans(is_less), units.spans(excess))
                )
                hit = memo[a, b] = _primitive_mask(
                    units, "scaled_sum", (units.spans(gated), pa), 1
                )
            accepted |= hit
    return accepted


def _min_mask(units: _Units, in1: Spans, in2: Spans) -> int:
    not1 = _primitive_mask(units, "complement", (in1,))
    not2 = _primitive_mask(units, "complement", (in2,))
    biggest = _max_mask(units, units.spans(not1), units.spans(not2))
    return _primitive_mask(units, "complement", (units.spans(biggest),))


def _median_mask(units: _Units, in1: Spans, in2: Spans, in3: Spans) -> int:
    hi12 = _max_mask(units, in1, in2)
    lo12 = _min_mask(units, in1, in2)
    capped = _min_mask(units, in3, units.spans(hi12))
    return _max_mask(units, units.spans(lo12), units.spans(capped))


def _bit_extract_mask(units: _Units, value: Spans) -> int:
    """Accepted values of the single bit at beta = 1 (a copy into a threshold)."""
    copied = _primitive_mask(units, "scale", (value,), 1)
    return _primitive_mask(units, "threshold", (units.spans(copied),), rational(1, 2))


def _accepted(units: _Units, kind: str, inputs: Sequence[Spans], zeta: Rat | None) -> int:
    if kind in PRIMITIVES:
        return _primitive_mask(units, kind, inputs, zeta)
    if kind == "max":
        return _max_mask(units, *inputs)
    if kind == "min":
        return _min_mask(units, *inputs)
    if kind == "median":
        return _median_mask(units, *inputs)
    if kind == "bit_extract":
        return _bit_extract_mask(units, *inputs)
    raise ParameterError(f"unknown gadget kind {kind!r}")


def _accepted_mask(
    kind: str, g: int, eps: Rat, inputs: Sequence[Rat], zeta: Rat | None = None
) -> int:
    """Accepted outputs of one gadget at rational input values, on the
    ``1/g`` internal grid; the inputs need not lie on that grid."""
    scale = lcm(g, *(v.denominator for v in inputs))
    points = [v.numerator * (scale // v.denominator) for v in inputs]
    units = _Units(g, rational(eps), scale)
    return _accepted(units, kind, [((x, x),) for x in points], zeta)


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
            allowed &= _range_mask(g, 0, floor(3 * eps * g))
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


def _case_stream(kind: str, values: list[Rat]) -> Iterator[tuple[tuple[int, ...], Rat | None]]:
    """Input index tuples with zeta, in the order the sweep reports them."""
    info = GADGET_INFO[kind]
    arity = 2 if info.arity is None else info.arity  # scaled_sum: two inputs
    for zeta in values if info.takes_zeta else [None]:
        for index in product(range(len(values)), repeat=arity):
            # the median construction is symmetric in its first two arguments
            if kind == "median" and index[1] < index[0]:
                continue
            yield index, zeta


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
    scale = lcm(g, g_in)
    units = _Units(g, eps, scale)
    values = [rational(i, g_in) for i in range(g_in + 1)]
    points = [((x, x),) for x in range(0, scale + 1, scale // g_in)]
    cases = 0
    empty = 0
    failures: list[SweepCase] = []
    for index, zeta in _case_stream(kind, values):
        inputs = tuple(values[i] for i in index)
        accepted = _accepted(units, kind, [points[i] for i in index], zeta)
        allowed = _envelope(kind, g, eps, inputs, zeta)
        cases += 1
        if accepted == 0:
            empty += 1
        if accepted & ~allowed:
            failures.append(SweepCase(kind, inputs, zeta, accepted, allowed))
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
