"""Linear multiplication gadgets.

Every builder here is a composite gadget, built through the protocol that
:class:`~nashreduce.gadgets.GadgetCircuit` describes.

A multiplication gadget forces its output player to carry (approximately)
the product of its two input values, using only pairwise payoffs.  Two
constructions are provided, trading size against accuracy:

* ``unary`` -- a grid of threshold/and cells; O(1/eps^2) players; output
  within ``19 * eps`` of the product; valid for ``eps <= 1/4``.
* ``log`` -- binary digits of the first input, masked and recombined;
  O(log(1/eps)) players; output within ``3 * sqrt(eps)`` of the product.
  The builder accepts ``eps <= 1/1000`` (all component preconditions hold
  there); the stated error band is certified for ``eps <= 1/100000``.

The ``log`` construction is the median of three *brittle* multipliers, each
correct only when its first input is far from every multiple of
``2^-beta``; shifting the input by 0, ``delta`` and ``2*delta`` guarantees
at most one copy is unreliable, and the median discards it.

Multiplying ``m`` values chains ``m - 1`` gadgets; the accumulated error is
at most ``d * m * eps^c`` with ``(c, d) = (1, 19)`` for unary and
``(1/2, 3)`` for log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ._rational import iceil, rational
from .errors import ParameterError
from .gadgets import GadgetCircuit, Tap
from .model import _check_exact

Rat = Any

__all__ = [
    "MultParams",
    "UNARY_POLY",
    "BINARY_LOG",
    "MULT_PARAMS",
    "beta_for_eps",
    "unary_cells",
    "build_unary_multiplier",
    "build_brittle_multiplier",
    "build_robust_multiplier",
    "build_multiplier",
    "build_multiplication_chain",
    "predicted_player_count",
]


@dataclass(frozen=True)
class MultParams:
    """Size/accuracy contract of a multiplication-gadget construction.

    A chain of gadgets multiplying ``m`` values at tolerance ``eps <= eps0``
    carries total error at most ``d * m * eps**c``.
    """

    construction: str
    eps0: Rat
    c: Rat
    d: int

    def within_error(self, diff: Rat, m: int, eps: Rat) -> bool:
        """Exact check of ``|diff| <= d * m * eps**c`` (c is 1 or 1/2)."""
        bound_scale = self.d * m
        if self.c == 1:
            return abs(diff) <= bound_scale * eps
        if 2 * self.c == 1:
            return diff * diff <= bound_scale * bound_scale * eps
        raise ParameterError(f"unsupported error exponent c={self.c}")

    def eps_m_from(self, eps_k: Rat, nmax: int, k: int) -> Rat:
        """Gadget tolerance needed so a k-player reduction loses at most eps_k."""
        base = eps_k / (3 * nmax * self.d * k)
        if self.c == 1:
            candidate = base
        elif 2 * self.c == 1:
            candidate = base * base
        else:
            raise ParameterError(f"unsupported error exponent c={self.c}")
        return min(candidate, self.eps0)


UNARY_POLY = MultParams("unary", rational(1, 4), rational(1), 19)
BINARY_LOG = MultParams("log", rational(1, 100000), rational(1, 2), 3)
MULT_PARAMS: dict[str, MultParams] = {
    UNARY_POLY.construction: UNARY_POLY,
    BINARY_LOG.construction: BINARY_LOG,
}


def get_params(construction: str) -> MultParams:
    try:
        return MULT_PARAMS[construction]
    except KeyError:
        raise ParameterError(
            f"unknown construction {construction!r}; choose from {sorted(MULT_PARAMS)}"
        ) from None


def beta_for_eps(eps: Rat) -> int:
    """Number of binary digits: the smallest beta >= 1 with 4^beta >= 1/eps."""
    if eps <= 0 or eps >= 1:
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    beta = 1
    while 4**beta * eps < 1:
        beta += 1
    return beta


def unary_cells(eps: Rat) -> int:
    """Grid resolution of the unary construction: C = ceil(1 / (3 eps))."""
    return iceil(1 / (3 * eps))


def _check_brittle_eps(eps: Rat, beta: int) -> None:
    # reliable digits need inputs 3*beta*eps-far from multiples of 2^-beta,
    # which requires that margin to fit twice into one cell
    if 6 * beta * eps * 2**beta >= 1:
        raise ParameterError(
            f"eps={eps} is too coarse for beta={beta} binary digits "
            "(need 6*beta*eps < 2^-beta)"
        )


# ---------------------------------------------------------------------------
# builders


def build_unary_multiplier(
    circuit: GadgetCircuit, in1: Tap, in2: Tap, eps: Rat, out: Tap | None = None
) -> Tap:
    """Product of two values within ``19 * eps``, for ``eps <= 1/4``.

    Both inputs are discretized in unary on a grid of pitch ``tau = 3 eps``;
    an AND cell lights up for every pair of lit thresholds, and the output
    sums the lit cells scaled by ``tau^2``.
    """
    _check_exact((eps,), "eps")
    if eps <= 0 or eps > UNARY_POLY.eps0:
        raise ParameterError(f"unary multiplier needs 0 < eps <= 1/4, got {eps}")
    tau = 3 * eps
    cells = unary_cells(eps)
    one = rational(1)
    params = (("eps", eps), ("tau", tau), ("cells", cells))
    with circuit._composite("unary_mult", (in1, in2), out, params) as outputs:
        lit1 = [circuit.build_threshold(in1, min(i * tau, one)) for i in range(1, cells + 1)]
        lit2 = [circuit.build_threshold(in2, min(i * tau, one)) for i in range(1, cells + 1)]
        grid = [circuit.build_and(a, b) for a in lit1 for b in lit2]
        outputs.append(circuit.build_scaled_sum(grid, tau * tau, out=out))
    return outputs[0]


def build_brittle_multiplier(
    circuit: GadgetCircuit, in1: Tap, in2: Tap, eps: Rat, out: Tap | None = None
) -> Tap:
    """Product via binary digits of the first input; small but *brittle*.

    The output is correct (within the digit resolution ``2^-beta``) only
    when value(in1) is at least ``3 * beta * eps`` away from every multiple
    of ``2^-beta``; elsewhere it is arbitrary.
    """
    _check_exact((eps,), "eps")
    beta = beta_for_eps(eps)
    _check_brittle_eps(eps, beta)
    with circuit._composite("brittle_mult", (in1, in2), out, (("eps", eps), ("beta", beta))) as outputs:
        bits = circuit.build_bit_extract(in1, beta)
        gated = []
        for i, bit in enumerate(bits, start=1):
            weight = rational(1, 2**i)
            share = circuit.build_scale(in2, weight)
            gated.append(circuit.build_mask(bit, share))
        outputs.append(circuit.build_scaled_sum(gated, rational(1), out=out))
    return outputs[0]


def build_robust_multiplier(
    circuit: GadgetCircuit, in1: Tap, in2: Tap, eps: Rat, out: Tap | None = None
) -> Tap:
    """Product of two values within ``3 * sqrt(eps)``, via a median of three
    brittle multipliers evaluated at staggered shifts of the first input.

    Accepts ``eps <= 1/1000`` (components remain sound); the error band is
    certified for ``eps <= 1/100000``.
    """
    _check_exact((eps,), "eps")
    if eps <= 0 or eps > rational(1, 1000):
        raise ParameterError(f"robust multiplier needs 0 < eps <= 1/1000, got {eps}")
    beta = beta_for_eps(eps)
    _check_brittle_eps(eps, beta)
    delta = 7 * beta * eps
    floor_value = 2 * delta + 7 * eps
    if floor_value > 1:
        raise ParameterError(
            f"eps={eps} makes the staggering floor {floor_value} exceed 1"
        )
    params = (("eps", eps), ("beta", beta), ("delta", delta))
    with circuit._composite("robust_mult", (in1, in2), out, params) as outputs:
        floor_const = circuit.build_assign(floor_value)
        raised = circuit.build_max(in1, floor_const)
        shift1 = circuit.build_assign(delta)
        shift2 = circuit.build_assign(2 * delta)
        lowered1 = circuit.build_minus(shift1, raised)  # max(0, raised - delta)
        lowered2 = circuit.build_minus(shift2, raised)  # max(0, raised - 2*delta)
        votes = [build_brittle_multiplier(circuit, x, in2, eps) for x in (raised, lowered1, lowered2)]
        outputs.append(circuit.build_median(*votes, out=out))
    return outputs[0]


def build_multiplier(
    circuit: GadgetCircuit,
    in1: Tap,
    in2: Tap,
    eps: Rat,
    construction: str = "unary",
    out: Tap | None = None,
) -> Tap:
    """Dispatch to the requested construction (``unary`` or ``log``).  A
    repeated multiplier is built once per circuit and stamped (the same
    players, edges and specs); a builder called directly always builds."""
    get_params(construction)
    builder = build_unary_multiplier if construction == "unary" else build_robust_multiplier
    return circuit._build_repeated(
        (construction, type(eps), eps), lambda a, b, o: builder(circuit, a, b, eps, out=o), in1, in2, out
    )


def build_multiplication_chain(
    circuit: GadgetCircuit,
    inputs: Sequence[Tap],
    eps: Rat,
    construction: str = "unary",
    out: Tap | None = None,
) -> Tap:
    """Product of ``m >= 1`` values by folding two-input multipliers left to
    right; total error at most ``d * m * eps^c``.  A single input is copied."""
    taps = list(inputs)
    if not taps:
        raise ParameterError("a multiplication chain needs at least one input")
    _check_exact((eps,), "eps")
    get_params(construction)
    params = (("eps", eps), ("construction", construction), ("m", len(taps)))
    with circuit._composite("mult_chain", taps, out, params) as outputs:
        acc = taps[0] if len(taps) > 1 else circuit.build_copy(taps[0], out=out)
        for m, nxt in enumerate(taps[1:], start=2):
            acc = build_multiplier(circuit, acc, nxt, eps, construction, out=out if m == len(taps) else None)
        outputs.append(acc)
    return acc


# ---------------------------------------------------------------------------
# size accounting


def predicted_player_count(construction: str, eps: Rat) -> int:
    """Players a standalone two-input multiplier creates (output included).

    Closed forms: ``C^2 + 2C + 2`` for unary with ``C = ceil(1/(3 eps))``
    cells, and ``27 * beta + 57`` for the log construction (three brittle
    copies at ``9 beta`` each, plus 17 for the staggering and 40 for the
    median).
    """
    if construction == "unary":
        cells = unary_cells(eps)
        return cells * cells + 2 * cells + 2
    if construction == "brittle":
        return 9 * beta_for_eps(eps)
    if construction == "log":
        return 27 * beta_for_eps(eps) + 57
    raise ParameterError(f"unknown construction {construction!r}")
