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
  The builder accepts ``eps <= 1/1000`` except ``1/2304 <= eps < 1/1024``
  and ``1/5376 <= eps < 1/4096``, where no digit count is both fine
  enough and reliable; the stated error band is certified for
  ``eps <= 1/100000``.

The ``log`` construction is the median of three *brittle* multipliers, each
correct only when its first input is far from every multiple of
``2^-beta``; shifting the input by 0, ``delta`` and ``2*delta`` guarantees
at most one copy is unreliable, and the median discards it.  A circuit
builds the first input's *digits* (the staggering and three digit
extractions) once per first input and the *product* from them per
multiplier; see :func:`build_robust_multiplier` for why sharing is sound.
A unary multiplier and each log part are repeated gadgets: a circuit
builds the first and stamps the rest (see ``GadgetCircuit._build_repeated``).

Multiplying ``m`` values chains ``m - 1`` gadgets; the accumulated error is
at most ``d * m * eps^c`` with ``(c, d) = (1, 19)`` for unary and
``(1/2, 3)`` for log.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import Any, Sequence

from ._rational import rational
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
    return ceil(1 / (3 * eps))


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
    def grid(taps: Sequence[Tap], o: Tap | None) -> tuple[Tap]:
        with circuit._composite("unary_mult", taps, o, params) as outputs:
            lit1 = [circuit.build_threshold(taps[0], min(i * tau, one)) for i in range(1, cells + 1)]
            lit2 = [circuit.build_threshold(taps[1], min(i * tau, one)) for i in range(1, cells + 1)]
            ands = [circuit.build_and(a, b) for a in lit1 for b in lit2]
            outputs.append(circuit.build_scaled_sum(ands, tau * tau, out=o))
        return (outputs[0],)
    return circuit._build_repeated(("unary", type(eps), eps), grid, circuit._resolve_taps((in1, in2)), out)[0]


def _digit_product(circuit: GadgetCircuit, bits: Sequence[Tap], in2: Tap, out: Tap | None = None) -> Tap:
    """Sum of value(in2) * 2^-i over the lit digits i of ``bits``."""
    gated = [
        circuit.build_mask(bit, circuit.build_scale(in2, rational(1, 2**i)))
        for i, bit in enumerate(bits, start=1)
    ]
    return circuit.build_scaled_sum(gated, rational(1), out=out)


def _robust_digits(circuit: GadgetCircuit, in1: Tap, eps: Rat, beta: int, delta: Rat) -> tuple[Tap, ...]:
    """``beta`` digits for each brittle copy: of value(in1) raised to the
    staggering floor, then lowered by 0, ``delta`` and ``2 * delta``."""
    with circuit._composite("robust_digits", (in1,), None, (("eps", eps), ("beta", beta), ("delta", delta))) as bits:
        raised = circuit.build_max(in1, circuit.build_assign(2 * delta + 7 * eps))
        shifts = circuit.build_assign(delta), circuit.build_assign(2 * delta)
        lowered = [circuit.build_minus(shift, raised) for shift in shifts]  # max(0, raised - shift)
        for x in (raised, *lowered):
            bits += circuit.build_bit_extract(x, beta)
    return tuple(bits)


def _robust_product(circuit: GadgetCircuit, taps: Sequence[Tap], eps: Rat, beta: int, out: Tap | None) -> tuple[Tap]:
    """The median of the three brittle copies' products, on inputs ``(in1,
    in2, *digits)``; in1 is read only through its digits."""
    with circuit._composite("robust_product", taps, out, (("eps", eps), ("beta", beta))) as outputs:
        in2, bits = taps[1], taps[2:]
        votes = [_digit_product(circuit, bits[i : i + beta], in2) for i in range(0, 3 * beta, beta)]
        outputs.append(circuit.build_median(*votes, out=out))
    return (outputs[0],)


@lru_cache(maxsize=64, typed=True)
def _robust_params(eps: Rat) -> tuple[int, Rat]:
    """(beta, delta) of a robust multiplier at exact ``eps``, checked once per
    value and type of eps."""
    if eps <= 0 or eps > rational(1, 1000):
        raise ParameterError(f"robust multiplier needs 0 < eps <= 1/1000, got {eps}")
    beta = beta_for_eps(eps)
    # reliable digits need inputs 3*beta*eps-far from multiples of 2^-beta,
    # which requires that margin to fit twice into one cell
    if 6 * beta * eps * 2**beta >= 1:
        raise ParameterError(
            f"eps={eps} is too coarse for beta={beta} binary digits "
            "(need 6*beta*eps < 2^-beta)"
        )
    delta = 7 * beta * eps
    floor_value = 2 * delta + 7 * eps
    if floor_value > 1:
        raise ParameterError(
            f"eps={eps} makes the staggering floor {floor_value} exceed 1"
        )
    return beta, delta


def build_robust_multiplier(
    circuit: GadgetCircuit, in1: Tap, in2: Tap, eps: Rat, out: Tap | None = None
) -> Tap:
    """Product of two values within ``3 * sqrt(eps)``, via a median of three
    brittle multipliers evaluated at staggered shifts of the first input.

    Accepts ``eps <= 1/1000`` except ``1/2304 <= eps < 1/1024`` and
    ``1/5376 <= eps < 1/4096``: there ``beta = ceil(log4(1/eps))`` digits
    give ``6 * beta * eps >= 2^-beta``, too coarse for reliable digits.
    The error band is certified for ``eps <= 1/100000``.

    The staggering and the three digit extractions read only in1, so a
    circuit builds them once per first input tap, eps (value and type) and
    scope, and every later multiplier there reads the same digit players;
    only the masks, their sums and the median are built per multiplier.
    Sharing keeps each multiplier's guarantee.  A polymatrix player's
    payoff reads only its own in-edges; a second reader adds out-edges to
    a digit player and leaves its in-edges as they were.  So each
    multiplier's players, with the shared digits, are exactly the players
    of a standalone multiplier, every one best-responding to the same
    payoffs, and a chain of ``m`` values still errs by at most
    ``d * m * eps^c``.
    """
    _check_exact((eps,), "eps")
    beta, delta = _robust_params(eps)
    params = (("eps", eps), ("beta", beta), ("delta", delta))
    with circuit._composite("robust_mult", (in1, in2), out, params) as outputs:
        in1, in2 = Tap(*in1), Tap(*in2)  # resolved by the composite
        key = (in1, type(eps), eps, circuit._scope(""))
        bits = circuit._shared.get(key)
        if bits is None:
            digits = lambda taps, _: _robust_digits(circuit, taps[0], eps, beta, delta)
            bits = circuit._build_repeated(("robust_digits", type(eps), eps), digits, (in1,), None)
        product = lambda taps, o: _robust_product(circuit, taps, eps, beta, o)
        outputs += circuit._build_repeated(("robust_product", type(eps), eps), product, (in1, in2, *bits), out)
    # a multiplier that raised shares no digits
    circuit._shared[key] = bits
    return outputs[0]


def build_multiplier(
    circuit: GadgetCircuit,
    in1: Tap,
    in2: Tap,
    eps: Rat,
    construction: str = "unary",
    out: Tap | None = None,
) -> Tap:
    """Dispatch to the requested construction (``unary`` or ``log``)."""
    get_params(construction)
    build = build_robust_multiplier if construction == "log" else build_unary_multiplier
    return build(circuit, in1, in2, eps, out)


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
    cells, and for the log construction the sum of its parts:
    ``log_digits``, ``15 * beta + 11`` players built once per first input
    (the staggering and three ``5 beta - 2`` digit extractions), and
    ``log_product``, ``12 * beta + 46`` per multiplier.
    """
    if construction == "unary":
        cells = unary_cells(eps)
        return cells * cells + 2 * cells + 2
    if construction == "log":
        return predicted_player_count("log_digits", eps) + predicted_player_count("log_product", eps)
    if construction not in _LOG_SIZES:
        raise ParameterError(f"unknown construction {construction!r}")
    per_digit, fixed = _LOG_SIZES[construction]
    return per_digit * beta_for_eps(eps) + fixed


# (players per binary digit, fixed players) of each digit-based count
_LOG_SIZES = {"log_digits": (15, 11), "log_product": (12, 46)}
