"""The binary gadget library and the circuit builder that wires gadgets up.

A *gadget* is a tiny polymatrix fragment whose designated binary *output*
player is forced, in any eps-well-supported equilibrium, to represent a
function of the values carried by its *input* players.  The value carried by
a player is the probability it assigns to a designated pure strategy (a
:class:`Tap`); inputs are clamped (they receive no payoffs from the gadget),
so the guarantee holds whatever the inputs do.

Thirteen gadget kinds are provided.  Nine are primitive:

========== ============================ =======================================
kind       output guarantee (±eps)      notes
========== ============================ =======================================
threshold  1 if v1 > z+eps, 0 if < z-eps decision gadget, no error band
and        1 if v1=v2=1; 0 if either =0  needs eps < 1/4
scaled_sum min(z*(v1+...+vm), 1)         one aux player
compare    1 if v1 < v2-eps, 0 if >      decision gadget
minus      max(0, v2 - v1)               one aux player
complement 1 - v1                        one aux player
assign     z (a constant)                no inputs; one aux player
scale      z * v1                        one aux player
mask       v2 if v1=1; 0 if v1=0;        one aux player; also forced to 0+-3eps
                                         whenever v2 <= 2eps
========== ============================ =======================================

and four are composites of those: ``max`` (error 4 eps), ``min`` (8 eps),
``median`` (20 eps), and ``bit_extract`` (beta binary digits of v1, correct
whenever v1 is far enough from a multiple of 2^-beta).

Each primitive's payoffs are written once, in :data:`PRIMITIVES`: whether
it is a decision gadget or an output/aux two-cycle, and the tap pairs its
deciding player reads.  The builder lays each read out once per circuit, a
frozen template matrix, and :func:`primitive_gap` derives from the table
the affine payoff gap that the lift here and the closed-form sweep in
:mod:`nashreduce.sweep` evaluate.

Every builder also has an exact *lift*: given exact values for the clamped
inputs, :meth:`GadgetCircuit.lift` completes them to a profile in which every
non-input player is exactly best-responding (a 0-WSNE relative to the
clamped inputs).  Decision gadgets break payoff ties toward strategy 1.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from math import gcd, lcm
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._rational import Fraction, rational
from .errors import (
    CycleDetected,
    DuplicateOutput,
    ParameterError,
    SizeBudgetExceeded,
)
from .model import (
    PlayerInfo,
    PolymatrixGame,
    Role,
    ScaledProfile,
    _matrix_key,
    _scaled_blocks,
    make_matrix,
)

Rat = Any

__all__ = [
    "Tap",
    "GadgetSpec",
    "GadgetCircuit",
    "GADGET_KINDS",
    "GADGET_INFO",
    "GadgetInfo",
    "PRIMITIVES",
    "primitive_gap",
    "spec_player_count",
    "DEFAULT_PLAYER_BUDGET",
    "PLAYER_BUDGET_ENV",
    "resolve_player_budget",
]

PLAYER_BUDGET_ENV = "NASHREDUCE_PLAYER_BUDGET"
DEFAULT_PLAYER_BUDGET = 10_000_000


def resolve_player_budget(explicit: int | None = None) -> int:
    """``explicit`` if given, else ``NASHREDUCE_PLAYER_BUDGET`` (an empty
    value counts as unset), else :data:`DEFAULT_PLAYER_BUDGET`.  A budget
    that is not a positive integer raises :class:`ParameterError`."""
    budget = explicit
    if budget is None:
        raw = os.environ.get(PLAYER_BUDGET_ENV, "")
        if not raw:
            return DEFAULT_PLAYER_BUDGET
        try:
            budget = int(raw)
        except ValueError:
            raise ParameterError(f"{PLAYER_BUDGET_ENV} must be an integer, got {raw!r}") from None
    if budget < 1:
        raise ParameterError("player budget must be positive")
    return budget


class Tap(NamedTuple):
    """A value carried by a player: the probability of one pure strategy."""

    player: int
    strategy: int = 1


@dataclass(frozen=True)
class GadgetSpec:
    """One recorded gadget: wiring, parameters, and the players it created.

    ``internal`` is empty for primitive gadgets; for composites it lists the
    sub-gadgets in evaluation order and ``created``/``aux`` are empty (the
    sub-gadgets own their players).
    """

    kind: str
    inputs: tuple[Tap, ...]
    outputs: tuple[Tap, ...]
    params: tuple[tuple[str, Any], ...] = ()
    aux: tuple[int, ...] = ()
    created: tuple[int, ...] = ()
    internal: tuple["GadgetSpec", ...] = ()

    @property
    def output(self) -> Tap:
        return self.outputs[0]

    def param(self, name: str):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


def spec_player_count(spec: GadgetSpec) -> int:
    """Players created by this gadget, including all composite internals."""
    return len(spec.created) + sum(spec_player_count(s) for s in spec.internal)


@dataclass(frozen=True)
class GadgetInfo:
    kind: str
    arity: int | None  # None: variable (scaled_sum)
    takes_zeta: bool
    error_band: str
    summary: str

    @property
    def aux_players(self) -> int | None:
        """1 for a two-cycle, 0 for a decision gadget, None for a composite
        (its count depends on its parameters)."""
        primitive = PRIMITIVES.get(self.kind)
        return None if primitive is None else int(primitive.two_cycle)


GADGET_INFO: dict[str, GadgetInfo] = {
    info.kind: info
    for info in [
        GadgetInfo("threshold", 1, True, "decision", "1 if v1 > z, 0 if v1 < z (eps margin)"),
        GadgetInfo("and", 2, False, "decision", "1 if v1 = v2 = 1, 0 if either is 0 (eps < 1/4)"),
        GadgetInfo("scaled_sum", None, True, "1*eps", "min(z*(v1+...+vm), 1)"),
        GadgetInfo("compare", 2, False, "decision", "1 if v1 < v2, 0 if v1 > v2 (eps margin)"),
        GadgetInfo("minus", 2, False, "1*eps", "max(0, v2 - v1)"),
        GadgetInfo("complement", 1, False, "1*eps", "1 - v1"),
        GadgetInfo("assign", 0, True, "1*eps", "the constant z"),
        GadgetInfo("scale", 1, True, "1*eps", "z * v1"),
        GadgetInfo("mask", 2, False, "3*eps", "v2 if v1 = 1; 0 if v1 = 0; near 0 if v2 near 0"),
        GadgetInfo("max", 2, False, "4*eps", "max(v1, v2)"),
        GadgetInfo("min", 2, False, "8*eps", "min(v1, v2)"),
        GadgetInfo("median", 3, False, "20*eps", "median(v1, v2, v3)"),
        GadgetInfo("bit_extract", 1, False, "bit decisions", "beta binary digits of v1"),
    ]
}

GADGET_KINDS: tuple[str, ...] = tuple(GADGET_INFO)

# (col0, col1) as taken by GadgetCircuit._add_tap_matrix
TapPair = tuple[tuple[Rat, Rat], tuple[Rat, Rat]]


class Primitive(NamedTuple):
    """How a primitive gadget pays the player that decides its output.

    A decision gadget's output player reads each input itself.  A
    two-cycle's output P imitates an aux player W, and W reads the output
    (first pair) and then each input.  ``reads(zeta, m)`` gives the pairs
    for a gadget with ``m`` inputs (zeta is None for kinds without one).
    """

    two_cycle: bool
    reads: Callable[[Rat | None, int], Sequence[TapPair]]


_W_READS_OUTPUT: TapPair = ((0, 0), (1, 0))  # W's strategy 0 earns the output value
_IMITATE = ((1, 0), (0, 1))  # a two-cycle's output P imitates W
_3_8, _1_2 = rational(3, 8), rational(1, 2)

#: The one source of every primitive's payoffs: the builder writes these
#: matrices, and the lift and the sweep read the gap they imply.
PRIMITIVES: dict[str, Primitive] = {
    "threshold": Primitive(False, lambda z, m: [((z, 0), (z, 1))]),
    "and": Primitive(False, lambda z, m: [((_3_8, 0), (_3_8, _1_2))] * m),
    "scaled_sum": Primitive(True, lambda z, m: [_W_READS_OUTPUT] + [((0, 0), (0, z))] * m),
    "compare": Primitive(False, lambda z, m: [((0, 0), (1, 0)), ((0, 0), (0, 1))]),
    "minus": Primitive(True, lambda z, m: [_W_READS_OUTPUT, ((0, 0), (0, -1)), ((0, 0), (0, 1))]),
    "complement": Primitive(True, lambda z, m: [_W_READS_OUTPUT, ((0, 1), (0, 0))]),
    # the constant rides on W's read of the output
    "assign": Primitive(True, lambda z, m: [((0, z), (1, z))]),
    "scale": Primitive(True, lambda z, m: [_W_READS_OUTPUT, ((0, 0), (0, z))]),
    "mask": Primitive(True, lambda z, m: [_W_READS_OUTPUT, ((2, 0), (0, 0)), ((0, 0), (0, 1))]),
}


class AffineGap(NamedTuple):
    """The deciding player's payoff gap ``u1 - u0 = (const + sum(coef * v_i)) / den``,
    over one common denominator ``den > 0``: ``const`` and ``coefs`` are ints."""

    decision: bool
    const: int
    coefs: tuple[int, ...]
    den: int


@lru_cache(maxsize=1024)
def primitive_gap(kind: str, zeta: Rat | None, arity: int) -> AffineGap:
    """Derive a primitive's affine gap from its :data:`PRIMITIVES` tap pairs.

    Reading tap value v with pair (col0, col1) adds ``col0[1] - col0[0]``
    plus ``(col1[1] - col1[0]) - (col0[1] - col0[0])`` per unit of v.  A
    decision gadget's output best-responds to the gap's sign.  For a
    two-cycle the gap is W's at output value 0 (its read of the output
    costs exactly 1 per unit), so the output is forced to the gap clamped
    to [0, 1].  The constant and coefficients are scaled to ints over the
    lcm of their denominators, worked out here once per gadget shape.
    """
    primitive = PRIMITIVES[kind]
    const = 0
    coefs = []
    for col0, col1 in primitive.reads(zeta, arity):
        base = col0[1] - col0[0]
        const += base
        coefs.append(col1[1] - col1[0] - base)
    if primitive.two_cycle:
        assert coefs[0] == -1, kind
        del coefs[0]
    den = lcm(const.denominator, *(c.denominator for c in coefs))
    return AffineGap(
        not primitive.two_cycle, int(const * den), tuple(int(c * den) for c in coefs), den
    )


class _TapColumns(NamedTuple):
    """A recorded edge reading an input: its tapped and other columns, and
    the matrix as recorded, for a copy whose input has the recorded shape."""

    tapped: tuple
    other: tuple
    shape: tuple[int, int]
    matrix: tuple


class _Recording(NamedTuple):
    """What one build added, in its indices: players from ``base`` on, and
    edges between those and ``slots`` (its input players, then any ``out``)."""

    base: int
    slots: tuple[int, ...]
    counts: tuple[int, ...]
    players: tuple[PlayerInfo, ...]
    edges: tuple[tuple[tuple[int, int], Any], ...]  # frozen, shared matrices or _TapColumns
    spec: GadgetSpec
    steps: tuple[tuple, ...]  # _steps(spec)


class _Stamp(NamedTuple):
    """A copy of a recording: its players moved by ``shift``, slots to ``where``."""

    rec: _Recording
    shift: int
    where: dict[int, Tap]

    def moved(self, tap: Tap) -> Tap:
        return self.where[tap.player] if tap.player < self.rec.base else Tap(tap.player + self.shift, tap.strategy)

    def spec(self, g: GadgetSpec | None = None) -> GadgetSpec:
        """The recorded spec tree laid out at this copy's players."""
        g = g or self.rec.spec
        return GadgetSpec(
            g.kind, tuple(map(self.moved, g.inputs)), tuple(map(self.moved, g.outputs)), g.params,
            tuple(p + self.shift for p in g.aux), tuple(p + self.shift for p in g.created),
            tuple(map(self.spec, g.internal)),
        )


def _plain(g: GadgetSpec | _Stamp) -> GadgetSpec:
    """``g`` as a plain spec tree, every stamp in it laid out."""
    if type(g) is _Stamp:
        return g.spec()
    return replace(g, internal=tuple(map(_plain, g.internal))) if g.internal else g


def _steps(g: GadgetSpec) -> Iterator[tuple]:
    """Each primitive of ``g`` as (affine gap, input taps, output, aux or None)."""
    for sub in g.internal:
        yield from _steps(sub)
    if not g.internal:
        zeta = g.param("zeta") if GADGET_INFO[g.kind].takes_zeta else None
        yield primitive_gap(g.kind, zeta, len(g.inputs)), g.inputs, g.output.player, g.aux[0] if g.aux else None


# the (units, scale) strategies lift shares: pure 0, pure 1, and W's indifference
_PURE = (((1, 0), 1), ((0, 1), 1))
_HALF = ((1, 1), 2)


def _check_zeta(zeta: Rat) -> Rat:
    if not isinstance(zeta, (int, Fraction)):
        raise ParameterError(f"zeta must be an exact rational, got {zeta!r}")
    if zeta < 0 or zeta > 1:
        raise ParameterError(f"zeta must lie in [0, 1], got {zeta}")
    return zeta


class GadgetCircuit:
    """Accumulates players, payoff edges, and gadget records; freezes to a game.

    Build order doubles as evaluation order: a gadget may only read taps of
    players that already carry a value (declared inputs or outputs of earlier
    gadgets), which keeps the wiring acyclic by construction.  Builders
    create their own output player unless ``out=`` hands them an existing
    undriven binary player to drive (each player can be driven only once).

    A composite, here or in :mod:`nashreduce.multipliers`, checks its
    parameters and builds inside :meth:`_composite`, which first resolves
    its inputs (a :class:`Tap` or a plain ``(player, strategy)`` pair) and
    checks ``out``.  The gadgets built inside record under it, and its kind
    joins their players' scopes.  On exit it records its
    :class:`GadgetSpec` with the outputs the body gave it; if the body
    raises, it records nothing, and :meth:`lift` names the players made.

    Edges share frozen templates, one per shape of tap read; only an edge
    two gadgets write is an accumulator.  A gadget that a circuit repeats,
    such as the multiplier behind every mediator of a reduction, is built
    once, and its second copy records that build: that copy and every
    later one are stamped from the recording (:meth:`_build_repeated`),
    the same players and edges, and specs kept as a reference to the
    recording, laid out when :attr:`specs` is read.
    A recording is over any list of input slots and outputs, so a log
    multiplier stamps its first input's digits and its product apart.
    """

    def __init__(self, player_budget: int | None = None):
        self.player_budget = resolve_player_budget(player_budget)
        self._counts: list[int] = []
        self._players: list[PlayerInfo] = []
        # an accumulator list, or a frozen matrix other edges may share
        self._edges: dict[tuple[int, int], Any] = {}
        self._specs: list[GadgetSpec | _Stamp] = []  # a stamp stands for its laid-out spec
        # one (scope prefix, recorded specs) per open composite, under the top level
        self._frames: list[tuple[str, list[GadgetSpec | _Stamp]]] = [("", self._specs)]
        self._inputs: set[int] = set()
        self._driven: set[int] = set()
        # a repeated gadget's first build: (base, stop, taps, slots, spec, edges written)
        self._firsts: dict[tuple, tuple] = {}
        self._recordings: dict[tuple, _Recording] = {}
        # outputs a composite shares with every later reader, by its key (a
        # log multiplier's digits; see nashreduce.multipliers)
        self._shared: dict[tuple, tuple[Tap, ...]] = {}
        # (input size, tapped strategy, col0, col1, entry types) -> matrix
        self._templates: dict[tuple, tuple] = {}

    # -- players and edges ---------------------------------------------------

    @property
    def num_players(self) -> int:
        return len(self._counts)

    @property
    def strategy_counts(self) -> tuple[int, ...]:
        return tuple(self._counts)

    @property
    def specs(self) -> tuple[GadgetSpec, ...]:
        return tuple(map(_plain, self._specs))

    def undriven_players(self) -> tuple[int, ...]:
        return tuple(
            i
            for i in range(self.num_players)
            if i not in self._driven and i not in self._inputs
        )

    def add_player(self, n: int = 2, role: Role = Role.PLAIN, scope: str = "") -> int:
        """A raw player with no payoffs yet; drive it later via ``out=``."""
        if n < 2:
            raise ParameterError("players need at least two pure strategies")
        self._reserve(1)
        self._counts.append(n)
        self._players.append(PlayerInfo(role, scope))
        return self.num_players - 1

    def _reserve(self, n: int) -> None:
        if self.num_players + n > self.player_budget:
            raise SizeBudgetExceeded(
                f"player budget of {self.player_budget} players exhausted"
            )

    def add_input(self, n: int = 2, label: str = "", role: Role = Role.PLAIN) -> Tap:
        """A clamped input player; its value is read at strategy 1."""
        name = label or str(len(self._inputs))
        idx = self.add_player(n, role, f"input:{name}")
        self._inputs.add(idx)
        return Tap(idx, 1)

    def add_edge_matrix(self, i: int, j: int, matrix: Sequence[Sequence[Rat]]) -> None:
        """Accumulate raw payoff entries for player ``i`` against player ``j``."""
        self._check_player(i)
        self._check_player(j)
        if i == j:
            raise ParameterError("self-edges are not allowed")
        acc = self._acc(i, j)
        if len(matrix) != self._counts[i] or any(
            len(row) != self._counts[j] for row in matrix
        ):
            raise ParameterError(
                f"edge ({i}, {j}) matrix must be {self._counts[i]}x{self._counts[j]}"
            )
        for r, row in enumerate(matrix):
            for c, x in enumerate(row):
                acc[r][c] = acc[r][c] + x

    def _check_player(self, i: int) -> None:
        if not 0 <= i < self.num_players:
            raise ParameterError(f"no player {i} in this circuit")

    def _acc(self, i: int, j: int) -> list[list[Rat]]:
        key = (i, j)
        acc = self._edges.get(key)
        if acc is None:
            acc = self._edges[key] = [[0] * self._counts[j] for _ in range(self._counts[i])]
        else:  # a shared frozen matrix, or an accumulator a first build noted: add into a copy
            acc = self._edges[key] = [list(row) for row in acc]
        return acc

    def _merge(self, key: tuple[int, int], mat) -> None:
        """Add ``mat`` to edge ``key``; a new edge takes ``mat`` itself."""
        if key in self._edges:
            self.add_edge_matrix(*key, mat)
        else:
            self._edges[key] = mat

    def _tap_matrix(self, n: int, s: int, col0: tuple, col1: tuple) -> tuple:
        """The frozen matrix whose column ``s`` of ``n`` is ``col1`` and every
        other column ``col0``, one object per circuit for equal entries.

        The key holds each entry's type and its int numerator and
        denominator, which hash in C, as :func:`~nashreduce.model._matrix_key` does."""
        (a, b), (c, d) = col0, col1
        key = (n, s, type(a), type(b), type(c), type(d), a.numerator, a.denominator,
               b.numerator, b.denominator, c.numerator, c.denominator, d.numerator, d.denominator)
        mat = self._templates.get(key)
        if mat is None:
            mat = self._templates[key] = tuple(zip(*(col1 if c == s else col0 for c in range(n))))
        return mat

    def _add_tap_matrix(self, i: int, tap: Tap, col0: tuple[Rat, Rat], col1: tuple[Rat, Rat]) -> None:
        """Payoffs for binary player ``i`` reading ``tap``: the tap's column
        gets ``col1``, every other column of the source player gets ``col0``
        (so the expected payoff depends on the source only through the tap
        value v: row r earns col0[r]*(1-v) + col1[r]*v)."""
        self._merge((i, tap.player), self._tap_matrix(self._counts[tap.player], tap.strategy, col0, col1))

    # -- gadget plumbing -------------------------------------------------------

    def _scope(self, kind: str) -> str:
        return self._frames[-1][0] + kind

    def _resolve_taps(self, taps: Iterable[Tap]) -> tuple[Tap, ...]:
        out = []
        for tap in taps:
            tap = Tap(*tap)
            self._check_player(tap.player)
            if not 0 <= tap.strategy < self._counts[tap.player]:
                raise ParameterError(
                    f"tap strategy {tap.strategy} outside player {tap.player}'s range"
                )
            if tap.player not in self._driven and tap.player not in self._inputs:
                raise CycleDetected(
                    f"player {tap.player} carries no value yet; gadget wiring must "
                    "be acyclic (inputs first, then gadgets in evaluation order)"
                )
            out.append(tap)
        return tuple(out)

    def _check_output(self, out: Tap | None) -> None:
        """Raise as :meth:`_claim_output` would for ``out``, claiming nothing."""
        if out is None:
            return
        out = Tap(*out)
        self._check_player(out.player)
        if out.strategy != 1 or self._counts[out.player] != 2:
            raise ParameterError("gadget outputs must be binary players tapped at strategy 1")
        if out.player in self._driven:
            raise DuplicateOutput(f"player {out.player} is already driven by a gadget")
        if out.player in self._inputs:
            raise ParameterError(f"player {out.player} is a clamped input; it cannot be driven")

    def _claim_output(self, out: Tap | None, kind: str) -> tuple[Tap, tuple[int, ...]]:
        """Return (output tap, created players) for a builder."""
        if out is None:
            idx = self.add_player(2, Role.GADGET_AUX, self._scope(kind))
            self._driven.add(idx)
            return Tap(idx, 1), (idx,)
        self._check_output(out)
        out = Tap(*out)
        self._driven.add(out.player)
        return out, ()

    def _aux(self, kind: str) -> int:
        idx = self.add_player(2, Role.GADGET_AUX, self._scope(kind) + ":aux")
        self._driven.add(idx)
        return idx

    def _record(self, spec: GadgetSpec | _Stamp) -> None:
        self._frames[-1][1].append(spec)

    @contextmanager
    def _composite(
        self, kind: str, inputs: Iterable[Tap], out: Tap | None = None, params: tuple[tuple[str, Any], ...] = ()
    ) -> Iterator[list[Tap]]:
        """Build composite ``kind`` in the body, which appends its outputs to
        the list this yields; see the class docstring."""
        taps = self._resolve_taps(inputs)
        self._check_output(out)
        inner: list[GadgetSpec | _Stamp] = []
        outputs: list[Tap] = []
        self._frames.append((f"{self._frames[-1][0]}{kind}/", inner))
        try:
            yield outputs
        finally:
            self._frames.pop()
        self._record(GadgetSpec(kind, taps, tuple(outputs), params, internal=tuple(inner)))

    def _build_repeated(
        self, key: tuple, build: Callable[..., tuple[Tap, ...]], inputs: Sequence[Tap], out: Tap | None
    ) -> tuple[Tap, ...]:
        """``build(inputs, out)``, a composite over the resolved taps
        ``inputs`` (its spec's inputs, in order) that returns its outputs, and
        whose gadgets depend only on ``key``, on whether ``out`` is given and
        on the scope.  The first call builds and notes what ``build`` added;
        the second records that, and it and every later call check ``out``
        and stamp the recording at their own players, laying out an edge that
        reads an input once per input size and tapped strategy.  Inputs that
        share a player are always built.
        """
        taps = {tap.player: tap.strategy for tap in inputs}
        if len(taps) < len(inputs):
            return build(inputs, out)
        key = (key, out is not None, self._frames[-1][0])
        rec = self._recordings.get(key)
        if rec is None and key not in self._firsts:
            base, outer, self._edges = self.num_players, self._edges, {}
            try:
                outputs = build(inputs, out)
            finally:
                delta, self._edges = self._edges, outer
                if out is None:  # only out can have had edges before
                    outer.update(delta)
                else:
                    for edge, acc in delta.items():
                        self._merge(edge, acc)
            slots = (*taps, *([] if out is None else [Tap(*out).player]))
            self._firsts[key] = (base, self.num_players, taps, slots, self._frames[-1][1][-1], delta)
            return outputs
        if rec is None:
            base, stop, taps, slots, spec, delta = self._firsts.pop(key)
            interned: dict = {}
            edges = []
            for (i, j), acc in delta.items():
                mat = make_matrix(acc)
                if j in taps:
                    cols = tuple(zip(*mat))
                    mat = _TapColumns(cols[taps[j]], cols[taps[j] - 1], (len(cols), taps[j]), mat)
                else:
                    mat = interned.setdefault(_matrix_key(mat), mat)
                edges.append(((i, j), mat))
            counts, players = tuple(self._counts[base:stop]), tuple(self._players[base:stop])
            rec = _Recording(base, slots, counts, players, tuple(edges), spec, tuple(_steps(spec)))
            self._recordings[key] = rec
        self._reserve(len(rec.counts))
        if out is not None:
            out, _ = self._claim_output(out, rec.spec.kind)
        shift = self.num_players - rec.base
        where = dict(zip(rec.slots, (*inputs, out)))
        self._counts += rec.counts
        self._players += rec.players
        self._driven.update(range(rec.base + shift, self.num_players))
        edges, base = self._edges, rec.base
        for (i, j), mat in rec.edges:
            if j >= base:
                j += shift
            else:
                j, s = where[j]
                if type(mat) is _TapColumns:
                    n = self._counts[j]
                    mat = mat.matrix if (n, s) == mat.shape else self._tap_matrix(n, s, mat.other, mat.tapped)
            if i >= base:
                edges[i + shift, j] = mat  # a player this copy made has no edges yet
            else:
                self._merge((where[i].player, j), mat)
        stamp = _Stamp(rec, shift, where)
        self._record(stamp)
        return tuple(map(stamp.moved, rec.spec.outputs))

    # -- primitive builders ----------------------------------------------------

    def _build_primitive(
        self, kind: str, inputs: Sequence[Tap], zeta: Rat | None, out: Tap | None
    ) -> Tap:
        """Wire one primitive gadget from its :data:`PRIMITIVES` entry."""
        params: tuple[tuple[str, Any], ...] = ()
        if GADGET_INFO[kind].takes_zeta:
            zeta = _check_zeta(zeta)
            params = (("zeta", zeta),)
        taps = self._resolve_taps(inputs)
        if not taps and GADGET_INFO[kind].arity is None:
            raise ParameterError(f"{kind} needs at least one input")
        p, created = self._claim_output(out, kind)
        primitive = PRIMITIVES[kind]
        reads = primitive.reads(zeta, len(taps))
        if primitive.two_cycle:
            w = self._aux(kind)
            self._add_tap_matrix(w, p, *reads[0])
            self._merge((p.player, w), _IMITATE)
            reader, aux, reads = w, (w,), reads[1:]
        else:
            reader, aux = p.player, ()
        for tap, (col0, col1) in zip(taps, reads):
            self._add_tap_matrix(reader, tap, col0, col1)
        self._record(GadgetSpec(kind, taps, (p,), params, aux=aux, created=created + aux))
        return p

    def build_threshold(self, in1: Tap, zeta: Rat, out: Tap | None = None) -> Tap:
        """Output 1 when value(in1) > zeta + eps, 0 when below zeta - eps."""
        return self._build_primitive("threshold", [in1], zeta, out)

    def build_and(self, in1: Tap, in2: Tap, out: Tap | None = None) -> Tap:
        """Output 1 when both values are 1, 0 when either is 0 (for eps < 1/4)."""
        return self._build_primitive("and", [in1, in2], None, out)

    def build_compare(self, in1: Tap, in2: Tap, out: Tap | None = None) -> Tap:
        """Output 1 when value(in1) < value(in2) - eps, 0 when > value(in2) + eps."""
        return self._build_primitive("compare", [in1, in2], None, out)

    def build_scaled_sum(
        self, inputs: Sequence[Tap], zeta: Rat, out: Tap | None = None
    ) -> Tap:
        """Output min(zeta * sum(values), 1), within eps."""
        return self._build_primitive("scaled_sum", inputs, zeta, out)

    def build_minus(self, in1: Tap, in2: Tap, out: Tap | None = None) -> Tap:
        """Output max(0, value(in2) - value(in1)), within eps."""
        return self._build_primitive("minus", [in1, in2], None, out)

    def build_complement(self, in1: Tap, out: Tap | None = None) -> Tap:
        """Output 1 - value(in1), within eps."""
        return self._build_primitive("complement", [in1], None, out)

    def build_assign(self, zeta: Rat, out: Tap | None = None) -> Tap:
        """Output the constant zeta, within eps."""
        return self._build_primitive("assign", [], zeta, out)

    def build_scale(self, in1: Tap, zeta: Rat, out: Tap | None = None) -> Tap:
        """Output zeta * value(in1), within eps."""
        return self._build_primitive("scale", [in1], zeta, out)

    def build_copy(self, in1: Tap, out: Tap | None = None) -> Tap:
        """Output value(in1) itself (a scale by 1), within eps."""
        return self.build_scale(in1, rational(1), out=out)

    def build_mask(self, in1: Tap, in2: Tap, out: Tap | None = None) -> Tap:
        """Output value(in2) when value(in1) = 1 and 0 when value(in1) = 0;
        also forced within 3 eps of 0 whenever value(in2) is within 2 eps of 0."""
        return self._build_primitive("mask", [in1, in2], None, out)

    # -- composite builders ------------------------------------------------------

    def build_max(self, in1: Tap, in2: Tap, out: Tap | None = None) -> Tap:
        """Output max(value(in1), value(in2)), within 4 eps."""
        with self._composite("max", (in1, in2), out) as outputs:
            is_less = self.build_compare(in1, in2)
            excess = self.build_minus(in1, in2)  # max(0, v2 - v1)
            gated = self.build_mask(is_less, excess)
            outputs.append(self.build_scaled_sum([gated, in1], rational(1), out=out))
        return outputs[0]

    def build_min(self, in1: Tap, in2: Tap, out: Tap | None = None) -> Tap:
        """Output min(value(in1), value(in2)), within 8 eps."""
        with self._composite("min", (in1, in2), out) as outputs:
            not1 = self.build_complement(in1)
            not2 = self.build_complement(in2)
            biggest = self.build_max(not1, not2)
            outputs.append(self.build_complement(biggest, out=out))
        return outputs[0]

    def build_median(self, in1: Tap, in2: Tap, in3: Tap, out: Tap | None = None) -> Tap:
        """Output the median of the three values, within 20 eps."""
        with self._composite("median", (in1, in2, in3), out) as outputs:
            hi12 = self.build_max(in1, in2)
            lo12 = self.build_min(in1, in2)
            capped = self.build_min(in3, hi12)
            outputs.append(self.build_max(lo12, capped, out=out))
        return outputs[0]

    def build_bit_extract(self, in1: Tap, beta: int, eps: Rat | None = None) -> tuple[Tap, ...]:
        """The first ``beta`` binary digits of value(in1), most significant first.

        Digit i is reliable when value(in1) is at least 3*beta*eps away from
        every multiple of 2^-beta; pass ``eps`` to enforce the sufficient
        condition eps <= 2^-beta / (48 beta) up front.
        """
        if beta < 1:
            raise ParameterError("beta must be at least 1")
        if eps is not None and eps * 48 * beta * (2**beta) > 1:
            raise ParameterError(
                f"bit extraction with beta={beta} needs eps <= 1/(48*beta*2^beta), got {eps}"
            )
        with self._composite("bit_extract", (in1,), params=(("beta", beta),)) as bits:
            x = self.build_copy(in1)
            for i in range(1, beta + 1):
                weight = rational(1, 2**i)
                bits.append(self.build_threshold(x, weight))
                if i < beta:
                    taken = self.build_scale(bits[-1], weight)
                    x = self.build_minus(taken, x)  # max(0, x - taken)
        return tuple(bits)

    # -- freezing and lifting ------------------------------------------------------

    def combine(self) -> PolymatrixGame:
        """Freeze into a polymatrix game, which checks the payoff range,
        drops all-zero edge matrices and holds one object per distinct
        matrix, so it checks, stores and serializes each once.  The circuit
        then holds the game's matrices in place of its accumulators, and
        drops the edges the game dropped.
        """
        game = PolymatrixGame(self._counts, self._edges, self._players)
        self._edges = dict(game.edges)
        return game

    def lift(self, inputs: Mapping[int, Any]) -> ScaledProfile:
        """Complete exact input values to an exact equilibrium profile.

        ``inputs`` maps each undriven player to either a scalar value in
        [0, 1] (binary players: probability of strategy 1) or a full mixed
        strategy.  Every other player is assigned the value its gadget
        forces; the result is a 0-WSNE when the input players are clamped.

        Each input is validated and scaled to ints once; from there the
        circuit is evaluated on ints.  A player's strategy is held as
        ``(units, scale)``, and pure and indifferent binary strategies are
        shared pairs.  A step's gap :class:`AffineGap` ``(const + sum(coef *
        u / s)) / den`` is summed as a running int pair ``(total, d)``, so a
        decision reads the sign of ``total``, a two-cycle compares it with
        ``d * den``, and only an interior value takes a ``gcd`` to reach
        lowest terms.  A stamped copy reads the gaps of its recording,
        worked out once.

        Returns a :class:`~nashreduce.model.ScaledProfile` of those ints, so
        verifying the profile and lifting it to a bimatrix witness read them
        as they are.  An input player's strategy is the tuple its value gave
        (a mixed strategy as passed, a scalar ``v`` as ``(1 - v, v)``); every
        other player's is built from the ints when first read.
        """
        blocks: list[tuple | None] = [None] * self.num_players
        state: list[tuple | None] = [None] * self.num_players  # (units, scale) per player
        undriven = set(self._inputs) | set(self.undriven_players())
        for player, value in inputs.items():
            self._check_player(player)
            if player not in undriven:
                raise ParameterError(
                    f"player {player} is driven by a gadget; its value cannot be forced"
                )
            what, n = "mixed strategy", self._counts[player]
            if not isinstance(value, (tuple, list)):
                if n != 2:
                    raise ParameterError(
                        f"player {player} is not binary; pass a full mixed strategy"
                    )
                if value < 0 or value > 1:
                    raise ParameterError(f"input value {value} outside [0, 1]")
                value, what = (1 - value, value), f"player {player} strategy"
            blocks[player], (scale,), units = _scaled_blocks(value, (0, n), what)
            state[player] = (tuple(units), scale)
        missing = [p for p in sorted(undriven) if state[p] is None]
        if missing:
            raise ParameterError(f"no input value given for players {missing}")

        def evaluate(steps: Iterable[tuple], shift: int = 0, where: Mapping[int, Tap] = {}) -> None:
            """Drive each step's players, moved by ``shift`` (slots by ``where``)."""
            for form, taps, out, aux in steps:
                total, d = form.const, 1  # gap == total / (d * form.den)
                for coef, (p, s) in zip(form.coefs, taps):
                    p, s = where[p] if p in where else (p + shift, s)
                    held = state[p]
                    if held is None:
                        raise CycleDetected(f"player {p} evaluated before it was driven")
                    units, scale = held
                    u = units[s]
                    if not u:
                        continue
                    if scale == d:
                        total += coef * u
                    else:
                        g = gcd(d, scale)
                        total = total * (scale // g) + coef * u * (d // g)
                        d = d // g * scale
                out = where[out].player if out in where else out + shift
                if form.decision:
                    state[out] = _PURE[total >= 0]
                    continue
                # two-cycle: W is indifferent exactly when the output equals
                # the gap, and the output imitates W
                d *= form.den
                if total <= 0 or total >= d:
                    state[aux + shift] = state[out] = _PURE[total > 0]
                else:
                    g = gcd(total, d)
                    state[aux + shift], state[out] = _HALF, (((d - total) // g, total // g), d // g)

        def walk(entries: Iterable[GadgetSpec | _Stamp]) -> None:
            for g in entries:
                if type(g) is _Stamp:
                    evaluate(g.rec.steps, g.shift, g.where)
                else:
                    walk(g.internal) if g.internal else evaluate(_steps(g))

        walk(self._specs)
        # a composite that raised part-way leaves players no recorded gadget drives
        stranded = [p for p, held in enumerate(state) if held is None]
        if stranded:
            raise ParameterError(f"no recorded gadget drives players {stranded}")
        offsets = tuple(itertools.accumulate(self._counts, initial=0))
        scales = [scale for _, scale in state]  # type: ignore[misc]
        units = list(itertools.chain.from_iterable(units for units, _ in state))  # type: ignore[misc]
        return ScaledProfile(offsets, scales, units, blocks)
