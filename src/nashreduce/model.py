"""Game classes and exact equilibrium verification.

Three game classes are modeled, mirroring the reduction pipeline:

* :class:`NormalFormGame` -- k players, payoff tensors stored as one matrix
  per player (rows: own pure strategies, columns: linearized opponent
  profiles), entries in ``[0, 1]``;
* :class:`PolymatrixGame` -- pairwise interactions only; each directed edge
  ``(i, i')`` carries an ``n_i x n_i'`` matrix, entries in ``[-1, 2]``;
* :class:`BimatrixGame` -- two players; either dense ``(A, B)`` matrices or
  the structured imitation game of a :class:`PolymatrixGame` (very negative
  diagonal blocks, the polymatrix game's own checked edge matrices off the
  diagonal, identity follower payoff) that avoids materializing huge
  matrices.  Its normalizing divisor is derived from alpha and the edges.

Every constructor checks its entries once and stores their range, so
``payoff_range`` reads a stored value.

All values are exact rationals; comparisons in the verifier are exact.  A
mixed strategy is a tuple of rationals that are nonnegative and sum to one.

A profile is an *epsilon-well-supported Nash equilibrium* (eps-WSNE) when
every pure strategy played with positive probability earns within ``eps`` of
that player's best pure response.  ``verify_*`` methods check this exactly
and return the violations found.

Verification runs on ints, in all four game forms.  Each strategy vector
is validated and scaled in one pass to ``(L, nums)``, int numerators over
the lcm ``L`` of its own entries' denominators: exactness and length are
checked as the entries are read, nonnegativity is ``min(nums) >= 0`` and
unit sum is ``sum(nums) == L``.  A structured game's strategies are scaled
block by block, and their unit sum is an exact sum of the per-block pairs.
Vectors the pipeline builds carry their ints: a :class:`ScaledStrategy`
(the witness and its leader) or a :class:`ScaledProfile` (a lifted or
recovered profile) over a game's own blocks skips the pass.
The scaled vectors feed :func:`edge_payoffs`, one pass over the edges (a
normal-form player's payoffs against its opponents' joint distribution,
a dense game's ``A`` and ``B^T``) that weighs each distinct pair of a
matrix object and an opponent strategy once, costs O(players + edges +
distinct pairs x entries) and returns every payoff as an int
``(numerator, denominator)`` pair.  The best-response comparisons and the
support test (``nums[j] > 0``) read those ints directly.  A ``Fraction``
is built only at the API edge: by ``expected_payoffs``, in the fields of
a :class:`Violation` and in the vectors handed back to callers.
"""

from __future__ import annotations

import collections.abc
import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ._rational import exact_sum, rational
from .errors import DegenerateGame, DimensionMismatch, ParameterError, SizeBudgetExceeded

Rat = Any  # a Fraction, or an int
Vector = tuple  # tuple[Rat, ...]
Matrix = tuple  # tuple[tuple[Rat, ...], ...]

__all__ = [
    "Role",
    "PlayerInfo",
    "Violation",
    "VerifyResult",
    "NormalFormGame",
    "PolymatrixGame",
    "BimatrixGame",
    "make_matrix",
    "edge_payoffs",
    "ScaledStrategy",
    "ScaledProfile",
    "validate_mixed",
    "profile_index",
    "profile_unindex",
    "iter_profiles",
    "random_normal_form",
    "random_polymatrix",
    "uniform_strategy",
    "pure_strategy",
]


class Role(str, Enum):
    """What a polymatrix player stands for in a reduction."""

    ORIGINAL = "original"
    MEDIATOR = "mediator"
    GADGET_AUX = "gadget_aux"
    PLAIN = "plain"


@dataclass(frozen=True)
class PlayerInfo:
    """Role plus provenance for one polymatrix player."""

    role: Role = Role.PLAIN
    scope: str = ""


# ---------------------------------------------------------------------------
# vectors, matrices, mixed strategies


def _check_exact(values: Iterable, what: str) -> None:
    """Raise :class:`ParameterError` unless every value is an int or a Fraction."""
    if not all(map(isinstance, values, itertools.repeat((int, Fraction)))):
        raise ParameterError(f"{what} has an entry that is not an exact rational")


def _check_tolerance(eps) -> None:
    """Raise :class:`ParameterError` unless ``eps`` is an exact rational at least 0."""
    _check_exact((eps,), "eps")
    if eps < 0:
        raise ParameterError("eps must be nonnegative")


def _strategy_counts(strategy_counts: Sequence[int]) -> tuple[int, ...]:
    """The counts as a tuple; :class:`ParameterError` unless each is an int."""
    counts = tuple(strategy_counts)
    if not {*map(type, counts)} <= {int}:
        raise ParameterError(f"strategy counts must be ints, got {counts!r}")
    return counts


def make_matrix(rows: Iterable[Iterable[Rat]], what: str = "matrix") -> Matrix:
    """Freeze rows into a rectangular tuple-of-tuples matrix of exact entries;
    ``what`` names the matrix in the exactness error."""
    mat = tuple(map(tuple, rows))
    if len(set(map(len, mat))) > 1:
        raise DimensionMismatch("matrix rows have unequal lengths")
    _check_exact(itertools.chain.from_iterable(mat), what)
    return mat


def _matrix_key(mat: Matrix) -> tuple:
    """An exact matrix's height and entries as int pairs, which hash and
    compare in C, where a ``Fraction``'s hash and ``==`` are Python calls.
    Equal keys mean equal values, whatever the entry types."""
    return (len(mat), *(x.as_integer_ratio() for row in mat for x in row))


def edge_payoffs(
    offsets: Sequence[int],
    edges: Mapping[tuple[int, int], Matrix],
    scales: Sequence[int],
    units: Sequence[int],
    diagonal: Rat = 0,
) -> tuple[list[int], list[int]]:
    """``diagonal * sum(v_i) + sum_j M^{ij} v_j`` for every player ``i``,
    exactly, as int pairs.

    Player ``j`` owns the flat indices ``offsets[j]:offsets[j + 1]``, and
    its mixed strategy is ``v_j == units[offsets[j]:offsets[j + 1]] /
    scales[j]``, as :func:`_scaled_profile` or :func:`_scaled_blocks`
    return it.  ``edges[(i, j)]`` is an ``n_i x n_j`` matrix; ``diagonal``
    is the structured bimatrix game's ``-alpha`` and 0 for polymatrix
    games.

    Games built from gadgets repeat a few matrix objects over many edges
    and a few strategies over many players, so each distinct pair of a
    matrix object and an opponent strategy is weighed once
    (:func:`_weigh`) and its row pairs are added to every edge that has
    it.  A strategy is keyed by value, as ``(scales[j], *units[a:b])``;
    a matrix by identity, which ``edges`` keeps alive for the call.  The
    cost is O(players + edges + distinct pairs x entries).

    Returns flat lists ``(totals, dens)``, indexed like ``units``: strategy
    ``r`` earns ``totals[r] / dens[r]``, with ``dens[r] > 0`` and the pair
    not necessarily in lowest terms (``(0, 1)`` for a player without
    out-edges).  Adding a pair costs one int add when the denominators
    are equal and one :func:`math.gcd` otherwise.  Shapes are the
    caller's to check.
    """
    diag_num, diag_den = diagonal.numerator, diagonal.denominator
    # flat int lists, few live containers: the garbage collector's cost grows
    # with the containers a call keeps alive, and large games hold many
    if diag_num:
        totals, dens = [], []
        for scale, a, b in zip(scales, offsets, offsets[1:]):
            start = diag_num * sum(units[a:b])  # diagonal * sum(v) == start / (diag_den * scale)
            totals += [start] * (b - a)
            dens += [diag_den * scale if start else 1] * (b - a)
    else:
        totals, dens = [0] * len(units), [1] * len(units)
    # sid[j] numbers player j's strategy by value: equal strategies share it
    ids: dict[tuple[int, ...], int] = {}
    sid = [ids.setdefault((scale, *units[a:b]), len(ids)) for scale, a, b in zip(scales, offsets, offsets[1:])]
    # (id(mat), sid[j]) -> the rows of mat against strategy j; edges keeps every mat alive
    weighed: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (i, j), mat in edges.items():
        rows = weighed.get((id(mat), sid[j]))
        if rows is None:
            rows = weighed[id(mat), sid[j]] = _weigh(mat, scales[j], units[offsets[j] : offsets[j + 1]])
        for r, (t, d) in enumerate(rows, offsets[i]):
            if not t:
                continue
            den = dens[r]
            if d == den:
                totals[r] += t
            elif not totals[r]:  # a zero total takes the pair as it is
                totals[r], dens[r] = t, d
            else:
                g = gcd(den, d)
                totals[r] = totals[r] * (d // g) + t * (den // g)
                dens[r] = den // g * d
    return totals, dens


def _weigh(mat: Matrix, scale: int, nums: Sequence[int]) -> list[tuple[int, int]]:
    """Each row of ``mat`` times the strategy ``nums / scale``, as an int
    pair ``(total, den)`` with ``den > 0``.  A term ``a * n / (b * scale)``
    is skipped when ``n`` or ``a`` is 0, and costs one int add when ``b *
    scale`` equals the running denominator and one :func:`math.gcd`
    otherwise."""
    rows = []
    for row in mat:
        total, den = 0, 1
        for a, n in zip(row, nums):
            if not n:
                continue
            p = a.numerator
            if not p:
                continue
            d = a.denominator * scale
            if d == den:
                total += p * n
            else:
                g = gcd(den, d)
                total = total * (d // g) + p * n * (den // g)
                den = den // g * d
        rows.append((total, den))
    return rows


def _entry_range(values: Iterable[Rat], lo: Rat, hi: Rat) -> tuple[Rat, Rat]:
    """``(min, max)`` of ``lo``, ``hi`` and ``values``.

    Each value is compared as ints, ``n * lo_d < lo_n * d`` for a value
    ``n / d``, not through ``Fraction`` comparisons.  An extreme moves only
    on a strict inequality, so ``lo``, ``hi`` or the first value to reach
    the extreme is the object returned.
    """
    (lo_n, lo_d), (hi_n, hi_d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    for x in values:
        n, d = x.as_integer_ratio()
        if n * lo_d < lo_n * d:
            lo, lo_n, lo_d = x, n, d
        if n * hi_d > hi_n * d:
            hi, hi_n, hi_d = x, n, d
    return lo, hi


def _block_names(what: str, offsets: Sequence[int]) -> Callable[[int], str]:
    """How an error names block ``i`` of a strategy called ``what``: by its
    number only when there are several blocks."""
    return (lambda i: f"{what} block {i}") if len(offsets) > 2 else (lambda _: what)


def _fault(offsets: Sequence[int], name: Callable[[int], str], r: int, what: str) -> ParameterError:
    """The error for flat index ``r``, naming its block as ``name(i)``."""
    return ParameterError(f"{name(bisect_right(offsets, r) - 1)} {what}")


def _scaled(
    v: Sequence[Rat], offsets: Sequence[int], name: Callable[[int], str]
) -> tuple[list[int], list[int], list[int]]:
    """Validate the entries of ``v`` and scale each block ``v[a:b]``, for
    consecutive ``a, b`` in ``offsets``, to ints in one pass.

    Returns ``(scales, units, masses)``: block ``i`` is ``units[a:b] /
    scales[i]`` over the lcm ``scales[i]`` of its entries' own
    denominators, and ``masses[i] == sum(units[a:b])``.  Every entry must
    be an int or a Fraction, and nonnegative (``min(nums) >= 0``); an
    error names the first block ``i`` at fault as ``name(i)``.
    Scaling each block over its own denominators keeps the ints small when
    blocks use distinct denominators.  Sums are the caller's to check.
    """
    if not all(map(isinstance, v, itertools.repeat((int, Fraction)))):
        r = next(r for r, x in enumerate(v) if not isinstance(x, (int, Fraction)))
        raise _fault(offsets, name, r, "has an entry that is not an exact rational")
    nums = [x.numerator for x in v]
    if min(nums, default=0) < 0:
        raise _fault(offsets, name, next(r for r, n in enumerate(nums) if n < 0), "has a negative entry")
    dens = [x.denominator for x in v]
    bounds = list(zip(offsets, offsets[1:]))
    scales = [lcm(*dens[a:b]) for a, b in bounds]
    entry_scales = [scale for scale, (a, b) in zip(scales, bounds) for _ in range(a, b)]
    units = [n * (scale // d) for n, d, scale in zip(nums, dens, entry_scales)]
    return scales, units, [sum(units[a:b]) for a, b in bounds]


class ScaledStrategy(collections.abc.Sequence):
    """A mixed strategy held as ints: block ``i``, the flat indices ``a:b``
    from ``offsets[i]`` to ``offsets[i + 1]``, is ``units[a:b] / scales[i]``.

    The constructor makes the one scaling pass's checks, with its messages:
    ints, no negative unit, one positive scale per block and block masses
    that sum to 1.  So every instance is valid, and a game whose blocks
    are ``offsets`` reads its ints as they are (:func:`_scaled_blocks`).
    It is immutable and reads as the tuple of its values, an entry becoming
    a ``Fraction`` when read; it compares equal to and hashes like that tuple.
    """

    __slots__ = ("offsets", "scales", "units")

    def __init__(
        self, offsets: Sequence[int], scales: Sequence[int], units: Sequence[int], what: str = "mixed strategy"
    ):
        offsets, scales, units = tuple(offsets), tuple(scales), tuple(units)
        if len(units) != offsets[-1]:
            raise DimensionMismatch(f"{what} has length {len(units)}, expected {offsets[-1]}")
        name = _block_names(what, offsets)
        if not all(map(isinstance, units, itertools.repeat(int))):
            r = next(r for r, n in enumerate(units) if not isinstance(n, int))
            raise _fault(offsets, name, r, "has an entry that is not an exact rational")
        if min(units, default=0) < 0:
            raise _fault(offsets, name, next(r for r, n in enumerate(units) if n < 0), "has a negative entry")
        if len(scales) != len(offsets) - 1 or not all(type(d) is int and d > 0 for d in scales):
            raise ParameterError(f"{what} needs one positive int scale per block")
        total, den = exact_sum(zip([sum(units[a:b]) for a, b in zip(offsets, offsets[1:])], scales))
        if total != den:
            raise ParameterError(f"{what} does not sum to 1")
        for slot, value in zip(self.__slots__, (offsets, scales, units)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, *_):
        raise AttributeError("a ScaledStrategy is immutable")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self.units)

    def __getitem__(self, r):
        if isinstance(r, slice):
            return tuple(map(self.__getitem__, range(*r.indices(len(self)))))
        unit = self.units[r]
        return Fraction(unit, self.scales[bisect_right(self.offsets, r % len(self)) - 1])

    def __iter__(self) -> Iterator[Fraction]:
        return itertools.chain.from_iterable(_block_values(self, i) for i in range(len(self.scales)))

    def __eq__(self, other) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, (tuple, ScaledStrategy)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"ScaledStrategy({tuple(self)!r})"


class ScaledProfile(collections.abc.Sequence):
    """One mixed strategy per player with the ints of its one scaling pass:
    player ``i`` plays ``units[a:b] / scales[i]`` over its flat indices, and
    its units sum to its scale.  ``GadgetCircuit.lift`` and
    ``recover_from_bimatrix`` build it from ints they have checked; a game
    whose players own ``offsets`` reads them as they are
    (:func:`_scaled_profile`).  A player's strategy is a tuple, built from
    the ints when first read unless given; a slice is a list, and the
    profile compares equal to the list of its strategies.
    """

    __slots__ = ("offsets", "scales", "units", "_blocks")

    def __init__(
        self, offsets: Sequence[int], scales: Sequence[int], units: Sequence[int], blocks: Iterable | None = None
    ):
        self.offsets, self.scales, self.units = offsets, scales, units
        self._blocks = [None] * (len(offsets) - 1) if blocks is None else list(blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        block = self._blocks[i]
        if block is None:
            block = self._blocks[i] = _block_values(self, i % len(self))
        return block

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, (list, ScaledProfile)) else NotImplemented

    def __repr__(self) -> str:
        return f"ScaledProfile({list(self)!r})"


def _block_values(v: ScaledStrategy | ScaledProfile, i: int) -> Vector:
    """Block ``i`` of ``v`` as a tuple of ``Fraction``s."""
    a, b = v.offsets[i], v.offsets[i + 1]
    return tuple(map(Fraction, v.units[a:b], itertools.repeat(v.scales[i])))


def validate_mixed(vec: Sequence[Rat], length: int | None = None, what: str = "mixed strategy") -> Vector:
    """Check exactness, nonnegativity and unit sum; return the frozen tuple.

    Entries must be ints or Fractions.  The checks are int arithmetic over
    the lcm ``L`` of the entries' own denominators: unit sum is
    ``sum(nums) == L``, not a chain of rational additions.
    """
    v = tuple(vec)
    return _scaled_blocks(v, (0, len(v) if length is None else length), what)[0]


def _scaled_profile(
    profile: Sequence[Sequence[Rat]], offsets: Sequence[int], what: str = "player"
) -> tuple[Sequence[int], Sequence[int]]:
    """One mixed strategy per player of a game whose players own the flat
    indices ``offsets[i]:offsets[i + 1]``, validated and scaled in one pass
    (:func:`_scaled`): ``(scales, units)`` with player ``i``'s strategy
    ``units[a:b] / scales[i]``.  Each player's unit sum is ``sum(nums) ==
    L``, and an error names the first player at fault.  A
    :class:`ScaledProfile` over equal offsets, by identity or by value,
    hands back its own ints instead."""
    if type(profile) is ScaledProfile and (profile.offsets is offsets or profile.offsets == offsets):
        return profile.scales, profile.units
    counts = [b - a for a, b in zip(offsets, offsets[1:])]
    if len(profile) != len(counts):
        raise DimensionMismatch(f"profile has {len(profile)} strategies for {len(counts)} {what}s")
    vectors = list(map(tuple, profile))
    lengths = list(map(len, vectors))
    if lengths != counts:
        i = next(i for i, (k, n) in enumerate(zip(lengths, counts)) if k != n)
        raise DimensionMismatch(f"{what} {i} strategy has length {lengths[i]}, expected {counts[i]}")
    scales, units, masses = _scaled([x for v in vectors for x in v], offsets, lambda i: f"{what} {i} strategy")
    if masses != scales:
        i = next(i for i, (mass, scale) in enumerate(zip(masses, scales)) if mass != scale)
        raise ParameterError(f"{what} {i} strategy does not sum to 1")
    return scales, units


def _scaled_blocks(
    vec: Sequence[Rat], offsets: Sequence[int], what: str
) -> tuple[Sequence[Rat], Sequence[int], Sequence[int]]:
    """One mixed strategy over the blocks ``offsets[i]:offsets[i + 1]``,
    validated and scaled block by block in one pass (:func:`_scaled`):
    ``(v, scales, units)`` with ``v`` the frozen tuple and block ``i``
    equal to ``units[a:b] / scales[i]``.  The unit sum of the whole vector
    is the exact sum of the per-block pairs ``(sum(nums), L)``.  An error
    names the block at fault when there are several.  A
    :class:`ScaledStrategy` over equal offsets, by identity or by value, was
    checked when built: it is returned as ``v`` with its own ints instead.
    """
    if type(vec) is ScaledStrategy and (vec.offsets is offsets or vec.offsets == offsets):
        return vec, vec.scales, vec.units
    v = tuple(vec)
    if len(v) != offsets[-1]:
        raise DimensionMismatch(f"{what} has length {len(v)}, expected {offsets[-1]}")
    scales, units, masses = _scaled(v, offsets, _block_names(what, offsets))
    total, den = exact_sum(zip(masses, scales))
    if total != den:
        raise ParameterError(f"{what} does not sum to 1")
    return v, scales, units


def uniform_strategy(n: int) -> Vector:
    """The uniform mixed strategy over ``n`` pure strategies."""
    if n < 1:
        raise ParameterError("need at least one pure strategy")
    return tuple(rational(1, n) for _ in range(n))


def pure_strategy(n: int, j: int) -> Vector:
    """The pure strategy ``j`` as a mixed-strategy vector of length ``n``."""
    if not 0 <= j < n:
        raise ParameterError(f"pure strategy {j} outside range(0, {n})")
    return tuple(rational(int(i == j)) for i in range(n))


# ---------------------------------------------------------------------------
# pure-profile linearization: first count is most significant


def profile_index(counts: Sequence[int], strategies: Sequence[int]) -> int:
    """Linearize a pure profile; the first listed player varies slowest."""
    if len(counts) != len(strategies):
        raise DimensionMismatch("profile length != number of players")
    idx = 0
    for n, s in zip(counts, strategies):
        if not 0 <= s < n:
            raise ParameterError(f"pure strategy {s} outside range(0, {n})")
        idx = idx * n + s
    return idx


def profile_unindex(counts: Sequence[int], index: int) -> tuple[int, ...]:
    """Inverse of :func:`profile_index`."""
    out = []
    for n in reversed(counts):
        index, s = divmod(index, n)
        out.append(s)
    if index:
        raise ParameterError("profile index out of range")
    return tuple(reversed(out))


def iter_profiles(counts: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All pure profiles, in :func:`profile_index` order."""
    return itertools.product(*(range(n) for n in counts))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class Violation:
    """One supported pure strategy that is more than eps below the best response."""

    player: int
    strategy: int
    payoff: Rat
    best_strategy: int
    best_payoff: Rat

    @property
    def gap(self) -> Rat:
        return self.best_payoff - self.payoff


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _best_index(nums: Sequence[int], dens: Sequence[int], a: int, b: int) -> int:
    """The first index ``r`` in ``range(a, b)`` with the largest ``nums[r] /
    dens[r]`` (every ``dens[r] > 0``), compared as int cross-products."""
    best, best_n, best_d = a, nums[a], dens[a]
    for r in range(a + 1, b):
        n, d = nums[r], dens[r]
        if n * best_d > best_n * d:
            best, best_n, best_d = r, n, d
    return best


def _wsne_violations(
    nums: Sequence[int],
    dens: Sequence[int],
    offsets: Sequence[int],
    support: Sequence[int],
    eps: Rat,
    skip: frozenset[int] = frozenset(),
    value: Callable[[int], Rat] | None = None,
) -> tuple[Violation, ...]:
    """Each supported pure strategy of a player not in ``skip`` that earns
    less than its player's best pure payoff minus ``eps``, an int or a
    ``Fraction`` at least 0 (else :class:`ParameterError`).

    Player ``i`` owns the flat indices ``offsets[i]:offsets[i + 1]``:
    strategy ``r`` earns ``nums[r] / dens[r]`` with ``dens[r] > 0``, and it
    is supported when ``support[r] > 0`` (a scaled strategy's numerator).
    The comparisons are int arithmetic: the best response is the first
    maximal index (:func:`_best_index`), and ``u[r] < u[best] - eps`` is a
    cross-product of ints with ``u[best] - eps`` as one int fraction.  Only the payoffs of a
    violation become values, ``value(r)``, by default ``Fraction(nums[r],
    dens[r])``.
    """
    if value is None:
        def value(r: int) -> Fraction:
            return Fraction(nums[r], dens[r])

    _check_tolerance(eps)
    eps_n, eps_d = eps.as_integer_ratio()
    found = []
    for i, (a, b) in enumerate(zip(offsets, offsets[1:])):
        if i in skip:
            continue
        best = _best_index(nums, dens, a, b)
        best_n, best_d = nums[best], dens[best]
        # floor_n / floor_d == u[best] - eps, with floor_d > 0
        floor_n, floor_d = best_n * eps_d - eps_n * best_d, best_d * eps_d
        for r in range(a, b):
            if support[r] > 0 and nums[r] * floor_d < floor_n * dens[r]:
                found.append(Violation(i, r - a, value(r), best - a, value(best)))
    return tuple(found)


# ---------------------------------------------------------------------------
# normal-form games


class NormalFormGame:
    """A k-player game in normal form with payoffs in ``[0, 1]``.

    ``payoffs[i]`` is an ``n_i x prod(n_j for j != i)`` matrix; its columns
    enumerate the opponents' pure profiles in :func:`profile_index` order
    over the opponent players listed in increasing player order (so the
    lowest-numbered opponent varies slowest).
    """

    def __init__(self, strategy_counts: Sequence[int], payoffs: Sequence[Matrix]):
        counts = _strategy_counts(strategy_counts)
        if len(counts) < 1:
            raise ParameterError("a normal-form game needs at least one player")
        if any(n < 1 for n in counts):
            raise ParameterError("every player needs at least one pure strategy")
        mats = tuple(make_matrix(m) for m in payoffs)
        if len(mats) != len(counts):
            raise DimensionMismatch("need exactly one payoff matrix per player")
        ranges = []
        for i, mat in enumerate(mats):
            rows = counts[i]
            cols = 1
            for j, n in enumerate(counts):
                if j != i:
                    cols *= n
            if len(mat) != rows or (rows and len(mat[0]) != cols):
                raise DimensionMismatch(
                    f"player {i} payoff matrix must be {rows}x{cols}"
                )
            lo, hi = _entry_range(itertools.chain.from_iterable(mat), mat[0][0], mat[0][0])
            if lo < 0 or hi > 1:
                raise ParameterError(f"player {i} payoff entry {lo if lo < 0 else hi} outside [0, 1]")
            ranges += (lo, hi)
        self.strategy_counts = counts
        self._offsets = tuple(itertools.accumulate(counts, initial=0))
        self.payoffs = mats
        self._range = _entry_range(ranges, ranges[0], ranges[0])

    @property
    def k(self) -> int:
        return len(self.strategy_counts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NormalFormGame)
            and self.strategy_counts == other.strategy_counts
            and self.payoffs == other.payoffs
        )

    def __repr__(self) -> str:
        return f"NormalFormGame(counts={self.strategy_counts})"

    def opponent_counts(self, i: int) -> tuple[int, ...]:
        return tuple(n for j, n in enumerate(self.strategy_counts) if j != i)

    def opponent_index(self, i: int, opponent_profile: Sequence[int]) -> int:
        """Column index for a pure profile of everyone except player ``i``."""
        return profile_index(self.opponent_counts(i), opponent_profile)

    def _payoff_pairs(self, profile: Sequence[Vector]) -> tuple[list[int], list[int], list[int]]:
        """``(units, totals, dens)``: the validated profile scaled to ints
        and every payoff as an int pair.

        Player ``i``'s opponents give one joint distribution: int products
        over the product of their scales, the first opponent varying
        slowest as :func:`profile_index` orders them.  One
        :func:`edge_payoffs` call weighs it against ``payoffs[i]``.
        """
        scales, units = _scaled_profile(profile, self._offsets)
        blocks = [units[a:b] for a, b in zip(self._offsets, self._offsets[1:])]
        totals, dens = [], []
        for i, mat in enumerate(self.payoffs):
            joint = list(map(prod, itertools.product(*blocks[:i], *blocks[i + 1 :])))
            scale = prod(scales[:i] + scales[i + 1 :])
            n = len(mat)
            t, d = edge_payoffs((0, n, n + len(joint)), {(0, 1): mat}, (1, scale), [0] * n + joint)
            totals += t[:n]
            dens += d[:n]
        return units, totals, dens

    def expected_payoffs(self, profile: Sequence[Vector]) -> list[Vector]:
        """Expected payoff of each pure strategy of each player, exactly."""
        _, totals, dens = self._payoff_pairs(profile)
        offsets = self._offsets
        return [tuple(map(Fraction, totals[a:b], dens[a:b])) for a, b in zip(offsets, offsets[1:])]

    def verify_wsne(self, profile: Sequence[Vector], eps: Rat) -> VerifyResult:
        units, totals, dens = self._payoff_pairs(profile)
        bad = _wsne_violations(totals, dens, self._offsets, units, eps)
        return VerifyResult(not bad, bad)

    def payoff_range(self) -> tuple[Rat, Rat]:
        """(min, max) payoff entry, as the constructor's range check found it."""
        return self._range


# ---------------------------------------------------------------------------
# polymatrix games


class PolymatrixGame:
    """A polymatrix game: payoffs are sums of pairwise interactions.

    ``edges[(i, i')]`` is the ``n_i x n_i'`` matrix paying player ``i`` for
    the interaction with player ``i'``.  Entries lie in ``[-1, 2]``.  Edges
    whose matrix is all zeros are never stored (the constructor drops them,
    keeping the representation canonical).  The empty game (zero players) is
    allowed.

    Edge matrices are immutable, and the game holds one object per distinct
    value: edges whose matrices are equal share the frozen copy of the
    first of them, in edge order, whatever their objects or entry types.
    Each distinct object is frozen, checked for exact entries and keyed by
    value (:func:`_matrix_key`) once, and each distinct value is compared
    once, on ints, for the range check, the all-zero test and the game's
    payoff range; the endpoint, self-edge and shape checks stay per edge,
    in edge order.  So numbering the matrix objects of the sorted edges in
    first-use order numbers their values, which is how a game file's
    ``matrices`` table is written and checked.
    """

    def __init__(
        self,
        strategy_counts: Sequence[int],
        edges: Mapping[tuple[int, int], Matrix],
        players: Sequence[PlayerInfo] | None = None,
    ):
        counts = _strategy_counts(strategy_counts)
        if any(n < 2 for n in counts):
            raise ParameterError("every polymatrix player needs at least two pure strategies")
        m = len(counts)
        infos = tuple(players) if players is not None else (PlayerInfo(),) * m
        if len(infos) != m:
            raise DimensionMismatch("need exactly one PlayerInfo per player")
        kept: dict[tuple[int, int], Matrix] = {}
        ranges = []
        # _matrix_key(frozen) -> (frozen, entry outside [-1, 2] or None, nonzero)
        by_value: dict[tuple, tuple] = {}
        # id(mat) -> (frozen, bad, nonzero, mat); holding mat keeps its id
        # from being reused during the loop
        checked: dict[int, tuple] = {}
        for (i, j), mat in edges.items():
            if i == j:
                raise ParameterError(f"self-edge ({i}, {j}) is not allowed")
            if not (0 <= i < m and 0 <= j < m):
                raise ParameterError(f"edge ({i}, {j}) references a missing player")
            seen = checked.get(id(mat))
            if seen is None:
                frozen = make_matrix(mat, f"edge ({i}, {j}) matrix")
                key = _matrix_key(frozen)
                if key not in by_value:
                    lo, hi = _entry_range(itertools.chain.from_iterable(frozen), 0, 0)
                    bad = lo if lo < -1 else hi if hi > 2 else None
                    # an all-zero matrix has the range (0, 0) and is dropped
                    by_value[key] = (frozen, bad, bool(lo or hi))
                    ranges += (lo, hi)  # an edge sharing the value adds no new extreme
                seen = checked[id(mat)] = (*by_value[key], mat)
            frozen, bad, nonzero, _ = seen
            if len(frozen) != counts[i] or len(frozen[0]) != counts[j]:
                raise DimensionMismatch(
                    f"edge ({i}, {j}) matrix must be {counts[i]}x{counts[j]}"
                )
            if bad is not None:
                raise ParameterError(f"edge ({i}, {j}) entry {bad} outside [-1, 2]")
            if nonzero:
                kept[(i, j)] = frozen
        self.strategy_counts = counts
        # _offsets[i] is player i's first flat index; _offsets[-1] == sum(counts)
        self._offsets = tuple(itertools.accumulate(counts, initial=0))
        self.edges = kept
        self.players = infos
        self._range = _entry_range(ranges, 0, 0)

    @property
    def m(self) -> int:
        return len(self.strategy_counts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolymatrixGame)
            and self.strategy_counts == other.strategy_counts
            and self.edges == other.edges
            and self.players == other.players
        )

    def __repr__(self) -> str:
        return f"PolymatrixGame(m={self.m}, edges={len(self.edges)})"

    def out_edges(self, i: int) -> list[tuple[int, Matrix]]:
        """Player ``i``'s edges as ``(opponent, matrix)`` pairs.

        O(edges): it scans every edge, so no hot path calls it; payoffs go
        through :func:`edge_payoffs` instead.
        """
        return [(j, mat) for (a, j), mat in self.edges.items() if a == i]

    def _payoff_pairs(self, profile: Sequence[Vector]) -> tuple[list[int], list[int], list[int]]:
        """``(units, totals, dens)``: the validated profile scaled to ints
        and every payoff as an int pair, from one :func:`edge_payoffs` call."""
        scales, units = _scaled_profile(profile, self._offsets)
        return (units, *edge_payoffs(self._offsets, self.edges, scales, units))

    def expected_payoffs(self, profile: Sequence[Vector]) -> list[Vector]:
        """Expected payoff of each pure strategy of each player, exactly,
        in O(players + edges + distinct pairs x entries) (:func:`edge_payoffs`)."""
        _, totals, dens = self._payoff_pairs(profile)
        offsets = self._offsets
        return [tuple(map(Fraction, totals[a:b], dens[a:b])) for a, b in zip(offsets, offsets[1:])]

    def verify_wsne(
        self,
        profile: Sequence[Vector],
        eps: Rat,
        clamped: Iterable[int] = (),
    ) -> VerifyResult:
        """Check eps-well-supportedness; ``clamped`` players are exempt.

        Clamped players stand for gadget inputs: their strategies still feed
        everyone else's expected payoffs, but they are not required to be
        best-responding themselves.  Payoffs are compared as int pairs, and
        a strategy is supported when its scaled numerator is positive.
        """
        units, totals, dens = self._payoff_pairs(profile)
        bad = _wsne_violations(totals, dens, self._offsets, units, eps, frozenset(clamped))
        return VerifyResult(not bad, bad)

    def payoff_range(self) -> tuple[Rat, Rat]:
        """(min, max) of 0 and every edge entry, as the constructor found it.

        The entries are compared on ints (:func:`_entry_range`), and the
        first entry that sets a new extreme is the one returned.
        """
        return self._range


# ---------------------------------------------------------------------------
# bimatrix games

_DENSE_MAX_ENTRIES = 4_000_000  # the largest N^2 that to_dense materializes


class BimatrixGame:
    """A two-player game, stored densely or in structured block form.

    Dense: payoff matrices ``A`` (row player / leader) and ``B`` (column
    player / follower), both ``N x N`` here (square because the reduction
    produces square games).  ``bt`` holds ``B^T``, the follower's payoffs.

    Structured: the block imitation game of a :class:`PolymatrixGame`.  The
    leader's matrix has ``-alpha`` on every entry of each diagonal block and
    the polymatrix edge matrix ``M^{i,i'}`` as block ``(i, i')``; the
    follower's matrix is the identity.  ``block_sizes`` and ``edges`` are
    the polymatrix game's own strategy counts and checked edge matrices, so
    blocks have at least two strategies and edge entries lie in ``[-1, 2]``.
    ``divisor`` is derived: ``alpha + 1``, or ``alpha + 2`` when an edge pays
    more than 1.  With ``normalized=True`` the game instead stands for the
    affine image ``v -> (v + alpha) / divisor`` of both matrices, which maps
    all payoffs into ``[0, 1]``; that needs every edge entry to be at least
    ``-alpha``.

    The structured form never materializes ``N x N`` matrices: expected
    payoffs and single entries are computed from the blocks on demand.
    """

    def __init__(self):
        raise TypeError("use BimatrixGame.dense(...) or BimatrixGame.structured(...)")

    # -- constructors

    @classmethod
    def dense(cls, a: Matrix, b: Matrix) -> "BimatrixGame":
        self = object.__new__(cls)
        a = make_matrix(a)
        b = make_matrix(b)
        if not a or len(a) != len(a[0]):
            raise DimensionMismatch("dense bimatrix games must be square and nonempty")
        if len(b) != len(a) or len(b[0]) != len(a[0]):
            raise DimensionMismatch("A and B must have identical shape")
        self.encoding = "dense"
        self.a = a
        self.b = b
        self.bt = tuple(zip(*b))
        self.n = len(a)
        self.polymatrix = None
        self.block_sizes = None
        self._offsets = None
        self.alpha = None
        self.edges = None
        self.normalized = False
        self.divisor = None
        self._range = _entry_range(itertools.chain(*a, *b), a[0][0], a[0][0])
        return self

    @classmethod
    def structured(
        cls, polymatrix: PolymatrixGame, alpha: Rat, normalized: bool = False
    ) -> "BimatrixGame":
        self = object.__new__(cls)
        _check_exact((alpha,), "alpha")
        if alpha <= 0:
            raise ParameterError("alpha must be positive")
        if not polymatrix.m:
            raise ParameterError("an imitation game needs at least one block")
        lo, hi = polymatrix.payoff_range()
        if normalized and lo < -alpha:
            raise ParameterError(
                f"edge entry {lo} is below -alpha, so normalized payoffs would leave [0, 1]"
            )
        self.encoding = "structured"
        self.a = None
        self.b = None
        self.bt = None
        self.polymatrix = polymatrix
        self.block_sizes = polymatrix.strategy_counts
        self.n = sum(self.block_sizes)
        # _offsets[i] is block i's first strategy; _offsets[-1] == n
        self._offsets = polymatrix._offsets
        self.alpha = alpha
        self.edges = polymatrix.edges
        self.normalized = bool(normalized)
        self.divisor = alpha + (2 if hi > 1 else 1)
        # the unnormalized range: -alpha and 1 against the edge entries
        self._range = _entry_range((lo, hi), -alpha, 1)
        return self

    # -- shared interface

    def _block_offsets(self) -> tuple[int, ...]:
        if self._offsets is None:
            raise ParameterError("dense games have no block structure")
        return self._offsets

    @property
    def num_blocks(self) -> int:
        return len(self._block_offsets()) - 1

    def block_offset(self, i: int) -> int:
        """Index in ``[N]`` of block ``i``'s first strategy."""
        return self._block_offsets()[i]

    def strategy_index(self, i: int, j: int) -> int:
        """Map pure strategy ``j`` of polymatrix player ``i`` into ``[N]``."""
        if not 0 <= i < self.num_blocks:
            raise ParameterError(f"block {i} outside range(0, {self.num_blocks})")
        if not 0 <= j < self.block_sizes[i]:
            raise ParameterError(f"strategy {j} outside block {i}")
        return self._offsets[i] + j

    def block_of(self, s: int) -> tuple[int, int]:
        """Inverse of :meth:`strategy_index`, in O(log blocks)."""
        offsets = self._block_offsets()
        if not 0 <= s < self.n:
            raise ParameterError(f"strategy {s} outside range(0, {self.n})")
        i = bisect_right(offsets, s) - 1
        return i, s - offsets[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BimatrixGame) or self.encoding != other.encoding:
            return False
        if self.encoding == "dense":
            return self.a == other.a and self.b == other.b
        return (
            self.block_sizes == other.block_sizes
            and self.alpha == other.alpha
            and self.edges == other.edges
            and self.normalized == other.normalized
        )

    def __repr__(self) -> str:
        return f"BimatrixGame(encoding={self.encoding!r}, n={self.n})"

    def _norm(self, value: Rat) -> Rat:
        if self.normalized:
            return self._norm_pair(*value.as_integer_ratio())
        return value

    def _norm_pair(self, n: int, d: int) -> Fraction:
        """``(n / d + alpha) / divisor`` as a ``Fraction``, on ints."""
        (a, b), (p, q) = self.alpha.as_integer_ratio(), self.divisor.as_integer_ratio()
        return Fraction((n * b + a * d) * q, d * b * p)

    def entry(self, player: int, row: int, col: int) -> Rat:
        """Payoff matrix entry for ``player`` (0 = leader, 1 = follower)."""
        if player not in (0, 1):
            raise ParameterError("player must be 0 (leader) or 1 (follower)")
        if not (0 <= row < self.n and 0 <= col < self.n):
            raise ParameterError("entry indices out of range")
        if self.encoding == "dense":
            return self.a[row][col] if player == 0 else self.b[row][col]
        if player == 1:
            return self._norm(1 if row == col else 0)
        bi, ji = self.block_of(row)
        bj, jj = self.block_of(col)
        if bi == bj:
            return self._norm(-self.alpha)
        mat = self.edges.get((bi, bj))
        return self._norm(mat[ji][jj] if mat is not None else 0)

    def to_dense(self) -> "BimatrixGame":
        """Materialize a dense copy (for small games and tests), in
        O(N^2 log blocks), of at most :data:`_DENSE_MAX_ENTRIES` entries."""
        if self.encoding == "dense":
            return self
        if self.n * self.n > _DENSE_MAX_ENTRIES:
            raise SizeBudgetExceeded(
                f"dense form would need {self.n * self.n} entries (> {_DENSE_MAX_ENTRIES})"
            )
        a = [[self.entry(0, r, c) for c in range(self.n)] for r in range(self.n)]
        b = [[self.entry(1, r, c) for c in range(self.n)] for r in range(self.n)]
        return BimatrixGame.dense(a, b)

    def _payoff_pairs(self, x: Sequence[Rat], y: Sequence[Rat]) -> tuple:
        """Both strategies validated and scaled (a structured game's block
        by block), and both players' payoffs as int pairs over the flat
        indices ``0:n`` (leader) and ``n:2n`` (follower), before
        normalization.

        Returns ``(x, nums, dens, support)``.  A dense game's payoffs come
        from one :func:`edge_payoffs` call over the edges ``A`` and ``B^T``.
        A structured game's leader payoffs come from one call, which adds
        each diagonal block's ``-alpha`` times the follower's mass on that
        block in the same int accumulators; the follower's are ``x``'s own
        scaled entries, since ``B^T x = x`` for the identity ``B``.
        ``support`` holds ``x``'s then ``y``'s scaled numerators.
        """
        n = self.n
        offsets = (0, n) if self.encoding == "dense" else self._offsets
        x, x_scales, x_units = _scaled_blocks(x, offsets, "leader strategy")
        _, y_scales, y_units = _scaled_blocks(y, offsets, "follower strategy")
        support = [*x_units, *y_units]
        if self.encoding == "dense":
            edges = {(0, 1): self.a, (1, 0): self.bt}
            return (x, *edge_payoffs((0, n, 2 * n), edges, [*x_scales, *y_scales], support), support)
        totals, dens = edge_payoffs(offsets, self.edges, y_scales, y_units, -self.alpha)
        for scale, a, b in zip(x_scales, offsets, offsets[1:]):
            dens += [scale] * (b - a)
        totals += x_units
        return x, totals, dens, support

    def expected_payoffs(self, x: Sequence[Rat], y: Sequence[Rat]) -> tuple[Vector, Vector]:
        """(leader payoff vector ``A y``, follower payoff vector ``B^T x``).

        Both are built from int pairs, one ``Fraction`` per payoff.  The
        structured form costs O(N + edges + distinct pairs x entries)
        (:func:`edge_payoffs`), and its follower's vector is ``x`` itself,
        or its normalized image.
        """
        x, nums, dens, _ = self._payoff_pairs(x, y)
        n = self.n
        if self.normalized:
            u = tuple(map(self._norm_pair, nums, dens))
        elif self.encoding == "dense":
            u = tuple(map(Fraction, nums, dens))
        else:
            return tuple(map(Fraction, nums[:n], dens[:n])), x
        return u[:n], u[n:]

    def verify_wsne(
        self,
        x: Sequence[Rat],
        y: Sequence[Rat],
        eps: Rat,
        clamped: Iterable[int] = (),
    ) -> VerifyResult:
        """Check eps-well-supportedness of ``(x, y)``; ``clamped`` players
        (0 = leader, 1 = follower) are exempt.

        Both forms compare int payoff pairs.  A normalized game is checked
        on its unnormalized payoffs at ``eps * divisor``, which is the same
        test since the map ``v -> (v + alpha) / divisor`` is increasing;
        only a violation's payoffs are mapped.  An unnormalized structured
        follower violation reports ``x``'s own entries.
        """
        x, nums, dens, support = self._payoff_pairs(x, y)
        n = self.n
        value = None
        if self.normalized:
            eps = eps * self.divisor

            def value(r: int) -> Fraction:
                return self._norm_pair(nums[r], dens[r])
        elif self.encoding == "structured":

            def value(r: int) -> Rat:
                return Fraction(nums[r], dens[r]) if r < n else x[r - n]

        bad = _wsne_violations(nums, dens, (0, n, 2 * n), support, eps, frozenset(clamped), value)
        return VerifyResult(not bad, bad)

    def payoff_range(self) -> tuple[Rat, Rat]:
        """(min, max) payoff over both matrices, as the constructor found it.

        Structured games: the smaller of ``-alpha`` (the diagonal blocks)
        and the edges' minimum, and the larger of 1 (the identity follower)
        and the edges' maximum, from the range the polymatrix game stored.
        Both are mapped through the normalization when the game is
        normalized.
        """
        lo, hi = self._range
        return self._norm(lo), self._norm(hi)


# ---------------------------------------------------------------------------
# random instances (for tests and the CLI); deterministic given a seed


def _rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_normal_form(
    seed_or_rng,
    strategy_counts: Sequence[int],
    denominator: int = 100,
) -> NormalFormGame:
    """A normal-form game with independent uniform entries ``j/denominator`` in [0, 1]."""
    rng = _rng(seed_or_rng)
    counts = tuple(strategy_counts)
    payoffs = []
    for i, n in enumerate(counts):
        cols = 1
        for j, c in enumerate(counts):
            if j != i:
                cols *= c
        payoffs.append(
            [
                [rational(rng.randrange(denominator + 1), denominator) for _ in range(cols)]
                for _ in range(n)
            ]
        )
    return NormalFormGame(counts, payoffs)


def random_polymatrix(
    seed_or_rng,
    strategy_counts: Sequence[int],
    denominator: int = 100,
    lo: Rat | int = 0,
    hi: Rat | int = 1,
) -> PolymatrixGame:
    """A complete polymatrix game with uniform entries in ``[lo, hi]`` (within [-1, 2])."""
    rng = _rng(seed_or_rng)
    counts = tuple(strategy_counts)
    if lo < -1 or hi > 2 or lo > hi:
        raise ParameterError("entry range must satisfy -1 <= lo <= hi <= 2")
    span = hi - lo
    edges = {}
    for i in range(len(counts)):
        for j in range(len(counts)):
            if i == j:
                continue
            edges[(i, j)] = [
                [
                    lo + span * rational(rng.randrange(denominator + 1), denominator)
                    for _ in range(counts[j])
                ]
                for _ in range(counts[i])
            ]
    return PolymatrixGame(counts, edges)
