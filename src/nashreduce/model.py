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

Each constructor checks its entries once and keeps their range, so
``payoff_range`` reads a stored value.

All values are exact rationals; comparisons in the verifier are exact.  A
mixed strategy is a tuple of rationals that are nonnegative and sum to one.

A profile is an *epsilon-well-supported Nash equilibrium* (eps-WSNE) when
every pure strategy played with positive probability earns within ``eps`` of
that player's best pure response.  ``verify_*`` methods check this exactly
and return the violations found.

Polymatrix and structured bimatrix payoffs both come from
:func:`edge_payoffs`, one pass over the edge matrices: verifying costs
O(players + total edge entries), linear in the edges rather than in
players x edges.  Inside, the sums are int arithmetic: each strategy vector
is scaled once to int numerators over the lcm of its own denominators, each
payoff is accumulated as an int numerator over an int denominator, and only
the finished payoff becomes a rational.  That costs one lcm per vector and
one rational per payoff entry, instead of one rational multiply and add per
edge entry; :func:`validate_mixed` checks unit sums with int sums too.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ._rational import common_denominator, exact_sum, rational
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
    "mat_vec",
    "edge_payoffs",
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


def make_matrix(rows: Iterable[Iterable[Rat]]) -> Matrix:
    """Freeze rows into a rectangular tuple-of-tuples matrix of exact entries."""
    mat = tuple(map(tuple, rows))
    if len(set(map(len, mat))) > 1:
        raise DimensionMismatch("matrix rows have unequal lengths")
    _check_exact(itertools.chain.from_iterable(mat), "matrix")
    return mat


def mat_vec(matrix: Matrix, vec: Sequence[Rat]) -> Vector:
    """Exact matrix-vector product."""
    if matrix and len(matrix[0]) != len(vec):
        raise DimensionMismatch(
            f"matrix width {len(matrix[0])} != vector length {len(vec)}"
        )
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in matrix)


def edge_payoffs(
    strategy_counts: Sequence[int],
    edges: Mapping[tuple[int, int], Matrix],
    vectors: Iterable[Sequence[Rat]],
    diagonal: Rat = 0,
) -> list[list[Rat]]:
    """``diagonal * sum(v_i) + sum_j M^{ij} v_j`` for every player ``i``,
    exactly.

    ``edges[(i, j)]`` is an ``n_i x n_j`` matrix and ``v_j``, the ``j``-th
    of ``vectors``, player ``j``'s mixed strategy; ``diagonal`` is the
    structured bimatrix game's ``-alpha`` and 0 for polymatrix games.  One
    pass over ``edges`` reads each matrix once, so the cost is
    O(players + total edge entries).

    The sums are int arithmetic.  Each vector is scaled once to
    ``(L_j, nums)`` over the lcm of its own denominators (one lcm over all
    vectors would multiply every term by a huge number when players'
    denominators are distinct primes).  Each output entry is an int
    numerator ``total`` over an int denominator ``den``; a term
    ``a * n / (b * L_j)`` costs one int add when ``b * L_j == den`` and one
    :func:`math.gcd` otherwise.  Only the final ``total / den`` becomes a
    ``Fraction``, zero for a player without out-edges.
    Shapes are the caller's to check.
    """
    diag_num, diag_den = diagonal.numerator, diagonal.denominator
    # flat int lists, few live containers: the garbage collector's cost grows
    # with the containers a call keeps alive, and large games hold many
    scales, units, totals, dens = [], [], [], []
    for v, count in zip(vectors, strategy_counts):
        scale, nums = common_denominator(v)
        scales.append(scale)
        units += nums
        start = diag_num * sum(nums)  # diagonal * sum(v) == start / (diag_den * scale)
        totals += [start] * count
        dens += [diag_den * scale if start else 1] * count
    offsets = list(itertools.accumulate(strategy_counts, initial=0))
    for (i, j), mat in edges.items():
        scale, nums = scales[j], units[offsets[j] : offsets[j + 1]]
        for r, row in enumerate(mat, offsets[i]):
            total, den = totals[r], dens[r]
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
            totals[r], dens[r] = total, den
    return [list(map(Fraction, totals[a:b], dens[a:b])) for a, b in zip(offsets, offsets[1:])]


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


def validate_mixed(vec: Sequence[Rat], length: int | None = None, what: str = "mixed strategy") -> Vector:
    """Check exactness, nonnegativity and unit sum; return the frozen tuple.

    Entries must be ints or Fractions.  The sum is int arithmetic over the
    lcm of the entries' own denominators (:func:`exact_sum`), not a chain
    of rational additions.
    """
    v = tuple(vec)
    if length is not None and len(v) != length:
        raise DimensionMismatch(f"{what} has length {len(v)}, expected {length}")
    _check_exact(v, what)
    if any(x.numerator < 0 for x in v):
        raise ParameterError(f"{what} has a negative entry")
    total, den = exact_sum(v)
    if total != den:
        raise ParameterError(f"{what} does not sum to 1")
    return v


def _checked_profile(profile: Sequence[Vector], counts: Sequence[int]) -> list[Vector]:
    """One validated mixed strategy per player of a game with ``counts``."""
    if len(profile) != len(counts):
        raise DimensionMismatch("profile length != number of players")
    return [
        validate_mixed(p, n, what=f"player {i} strategy")
        for i, (p, n) in enumerate(zip(profile, counts))
    ]


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


def _wsne_violations(
    payoff_vectors: Sequence[Vector],
    profile: Sequence[Vector],
    eps: Rat,
    skip: frozenset[int] = frozenset(),
) -> tuple[Violation, ...]:
    """Each supported pure strategy of a player not in ``skip`` that earns
    less than its player's best pure payoff minus ``eps``.

    ``profile`` must already be validated: every entry an exact rational
    and nonnegative.  The comparisons are int arithmetic.  Each payoff is
    read once as ``(numerator, denominator)``.  The best response is the
    first maximal index, and ``u[j] < u[best] - eps`` is a cross-product of
    ints with ``u[best] - eps`` as one int fraction.  A strategy is
    supported when its numerator is positive.
    """
    eps_n, eps_d = eps.as_integer_ratio()
    found = []
    for i, (u, p) in enumerate(zip(payoff_vectors, profile)):
        if i in skip:
            continue
        pairs = [x.as_integer_ratio() for x in u]
        best, (best_n, best_d) = 0, pairs[0]
        for j, (n, d) in enumerate(pairs):
            if n * best_d > best_n * d:
                best, best_n, best_d = j, n, d
        # floor_n / floor_d == u[best] - eps, with floor_d > 0
        floor_n, floor_d = best_n * eps_d - eps_n * best_d, best_d * eps_d
        for j, ((n, d), pj) in enumerate(zip(pairs, p)):
            if n * floor_d < floor_n * d and pj.numerator > 0:
                found.append(Violation(i, j, u[j], best, u[best]))
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
        counts = tuple(int(n) for n in strategy_counts)
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

    def joint_opponent_distribution(self, i: int, profile: Sequence[Vector]) -> Vector:
        """Product distribution of all players except ``i`` over their profiles."""
        others = [p for j, p in enumerate(profile) if j != i]
        out = []
        for combo in itertools.product(*others):
            prod = 1
            for x in combo:
                prod = prod * x
            out.append(prod)
        return tuple(out)

    def expected_payoffs(self, profile: Sequence[Vector]) -> list[Vector]:
        """Expected payoff of each pure strategy of each player, exactly."""
        prof = _checked_profile(profile, self.strategy_counts)
        return [
            mat_vec(self.payoffs[i], self.joint_opponent_distribution(i, prof))
            for i in range(self.k)
        ]

    def verify_wsne(self, profile: Sequence[Vector], eps: Rat) -> VerifyResult:
        vectors = self.expected_payoffs(profile)
        bad = _wsne_violations(vectors, profile, eps)
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
    allowed.  Each edge's entries are compared once, on ints, for the range
    check, the all-zero test and the game's payoff range.
    """

    def __init__(
        self,
        strategy_counts: Sequence[int],
        edges: Mapping[tuple[int, int], Matrix],
        players: Sequence[PlayerInfo] | None = None,
    ):
        counts = tuple(int(n) for n in strategy_counts)
        if any(n < 2 for n in counts):
            raise ParameterError("every polymatrix player needs at least two pure strategies")
        m = len(counts)
        infos = tuple(players) if players is not None else (PlayerInfo(),) * m
        if len(infos) != m:
            raise DimensionMismatch("need exactly one PlayerInfo per player")
        kept: dict[tuple[int, int], Matrix] = {}
        ranges = []
        for (i, j), mat in edges.items():
            if i == j:
                raise ParameterError(f"self-edge ({i}, {j}) is not allowed")
            if not (0 <= i < m and 0 <= j < m):
                raise ParameterError(f"edge ({i}, {j}) references a missing player")
            frozen = make_matrix(mat)
            if len(frozen) != counts[i] or len(frozen[0]) != counts[j]:
                raise DimensionMismatch(
                    f"edge ({i}, {j}) matrix must be {counts[i]}x{counts[j]}"
                )
            lo, hi = _entry_range(itertools.chain.from_iterable(frozen), 0, 0)
            if lo < -1 or hi > 2:
                raise ParameterError(f"edge ({i}, {j}) entry {lo if lo < -1 else hi} outside [-1, 2]")
            if lo or hi:  # an all-zero matrix has the range (0, 0) and is dropped
                kept[(i, j)] = frozen
                ranges += (lo, hi)
        self.strategy_counts = counts
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

    def expected_payoffs(self, profile: Sequence[Vector]) -> list[Vector]:
        """Expected payoff of each pure strategy of each player, exactly,
        in O(players + total edge entries)."""
        prof = _checked_profile(profile, self.strategy_counts)
        return [tuple(u) for u in edge_payoffs(self.strategy_counts, self.edges, prof)]

    def verify_wsne(
        self,
        profile: Sequence[Vector],
        eps: Rat,
        clamped: Iterable[int] = (),
    ) -> VerifyResult:
        """Check eps-well-supportedness; ``clamped`` players are exempt.

        Clamped players stand for gadget inputs: their strategies still feed
        everyone else's expected payoffs, but they are not required to be
        best-responding themselves.
        """
        vectors = self.expected_payoffs(profile)
        bad = _wsne_violations(vectors, profile, eps, skip=frozenset(clamped))
        return VerifyResult(not bad, bad)

    def payoff_range(self) -> tuple[Rat, Rat]:
        """(min, max) of 0 and every edge entry, as the constructor found it.

        The entries are compared on ints (:func:`_entry_range`), and the
        first entry that sets a new extreme is the one returned.
        """
        return self._range


# ---------------------------------------------------------------------------
# bimatrix games


class BimatrixGame:
    """A two-player game, stored densely or in structured block form.

    Dense: payoff matrices ``A`` (row player / leader) and ``B`` (column
    player / follower), both ``N x N`` here (square because the reduction
    produces square games).

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
        self.n = len(a)
        self.polymatrix = None
        self.block_sizes = None
        self._offsets = None
        self.alpha = None
        self.edges = None
        self.normalized = False
        self.divisor = None
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
        self.polymatrix = polymatrix
        self.block_sizes = polymatrix.strategy_counts
        self.n = sum(self.block_sizes)
        # _offsets[i] is block i's first strategy; _offsets[-1] == n
        self._offsets = tuple(itertools.accumulate(self.block_sizes, initial=0))
        self.alpha = alpha
        self.edges = polymatrix.edges
        self.normalized = bool(normalized)
        self.divisor = alpha + (2 if hi > 1 else 1)
        # the unnormalized range: -alpha and 1 against the edge entries
        self._range = _entry_range((lo, hi), -alpha, 1)
        return self

    # -- shared interface

    @property
    def num_blocks(self) -> int:
        if self.block_sizes is None:
            raise ParameterError("dense games have no block structure")
        return len(self.block_sizes)

    def block_offset(self, i: int) -> int:
        """Index in ``[N]`` of block ``i``'s first strategy."""
        return self._offsets[i]

    def strategy_index(self, i: int, j: int) -> int:
        """Map pure strategy ``j`` of polymatrix player ``i`` into ``[N]``."""
        if not 0 <= i < self.num_blocks:
            raise ParameterError(f"block {i} outside range(0, {self.num_blocks})")
        if not 0 <= j < self.block_sizes[i]:
            raise ParameterError(f"strategy {j} outside block {i}")
        return self._offsets[i] + j

    def block_of(self, s: int) -> tuple[int, int]:
        """Inverse of :meth:`strategy_index`, in O(log blocks)."""
        if not 0 <= s < self.n:
            raise ParameterError(f"strategy {s} outside range(0, {self.n})")
        i = bisect_right(self._offsets, s) - 1
        return i, s - self._offsets[i]

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
            return (value + self.alpha) / self.divisor
        return value

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

    def to_dense(self, max_entries: int = 4_000_000) -> "BimatrixGame":
        """Materialize a dense copy (for small games and tests), in
        O(N^2 log blocks)."""
        if self.encoding == "dense":
            return self
        if self.n * self.n > max_entries:
            raise SizeBudgetExceeded(
                f"dense form would need {self.n * self.n} entries (> {max_entries})"
            )
        a = [[self.entry(0, r, c) for c in range(self.n)] for r in range(self.n)]
        b = [[self.entry(1, r, c) for c in range(self.n)] for r in range(self.n)]
        return BimatrixGame.dense(a, b)

    def expected_payoffs(self, x: Sequence[Rat], y: Sequence[Rat]) -> tuple[Vector, Vector]:
        """(leader payoff vector ``A y``, follower payoff vector ``B^T x``).

        The structured form costs O(N + total edge entries): one
        :func:`edge_payoffs` call sums the edge blocks and, in the same int
        accumulators, each diagonal block's ``-alpha`` times the follower's
        mass on that block.
        """
        x = validate_mixed(x, self.n, what="leader strategy")
        y = validate_mixed(y, self.n, what="follower strategy")
        if self.encoding == "dense":
            u1 = mat_vec(self.a, y)
            u2 = tuple(
                sum(self.b[r][c] * x[r] for r in range(self.n)) for c in range(self.n)
            )
            return u1, u2
        offsets = self._offsets
        y_blocks = (y[a:b] for a, b in zip(offsets, offsets[1:]))
        u1 = [
            v
            for u in edge_payoffs(self.block_sizes, self.edges, y_blocks, -self.alpha)
            for v in u
        ]
        u2 = tuple(x)  # follower payoff is B^T x = x for the identity B
        if self.normalized:
            u1 = [self._norm(v) for v in u1]
            u2 = tuple(self._norm(v) for v in u2)
        return tuple(u1), u2

    def verify_wsne(
        self,
        x: Sequence[Rat],
        y: Sequence[Rat],
        eps: Rat,
        clamped: Iterable[int] = (),
    ) -> VerifyResult:
        u1, u2 = self.expected_payoffs(x, y)
        bad = _wsne_violations([u1, u2], [tuple(x), tuple(y)], eps, skip=frozenset(clamped))
        return VerifyResult(not bad, bad)

    def payoff_range(self) -> tuple[Rat, Rat]:
        """(min, max) payoff over both matrices.

        Structured games: the smaller of ``-alpha`` (the diagonal blocks)
        and the edges' minimum, and the larger of 1 (the identity follower)
        and the edges' maximum, from the range the polymatrix game stored.
        Both are mapped through the normalization when the game is
        normalized.
        """
        if self.encoding == "dense":
            entries = [x for row in self.a for x in row] + [
                x for row in self.b for x in row
            ]
            return min(entries), max(entries)
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
