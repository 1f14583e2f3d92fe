"""Exact equilibrium solvers and search oracles.

Three independent ways of finding (or exhaustively listing) equilibria,
used both as standalone tools and as cross-checks for the reduction
pipeline:

* :func:`support_enumeration_bimatrix` -- exact Nash equilibria of small
  two-player games by trying every support pair in size order, each side
  of a pair by one phase-1 simplex on its feasibility system, over
  ``Fraction`` entries.  The follower's side is tried first and the
  leader's only when it solves.  In an imitation game the follower is
  paid by the identity, so its side solves exactly when the follower's
  support lies inside the leader's: a set test rejects every other pair
  without a simplex.  A pair needs both sides, so neither the order nor
  the test can change the pair found first or its profile.
* :func:`grid_enumerate_wsne` -- the complete list of grid profiles that
  a game's well-supported verifier accepts, for brute-force ground truth.
* :func:`brute_force_normal_nash` -- pure-profile search over a k-player
  game with an honest grid fallback; always returns *something* together
  with the tolerance it actually certifies.

All solvers return a :class:`SolverResult` whose profile has been
re-verified at the certified tolerance before being handed back.

:func:`lift_to_bimatrix` is the reverse witness generator: given a
polymatrix profile and the mapping produced by the imitation-game
reduction, it proposes a two-player profile for the big game.  The block
weights are biased so every block's best row earns the same leader payoff,
which makes the witness verify whenever the polymatrix profile was (close
to) exact; for a loose input profile verification may still fail, and the
caller is expected to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Any, Iterable, Iterator, Sequence

from ._rational import exact_sum, rational, unit_denominator
from .errors import (
    CapExceeded,
    NoEquilibriumFound,
    ParameterError,
)
from .model import (
    BimatrixGame,
    NormalFormGame,
    PolymatrixGame,
    Rat,
    ScaledStrategy,
    VerifyResult,
    _best_index,
    _check_tolerance,
    _scaled_profile,
    edge_payoffs,
    iter_profiles,
    pure_strategy,
)
from .reductions import GameMapping, _check_bimatrix_mapping

EXACT_NASH = "exact-nash"
EPS_WSNE = "eps-wsne"

DEFAULT_SUPPORT_CAP = 12
DEFAULT_GRID_CAP = 200_000

Vector = tuple[Rat, ...]


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class SearchCounters:
    """How much search support enumeration did: support pairs tried, in
    search order, and phase-1 simplexes run on the leader's side (``A``)
    and on the follower's side (``B^T``) of those pairs.  A pair that a
    structured game's subset test rejects counts as tried and runs no
    simplex, so on a structured game ``follower_simplexes`` counts the
    pairs with ``opp`` inside ``own`` and equals ``leader_simplexes``."""

    pairs_tried: int
    leader_simplexes: int
    follower_simplexes: int


@dataclass(frozen=True)
class SolverResult:
    """A profile plus the certificate the solver is willing to sign.

    ``certificate`` is :data:`EXACT_NASH` (``eps`` is zero) or
    :data:`EPS_WSNE` (``eps`` is the realized tolerance).  ``profile`` is a
    list of mixed strategies for normal-form/polymatrix games and an
    ``(x, y)`` pair for bimatrix games.  ``counters`` holds support
    enumeration's :class:`SearchCounters`; other solvers leave it ``None``.
    """

    profile: Any
    certificate: str
    eps: Rat
    method: str
    counters: SearchCounters | None = None

    def verify(self, game, clamped: Iterable[int] = ()) -> VerifyResult:
        """Re-check this result against ``game`` at the certified eps."""
        return _verify_profile(game, self.profile, self.eps, clamped)


def _verify_profile(game, profile, eps: Rat, clamped: Iterable[int] = ()) -> VerifyResult:
    if isinstance(game, BimatrixGame):
        x, y = profile
        return game.verify_wsne(x, y, eps, clamped=clamped)
    if isinstance(game, PolymatrixGame):
        return game.verify_wsne(profile, eps, clamped=clamped)
    if tuple(clamped):
        raise ParameterError("clamped players require a polymatrix or bimatrix game")
    return game.verify_wsne(profile, eps)


def realized_eps(game, profile, clamped: Iterable[int] = ()) -> Rat:
    """Smallest tolerance at which ``profile`` passes the verifier."""
    result = _verify_profile(game, profile, rational(0), clamped)
    return max((v.gap for v in result.violations), default=rational(0))


# ---------------------------------------------------------------------------
# exact rational linear algebra


def _phase1_feasible(rows: list[list[Rat]], rhs: list[Rat], num_vars: int) -> list[Rat] | None:
    """Find ``z >= 0`` with ``rows @ z == rhs`` via phase-1 simplex.

    The tableau holds only ``Fraction`` entries (int entries are converted),
    so int rows get exact answers, never floats.  A pivot divides the pivot
    row, then updates the other rows and the cost row in one loop, on the
    pivot row's nonzero columns only: a zero column would change no entry,
    so no pivot choice changes.  Bland's rule (lowest eligible index enters,
    lowest basis index breaks ratio ties) makes the walk deterministic and
    cycle-free, so the first vertex wins.
    """
    zero, one = rational(0), rational(1)
    m = len(rows)
    width = num_vars + m + 1
    tab: list[list[Rat]] = []
    for r, (row, b) in enumerate(zip(rows, rhs)):
        if b < 0:
            row, b = [-v for v in row], -b
        entries = [v if type(v) is Fraction else rational(v) for v in (*row, *[zero] * m, b)]
        entries[num_vars + r] = one
        tab.append(entries)
    basis = list(range(num_vars, num_vars + m))
    # Phase-1 objective: minimize the sum of the artificial variables.
    cost = [zero] * width
    for row in tab:
        for c in range(num_vars):
            cost[c] -= row[c]
        cost[-1] -= row[-1]
    while True:
        enter = next((c for c in range(width - 1) if cost[c] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for r in range(m):
            coeff = tab[r][enter]
            if coeff > 0:
                ratio = tab[r][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave is None:  # objective is bounded below by zero, so unreachable
            return None
        prow = tab[leave]
        pivot = prow[enter]
        nonzero = [c for c, v in enumerate(prow) if v]
        for c in nonzero:
            prow[c] /= pivot
        for row in (*tab, cost):
            factor = row[enter]
            if row is not prow and factor:
                for c in nonzero:
                    row[c] -= factor * prow[c]
        basis[leave] = enter
    if cost[-1] != 0:  # leftover artificial mass: the system is infeasible
        return None
    z = [zero] * num_vars
    for r, var in enumerate(basis):
        if var < num_vars:
            z[var] = tab[r][-1]
    return z


# ---------------------------------------------------------------------------
# support enumeration


def _support_solution(
    matrix: Sequence[Sequence[Rat]],
    own: tuple[int, ...],
    opp: tuple[int, ...],
    n: int,
) -> list[Rat] | None:
    """Opponent mix supported inside ``opp`` making every ``own`` row best.

    ``matrix`` holds this player's payoffs (rows = own strategies, columns
    = opponent strategies).  Returns a full-length probability vector, or
    ``None`` when no such mix exists for this support pair.  Every support
    pair, square or not, takes one path: exact phase-1 simplex on the
    feasibility system, whose inequalities say the shared row value beats
    every off-support row.  When a square pair's indifference system is
    nonsingular it fixes the mix, so the feasible set is that one point or
    empty, and the first vertex is the mix Gaussian elimination would give.
    """
    zero, one = rational(0), rational(1)
    own_set = frozenset(own)
    s = len(opp)
    # Any vertex of {q >= 0 on opp, sum q = 1, own rows tied at v, other
    # rows <= v}, with slack variables and a free (split) row value v.
    num_slack = n - len(own)
    num_vars = s + 2 + num_slack
    rows = [[one] * s + [zero] * (2 + num_slack)]
    rhs = [one]
    slack = 0
    for i in range(n):
        coeffs = [matrix[i][j] for j in opp] + [-one, one] + [zero] * num_slack
        if i not in own_set:
            coeffs[s + 2 + slack] = one
            slack += 1
        rows.append(coeffs)
        rhs.append(zero)
    z = _phase1_feasible(rows, rhs, num_vars)
    if z is None:
        return None
    full = [zero] * n
    for idx, j in enumerate(opp):
        full[j] = z[idx]
    return full


def support_enumeration_bimatrix(
    game: BimatrixGame, cap: int = DEFAULT_SUPPORT_CAP
) -> SolverResult:
    """Exact Nash equilibrium of a small bimatrix game.

    Tries support pairs in size order (then lexicographically within a
    size) and returns the first pair admitting an exact solution, so the
    answer is deterministic.  Raises :class:`CapExceeded` when the game
    is larger than ``cap`` strategies per side, and
    :class:`NoEquilibriumFound` if the search exhausts -- which existence
    of Nash equilibria rules out, so that exception always means an
    internal error and carries diagnostics, the search's
    :class:`SearchCounters` among them.

    Search order: each pair has two sides, the follower's (its ``opp``
    rows of ``B^T`` tied against the leader's mix on ``own``) and the
    leader's (its ``own`` rows of ``A`` against the follower's mix on
    ``opp``).  The follower's side is solved first, and the leader's only
    when the follower's solves.  A pair is an equilibrium exactly when
    both sides solve, and each side's solution does not depend on the
    other, so the order changes neither which pair is found first nor
    its profile, only how many simplexes run.  The result's
    :attr:`SolverResult.counters` counts them.

    A structured game is an imitation game ``(A, I)``: the follower's
    payoff for column ``c`` is ``x_c``.  Its side of a pair solves
    exactly when ``opp`` is a subset of ``own``, so a pair failing that
    set test is rejected with no simplex.  If some ``c`` in ``opp`` is
    not in ``own``, then ``x_c = 0``, since ``x`` lives on ``own``, and
    column ``c`` ties at the follower's best value, so every
    ``x_r <= 0``, against ``sum(x) == 1``.  If ``opp`` lies inside
    ``own``, ``x`` uniform on ``opp`` solves it.  A normalized game's
    follower payoffs are an increasing affine image of ``I``, which
    changes neither ties nor order, so the same test holds.  A pair that
    passes still runs the follower's simplex, whose vertex is the ``x``
    returned (not in general uniform on ``opp``), so the pair found, its
    profile and ``pairs_tried`` are what the simplex alone would give.
    Dense games take no set test.
    """
    n = game.n
    if n > cap:
        raise CapExceeded(f"support enumeration handles at most {cap} strategies, game has {n}")
    dense = game.to_dense()
    a = dense.a
    imitation = game.encoding == "structured"
    pairs_tried = leader_simplexes = follower_simplexes = 0
    for size1 in range(1, n + 1):
        for size2 in range(1, n + 1):
            for own in combinations(range(n), size1):
                own_set = frozenset(own) if imitation else None
                for opp in combinations(range(n), size2):
                    pairs_tried += 1
                    if imitation and not own_set.issuperset(opp):
                        continue
                    follower_simplexes += 1
                    x = _support_solution(dense.bt, opp, own, n)
                    if x is None:
                        continue
                    leader_simplexes += 1
                    y = _support_solution(a, own, opp, n)
                    if y is None:
                        continue
                    counters = SearchCounters(pairs_tried, leader_simplexes, follower_simplexes)
                    result = SolverResult(
                        profile=(tuple(x), tuple(y)),
                        certificate=EXACT_NASH,
                        eps=rational(0),
                        method="support-enumeration",
                        counters=counters,
                    )
                    check = result.verify(game)
                    if not check.ok:
                        raise NoEquilibriumFound(
                            "support enumeration produced a profile that fails verification",
                            diagnostics={
                                "supports": (own, opp),
                                "violations": check.violations,
                                "counters": counters,
                            },
                        )
                    return result
    raise NoEquilibriumFound(
        "support enumeration exhausted every support pair; since finite games "
        "always have equilibria, this is an internal error",
        diagnostics={
            "n": n,
            "pairs_tried": pairs_tried,
            "encoding": game.encoding,
            "counters": SearchCounters(pairs_tried, leader_simplexes, follower_simplexes),
        },
    )


# ---------------------------------------------------------------------------
# grid enumeration


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _simplex_grid(n: int, denominator: int) -> list[Vector]:
    return [
        tuple(rational(c, denominator) for c in comp)
        for comp in _compositions(denominator, n)
    ]


def grid_enumerate_wsne(
    game,
    eps: Rat,
    step,
    clamped: Iterable[int] = (),
    cap: int = DEFAULT_GRID_CAP,
):
    """All grid profiles the verifier accepts at tolerance ``eps``.

    ``step`` must be ``1/D``; each player's mixed strategy then ranges over
    the points of its simplex with coordinates in multiples of ``1/D``.
    The stream contains *exactly* the grid profiles passing
    ``verify_wsne(profile, eps, clamped)``, in lexicographic order.
    Raises :class:`CapExceeded` up front when the full grid would have
    more than ``cap`` profiles, and :class:`ParameterError` at the call
    unless ``eps`` is an exact rational at least 0.
    """
    denominator = unit_denominator(step)
    _check_tolerance(eps)
    clamped = tuple(clamped)
    if clamped and not isinstance(game, (BimatrixGame, PolymatrixGame)):
        raise ParameterError("clamped players require a polymatrix or bimatrix game")
    if isinstance(game, BimatrixGame):
        counts: tuple[int, ...] = (game.n, game.n)
    else:
        counts = tuple(game.strategy_counts)
    total = math.prod(math.comb(denominator + n - 1, n - 1) for n in counts)
    if total > cap:
        raise CapExceeded(f"grid has {total} profiles (cap {cap})")
    grids = [_simplex_grid(n, denominator) for n in counts]

    def stream():
        for combo in product(*grids):
            profile = combo if isinstance(game, BimatrixGame) else list(combo)
            if _verify_profile(game, profile, eps, clamped).ok:
                yield profile

    return stream()


# ---------------------------------------------------------------------------
# brute force for k-player games


def brute_force_normal_nash(
    game: NormalFormGame,
    grid_denominator: int = 2,
    cap: int = DEFAULT_GRID_CAP,
) -> SolverResult:
    """Pure-profile search with an honest mixed-grid fallback.

    Returns the first pure Nash equilibrium in lexicographic order when
    one exists.  Otherwise scans the mixed grid with the given denominator
    (skipped if it would exceed ``cap`` profiles) and returns the best
    profile seen anywhere, certified at its *realized* tolerance -- the
    smallest eps the verifier actually accepts.  The grid step is
    ``1/grid_denominator``.
    """
    if not isinstance(grid_denominator, int) or grid_denominator < 1:
        raise ParameterError(
            f"grid_denominator must be a positive integer D, got {grid_denominator!r}"
        )
    counts = tuple(game.strategy_counts)
    best_profile = None
    best_eps = None
    for pures in iter_profiles(counts):
        profile = [pure_strategy(n, j) for n, j in zip(counts, pures)]
        gap = realized_eps(game, profile)
        if gap == 0:
            return SolverResult(profile, EXACT_NASH, rational(0), "pure-search")
        if best_eps is None or gap < best_eps:
            best_profile, best_eps = profile, gap
    total = math.prod(math.comb(grid_denominator + n - 1, n - 1) for n in counts)
    if total <= cap:
        grids = [_simplex_grid(n, grid_denominator) for n in counts]
        for combo in product(*grids):
            profile = list(combo)
            gap = realized_eps(game, profile)
            if gap == 0:
                return SolverResult(profile, EXACT_NASH, rational(0), "grid-search")
            if gap < best_eps:
                best_profile, best_eps = profile, gap
    return SolverResult(best_profile, EPS_WSNE, best_eps, "grid-search")


# ---------------------------------------------------------------------------
# polymatrix profile -> bimatrix witness


def lift_to_bimatrix(
    g2: BimatrixGame,
    profile: Sequence[Sequence[Rat]],
    mapping: GameMapping,
) -> tuple[ScaledStrategy, ScaledStrategy]:
    """Propose a two-player profile of ``g2`` encoding a polymatrix profile.

    The follower plays each block ``i`` with weight ``1/m`` corrected by
    ``(u_i - mean(u))/(alpha m)``, where ``u_i`` is block ``i``'s best
    polymatrix payoff against ``profile``: the correction cancels the
    spread in block-best leader payoffs, so every supported row is within
    ``2 eps_2 / m`` of optimal whenever ``profile`` is exact.  The leader
    plays uniformly on the follower's support, which makes imitation
    exactly optimal.  For loose input profiles the witness may fail
    verification; callers are expected to verify at their eps.

    ``g2`` must be structured, and ``mapping`` must agree with its block
    sizes, alpha and divisor.  The profile is validated and scaled to ints
    in one pass, or read as it is when it is a lifted or recovered
    :class:`ScaledProfile`, and :func:`edge_payoffs` gives each block's
    payoffs as int pairs, so the block-best payoffs ``u_i`` and ``sum(u)``
    (:func:`exact_sum`) stay int pairs.  Each weight ``w_i = (alpha m + m
    u_i - sum(u)) / (alpha m^2)`` is one int numerator over one int
    denominator, in lowest terms, and block ``i`` of the follower's
    strategy is that numerator times the profile's units over that
    denominator times the profile's scale.  ``w_i`` depends on block
    ``i`` only through ``u_i``, so the weight, its ``gcd`` and the scaled
    units are worked out once per distinct pair of ``u_i`` and the block's
    units, and shared by every block with that pair: gadget players repeat
    a few strategies and payoffs over thousands of blocks, as
    :func:`edge_payoffs` weighs each distinct pair of a matrix and a
    strategy once.  Both strategies are returned as
    :class:`ScaledStrategy` over ``g2``'s blocks, so no entry becomes a
    ``Fraction`` until it is read, and verifying or recovering them reads
    the ints.  Raises :class:`ParameterError` when some ``w_i <= 0``.
    """
    _check_bimatrix_mapping(g2, mapping)
    m = len(g2.block_sizes)
    offsets = g2._offsets
    scales, units = _scaled_profile(profile, offsets, what="block")
    totals, dens = edge_payoffs(offsets, g2.edges, scales, units)
    block_best = [
        (totals[r], dens[r])
        for r in (_best_index(totals, dens, a, b) for a, b in zip(offsets, offsets[1:]))
    ]
    # w_i = (alpha m + m u_i - sum(u)) / (alpha m^2) == num / den, on ints,
    # with alpha == a / b, u_i == n / d and sum(u) == total / scale
    a, b = g2.alpha.as_integer_ratio()
    total, scale = exact_sum(block_best)
    y_scales, y_units = [], []
    # (u_i as its pair, v_i's units, which sum to its scale) -> block i of y
    weighed: dict[tuple[int, ...], tuple[int, list[int]]] = {}
    for (n, d), v_scale, start, stop in zip(block_best, scales, offsets, offsets[1:]):
        block = units[start:stop]
        key = (n, d, *block)
        y_block = weighed.get(key)
        if y_block is None:
            num = m * scale * (a * d + b * n) - total * b * d
            if num * a <= 0:  # den has the sign of a
                raise ParameterError("alpha is too small to rebalance the block weights")
            den = a * m * m * d * scale
            g = math.gcd(num, den)
            num //= g
            y_block = weighed[key] = (den // g * v_scale, [num * v for v in block])
        y_scales.append(y_block[0])
        y_units += y_block[1]
    # w_i > 0, so y[r] > 0 exactly where the scaled profile is positive
    x_units = [int(v > 0) for v in units]
    x = ScaledStrategy(offsets, [sum(x_units)] * m, x_units, "leader strategy")
    return x, ScaledStrategy(offsets, y_scales, y_units, "follower strategy")
