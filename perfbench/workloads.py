"""The four benchmark workloads: seeded inputs, operations and their oracles.

Every workload is a closed loop with one caller.  Its inputs come in
*rounds*: round ``r`` is a fixed list of operations whose inputs depend only
on the seed and ``r``, so two runs of one seed see identical inputs and a
run always measures whole rounds.  An operation returns an :class:`Outcome`
saying whether its output passed the workload's exact oracle.

The library is called through its module attributes (``reductions.linearize``
and so on) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from nashreduce import R, fileio, gadgets, model, multipliers, reductions, solvers, sweep


@dataclass
class Outcome:
    """What one operation produced.

    ``phases`` holds named sub-timings taken inside the operation.
    ``stats`` computes exact sizes and digests of the outputs; the loop
    calls it after the operation's timer has stopped.
    """

    ok: bool
    detail: str = ""
    phases: dict[str, float] = field(default_factory=dict)
    stats: Callable[[], dict] | None = None


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]


class Workload:
    """A named source of rounds of operations.

    ``pool_rounds`` rounds are generated during set-up; a run that outlasts
    them generates further rounds between operations.
    """

    name: str
    pool_rounds: int

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def make_round(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def warm_up_ops(self, rng: random.Random) -> list[Op]:
        """Untimed operations run once during set-up."""
        return self.make_round(rng)


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among rationals."""
    best = 0
    for v in values:
        best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _edge_values(edges):
    return (x for mat in edges.values() for row in mat for x in row)


def _flat(vectors):
    return (x for vec in vectors for x in vec)


# ---------------------------------------------------------------------------
# reduce-log: 3-player sources with a planted strict pure equilibrium

EPS_K = R(9, 10)
# four (3,2,2) sources to the round, spread through it, so that the median
# operation is the mean of two of four samples of one size, not of two
ROUND_SHAPES = ((2, 2, 2), (3, 2, 2), (3, 2, 2), (3, 3, 3), (3, 2, 2), (3, 2, 2))
PLANTED_RIVAL_CAP = R(99, 100)


def planted_source(rng: random.Random, counts) -> tuple[model.NormalFormGame, tuple[int, ...]]:
    """A random normal-form game in which a seeded pure profile is a strict
    equilibrium.

    Entries are drawn as in :func:`nashreduce.random_normal_form`.  Then,
    in each player's column for the planted opponents, the planted strategy
    is raised to 1 and every rival strategy is capped at 99/100.
    """
    game = model.random_normal_form(rng, counts)
    planted = tuple(rng.randrange(n) for n in counts)
    payoffs = []
    for i, n in enumerate(counts):
        others = [planted[j] for j in range(len(counts)) if j != i]
        col = game.opponent_index(i, others)
        rows = [list(row) for row in game.payoffs[i]]
        for j in range(n):
            if j == planted[i]:
                rows[j][col] = R(1)
            else:
                rows[j][col] = min(rows[j][col], PLANTED_RIVAL_CAP)
        payoffs.append(rows)
    return model.NormalFormGame(counts, payoffs), planted


class ReduceLog(Workload):
    """Reduce a planted 3-player source with the log construction, write and
    read back the reduced game, then lift, verify and recover the planted
    equilibrium.  One round is one source of each shape in ROUND_SHAPES."""

    name = "reduce-log"
    pool_rounds = 2

    def make_round(self, rng: random.Random) -> list[Op]:
        ops = []
        for k, counts in enumerate(ROUND_SHAPES):
            game, planted = planted_source(rng, counts)
            shape = "x".join(map(str, counts))
            ops.append(Op(f"reduce[{shape}]", self._op(game, planted, f"{k}-{shape}")))
        return ops

    def warm_up_ops(self, rng: random.Random) -> list[Op]:
        game, planted = planted_source(rng, (2, 2))
        return [Op("reduce[2x2]", self._op(game, planted, "2x2"))]

    def _op(self, game, planted, label) -> Callable[[], Outcome]:
        game_path = self.work_dir / f"{label}.game.json"
        mapping_path = self.work_dir / f"{label}.mapping.json"
        counts = game.strategy_counts
        pure = [model.pure_strategy(n, p) for n, p in zip(counts, planted)]

        def run() -> Outcome:
            start = perf_counter()
            # the reduce half: what `nashreduce reduce` costs
            gm, lin_map, lin_params = reductions.linearize(game, EPS_K, "log")
            g2, bi_map, bi_params = reductions.bimatrixify(gm, lin_params.eps_m)
            fileio.write_game(game_path, g2)
            fileio.write_mapping(mapping_path, bi_map, bi_params)
            mid = perf_counter()
            # the check half: read back as `nashreduce recover` does, then
            # lift, verify and recover the planted equilibrium
            g2_read = fileio.read_game(game_path)
            map_read, params_read = fileio.read_mapping(mapping_path)
            poly = reductions.lift_to_polymatrix(pure, lin_map)
            poly_ok = gm.verify_wsne(poly, lin_params.eps_m).ok
            x, y = solvers.lift_to_bimatrix(g2_read, poly, map_read)
            bi_ok = g2_read.verify_wsne(x, y, params_read.eps_2).ok
            poly_back = reductions.recover_from_bimatrix(g2_read, (x, y), map_read)
            recovered = reductions.recover_from_polymatrix(gm, poly_back, lin_map)
            end = perf_counter()

            same = [tuple(p) for p in recovered] == pure
            detail = "" if poly_ok and bi_ok and same else (
                f"polymatrix ok={poly_ok} bimatrix ok={bi_ok} recovered planted={same}"
            )

            def stats() -> dict:
                data = game_path.read_bytes()
                return {
                    "reductions.players": gm.m,
                    "reductions.edges": len(gm.edges),
                    "reductions.N": bi_params.N,
                    "fileio.bytes": len(data) + mapping_path.stat().st_size,
                    "rational.max_bits": max(
                        max_bits(_edge_values(g2.edges)),
                        max_bits((g2.alpha, bi_map.divisor)),
                        max_bits(_flat(poly)),
                        max_bits(x),
                        max_bits(y),
                    ),
                    "sha256": {label: hashlib.sha256(data).hexdigest()},
                }

            return Outcome(
                ok=not detail,
                detail=detail,
                phases={"reduce": mid - start, "check": end - mid},
                stats=stats,
            )

        return run


# ---------------------------------------------------------------------------
# solve-imitation: exact solve of block imitation games

IMITATION_COUNTS = (2, 2)
EPS_M = R(3, 10)


class SolveImitation(Workload):
    """bimatrixify a random complete polymatrix game, solve the imitation
    game exactly, recover and verify the polymatrix profile.  One round is
    one game."""

    name = "solve-imitation"
    pool_rounds = 256

    def make_round(self, rng: random.Random) -> list[Op]:
        poly = model.random_polymatrix(rng, IMITATION_COUNTS)
        return [Op("solve-imitation", self._op(poly))]

    @staticmethod
    def _op(poly) -> Callable[[], Outcome]:
        def run() -> Outcome:
            g2, mapping, params = reductions.bimatrixify(poly, EPS_M)
            result = solvers.support_enumeration_bimatrix(g2)
            recovered = reductions.recover_from_bimatrix(g2, result.profile, mapping)
            exact = result.certificate == "exact-nash"
            verified = poly.verify_wsne(recovered, EPS_M).ok
            detail = "" if exact and verified else (
                f"certificate={result.certificate} recovered verifies={verified}"
            )

            def stats() -> dict:
                return {
                    "reductions.players": poly.m,
                    "reductions.edges": len(poly.edges),
                    "reductions.N": params.N,
                    "rational.max_bits": max(
                        max_bits(_edge_values(g2.edges)),
                        max_bits((g2.alpha,)),
                        max_bits(_flat(result.profile)),
                    ),
                }

            return Outcome(ok=not detail, detail=detail, stats=stats)

        return run


# ---------------------------------------------------------------------------
# solve-dense: exact solve of dense games without imitation structure

DENSE_N = 4
DENSE_DENOMINATOR = 100


def _has_pure_equilibrium(a, b) -> bool:
    n = len(a)
    col_best = [max(a[r][c] for r in range(n)) for c in range(n)]
    row_best = [max(row) for row in b]
    return any(
        a[r][c] == col_best[c] and b[r][c] == row_best[r]
        for r in range(n)
        for c in range(n)
    )


def dense_game(rng: random.Random) -> model.BimatrixGame:
    """A random n x n game with entries j/100 and no pure equilibrium.

    Games with a pure equilibrium are redrawn: support enumeration finds
    those at its first support pair, in well under a millisecond, so they
    would measure the loop instead of the solver.
    """
    while True:
        a, b = (
            [
                [R(rng.randrange(DENSE_DENOMINATOR + 1), DENSE_DENOMINATOR) for _ in range(DENSE_N)]
                for _ in range(DENSE_N)
            ]
            for _ in range(2)
        )
        if not _has_pure_equilibrium(a, b):
            return model.BimatrixGame.dense(a, b)


class SolveDense(Workload):
    """Solve a dense bimatrix game exactly and check that the profile is an
    exact Nash equilibrium.  One round is one game."""

    name = "solve-dense"
    pool_rounds = 256

    def make_round(self, rng: random.Random) -> list[Op]:
        return [Op("solve-dense", self._op(dense_game(rng)))]

    @staticmethod
    def _op(game) -> Callable[[], Outcome]:
        def run() -> Outcome:
            result = solvers.support_enumeration_bimatrix(game)
            eps = solvers.realized_eps(game, result.profile)
            detail = "" if eps == 0 else f"realized eps {eps}"

            def stats() -> dict:
                return {
                    "rational.max_bits": max(
                        max_bits(_flat(game.a)),
                        max_bits(_flat(game.b)),
                        max_bits(_flat(result.profile)),
                    )
                }

            return Outcome(ok=not detail, detail=detail, stats=stats)

        return run


# ---------------------------------------------------------------------------
# gadget-check: gadget sweeps and standalone multipliers

SWEEP_EPS = R(1, 20)
SWEEP_INPUT_STEP = R(1, 10)
SWEEP_INTERNAL_STEP = R(1, 50)
# (construction, builder name, eps, error bound on the product, pairs per
# round); the log pairs outnumber the thirteen sweeps' faster half, so the
# round's median operation is a log multiplication
MULTIPLIERS = (
    ("unary", "build_unary_multiplier", R(1, 100), 19 * R(1, 100), 4),
    ("log", "build_robust_multiplier", R(1, 10**6), R(3, 1000), 8),
)


def multiplier_pair(rng: random.Random) -> tuple:
    den = rng.choice([48, 97, 100, 256])
    return R(rng.randint(0, den), den), R(rng.randint(0, den), den)


class GadgetCheck(Workload):
    """The gadget library's two certification tasks.  One round sweeps every
    gadget kind once and checks seeded input pairs through standalone
    multipliers of both constructions."""

    name = "gadget-check"
    pool_rounds = 4

    def make_round(self, rng: random.Random) -> list[Op]:
        ops = [Op(f"sweep[{kind}]", self._sweep_op(kind)) for kind in gadgets.GADGET_KINDS]
        for construction, builder, eps, bound, pairs in MULTIPLIERS:
            for _ in range(pairs):
                v1, v2 = multiplier_pair(rng)
                ops.append(
                    Op(f"multiply[{construction}]", self._mult_op(builder, eps, bound, v1, v2))
                )
        return ops

    def warm_up_ops(self, rng: random.Random) -> list[Op]:
        _, builder, eps, bound, _ = MULTIPLIERS[1]
        return [
            Op("sweep[and]", self._sweep_op("and")),
            Op("multiply[log]", self._mult_op(builder, eps, bound, *multiplier_pair(rng))),
        ]

    @staticmethod
    def _sweep_op(kind) -> Callable[[], Outcome]:
        def run() -> Outcome:
            report = sweep.sweep_gadget(kind, SWEEP_EPS, SWEEP_INPUT_STEP, SWEEP_INTERNAL_STEP)
            detail = "" if report.ok and report.empty == 0 else (
                f"{kind}: {len(report.failures)} failing, {report.empty} empty"
            )
            return Outcome(
                ok=not detail, detail=detail, stats=lambda: {"sweep.cases": report.cases}
            )

        return run

    @staticmethod
    def _mult_op(builder, eps, bound, v1, v2) -> Callable[[], Outcome]:
        def run() -> Outcome:
            circuit = gadgets.GadgetCircuit()
            a, b = circuit.add_input(), circuit.add_input()
            out = getattr(multipliers, builder)(circuit, a, b, eps)
            profile = circuit.lift({a.player: v1, b.player: v2})
            game = circuit.combine()
            verified = game.verify_wsne(profile, eps, clamped={a.player, b.player}).ok
            error = abs(profile[out.player][1] - v1 * v2)
            detail = "" if verified and error <= bound else (
                f"{builder}({v1}, {v2}): verifies={verified} error={error} bound={bound}"
            )

            def stats() -> dict:
                return {
                    "rational.max_bits": max(
                        max_bits(_edge_values(game.edges)), max_bits(_flat(profile))
                    )
                }

            return Outcome(ok=not detail, detail=detail, stats=stats)

        return run


WORKLOADS = {
    w.name: w for w in (ReduceLog, SolveImitation, SolveDense, GadgetCheck)
}
