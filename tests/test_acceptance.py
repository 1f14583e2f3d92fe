"""Acceptance suite: the eight headline checks, one test per criterion.

Each test prints ``[criterion N] PASS`` with its elapsed time (visible
under ``pytest -s``) and enforces the stated runtime budget.  Everything
runs in exact rational arithmetic; no tolerance is ever loosened to make
a check pass.
"""

import itertools
import random
import time

import pytest

from nashreduce import R
from nashreduce.fileio import dumps_canonical, game_from_dict, game_to_dict
from nashreduce.gadgets import GADGET_KINDS, GadgetCircuit
from nashreduce.model import (
    BimatrixGame,
    NormalFormGame,
    PolymatrixGame,
    random_normal_form,
    random_polymatrix,
)
from nashreduce.multipliers import (
    build_multiplier,
    build_robust_multiplier,
    build_unary_multiplier,
    predicted_player_count,
)
from nashreduce.reductions import (
    bimatrixify,
    lift_to_polymatrix,
    linearize,
    recover_from_bimatrix,
    recover_full,
    reduce_full,
)
from nashreduce.solvers import _simplex_grid, lift_to_bimatrix, support_enumeration_bimatrix
from nashreduce.sweep import sweep_all


class Budget:
    """Context manager: time a criterion, print the pass line, enforce the cap."""

    def __init__(self, number: int, seconds: float):
        self.number = number
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        elapsed = time.perf_counter() - self.start
        print(f"[criterion {self.number}] PASS ({elapsed:.1f}s)")
        assert elapsed < self.seconds, (
            f"criterion {self.number} took {elapsed:.1f}s, budget {self.seconds}s"
        )
        return False


# ---------------------------------------------------------------------------
# 1. gadget guarantee sweep


def test_criterion_1_gadget_guarantee_sweep():
    with Budget(1, 300):
        reports = sweep_all(
            eps=R(1, 20), input_step=R(1, 20), internal_step=R(1, 100)
        )
        assert set(reports) == set(GADGET_KINDS)
        for kind, report in reports.items():
            assert report.ok, f"{kind}: {len(report.failures)} failing case(s)"
            assert report.empty == 0, f"{kind}: {report.empty} empty acceptance set(s)"


# ---------------------------------------------------------------------------
# 2. worked multiplier example


def _lift_multiplier(build, v1, v2, eps, **kwargs):
    """Build one multiplier, lift exact inputs, verify, return the output value."""
    circuit = GadgetCircuit()
    a, b = circuit.add_input(), circuit.add_input()
    out = build(circuit, a, b, eps, **kwargs)
    profile = circuit.lift({a.player: v1, b.player: v2})
    game = circuit.combine()
    result = game.verify_wsne(profile, eps, clamped={a.player, b.player})
    assert result.ok, result.violations
    return profile[out.player][1]


def test_criterion_2_worked_unary_example():
    with Budget(2, 60):
        eps = R(1, 100)
        tau = 3 * eps
        v1 = 7 * tau + eps / 4
        v2 = 3 * tau - eps / 8
        got = _lift_multiplier(build_unary_multiplier, v1, v2, eps)
        assert abs(got - v1 * v2) <= 19 * eps
        # the staircase output is an exact multiple of tau^2 near 12 tau^2
        assert abs(got - 12 * tau * tau) <= 19 * eps
        assert got == 14 * tau * tau


# ---------------------------------------------------------------------------
# 3. multiplication error envelopes, both constructions


def test_criterion_3_multiplier_envelopes():
    with Budget(3, 300):
        rng = random.Random(3)
        pairs = []
        for _ in range(100):
            den = rng.choice([48, 97, 100, 256])
            pairs.append((R(rng.randint(0, den), den), R(rng.randint(0, den), den)))

        eps_unary = R(1, 100)
        eps_log = R(1, 10**6)
        log_bound = R(3, 1000)  # 3 * sqrt(eps_log)
        for v1, v2 in pairs:
            p = _lift_multiplier(build_unary_multiplier, v1, v2, eps_unary)
            assert abs(p - v1 * v2) <= 19 * eps_unary
            p = _lift_multiplier(build_robust_multiplier, v1, v2, eps_log)
            assert abs(p - v1 * v2) <= log_bound


# ---------------------------------------------------------------------------
# 4. polymatrix -> bimatrix -> exact solve -> recovered equilibrium


def test_criterion_4_bimatrixify_round_trip():
    with Budget(4, 30):
        eps_m = R(3, 10)
        for seed in range(20):
            poly = random_polymatrix(seed, (2, 2, 2))
            g2, mapping, params = bimatrixify(poly, eps_m)
            assert params.eps_2 == R(1, 20)
            assert params.alpha == 1440
            result = support_enumeration_bimatrix(g2)
            assert result.certificate == "exact-nash"
            recovered = recover_from_bimatrix(g2, result.profile, mapping)
            assert poly.verify_wsne(recovered, eps_m).ok, f"seed {seed}"


# ---------------------------------------------------------------------------
# 5. imitation-game WSNE structure on a grid


def _near_argmax(vector, eps):
    best = max(vector)
    return {j for j, v in enumerate(vector) if v >= best - eps}


def _scan_imitation_game(a_matrix, eps_2, denominator, block_sizes=None, alpha=None):
    """Check every grid WSNE of the imitation game (A, identity).

    The follower's payoff vector is x itself, so a pair (x, y) is an
    eps_2-WSNE exactly when supp(x) is within eps_2 of max over A y and
    supp(y) is within eps_2 of max over x.  Two complete scans:

    * x-side: supp(y) can only contain follower strategies within eps_2
      of max(x); every such strategy must already be in supp(x), which
      proves supp(y) is a subset of supp(x) for every WSNE pair at once.
    * y-side: y belongs to some WSNE iff supp(y) is inside the leader's
      near-argmax set T(y) (then a near-uniform grid x on T(y) pairs with
      it; the grid is fine enough because eps_2 >= 1/denominator).  Every
      such y must have near-equal block masses.

    Returns the number of WSNE-completable y vectors.
    """
    n = len(a_matrix)
    for x in _simplex_grid(n, denominator):
        allowed = _near_argmax(x, eps_2)
        support = {j for j, v in enumerate(x) if v > 0}
        assert allowed <= support, f"support violation at x = {x}"

    completable = 0
    for y in _simplex_grid(n, denominator):
        leader = [sum(row[j] * y[j] for j in range(n)) for row in a_matrix]
        t_set = _near_argmax(leader, eps_2)
        support = {j for j, v in enumerate(y) if v > 0}
        if not support <= t_set:
            continue
        completable += 1
        if block_sizes is not None:
            masses = []
            offset = 0
            for size in block_sizes:
                masses.append(sum(y[offset : offset + size]))
                offset += size
            spread = max(masses) - min(masses)
            assert spread <= (1 + eps_2) / alpha, f"block imbalance at y = {y}"
    return completable


def test_criterion_5_imitation_game_structure():
    with Budget(5, 300):
        denominator = 50
        rng = random.Random(5)

        # random dense imitation games at the loosest allowed tolerance
        for n in (3, 4):
            for _ in range(2):
                a = [
                    [R(rng.randint(0, 100), 100) for _ in range(n)] for _ in range(n)
                ]
                _scan_imitation_game(a, R(1, n), denominator)

        # block-eps-uniform games produced by the reduction itself
        pennies = PolymatrixGame(
            (2, 2),
            {
                (0, 1): [[R(1), R(0)], [R(0), R(1)]],
                (1, 0): [[R(0), R(1)], [R(1), R(0)]],
            },
        )
        total_completable = 0
        for poly in [pennies, random_polymatrix(50, (2, 2)), random_polymatrix(51, (2, 2))]:
            g2, mapping, params = bimatrixify(poly, R(1, 5))
            assert params.eps_2 == R(1, 20) <= R(1, g2.n)
            dense = g2.to_dense()
            total_completable += _scan_imitation_game(
                dense.a,
                params.eps_2,
                denominator,
                block_sizes=mapping.block_sizes,
                alpha=params.alpha,
            )
        assert total_completable > 0  # the block-mass check ran on real candidates


# ---------------------------------------------------------------------------
# 6. end-to-end pipeline on a strict pure equilibrium


def test_criterion_6_full_pipeline_pure_nash():
    with Budget(6, 120):
        payoffs = [[[R(1)] * 4, [R(0)] * 4] for _ in range(3)]
        game = NormalFormGame((2, 2, 2), payoffs)
        pure = [(R(1), R(0))] * 3

        g2, mapping, params = reduce_full(game, R(9, 10), "log")
        assert params.eps_m == R(1, 10**5)  # the tolerance floor branch

        poly_profile = lift_to_polymatrix(pure, mapping)
        x, y = lift_to_bimatrix(g2, poly_profile, mapping)
        assert g2.verify_wsne(x, y, params.eps_2).ok

        recovered = recover_full(g2, (x, y), mapping)
        assert recovered == pure


# ---------------------------------------------------------------------------
# 7. multiplier size scaling


def _built_player_count(construction, eps):
    circuit = GadgetCircuit()
    a, b = circuit.add_input(), circuit.add_input()
    build_multiplier(circuit, a, b, eps, construction)
    return circuit.combine().m - 2  # exclude the two inputs


def test_criterion_7_size_scaling():
    with Budget(7, 120):
        unary = [_built_player_count("unary", eps) for eps in (R(1, 20), R(1, 40), R(1, 80))]
        assert unary == [65, 226, 785]
        for smaller, larger in zip(unary, unary[1:]):
            ratio = larger / smaller
            assert R(16, 5) <= ratio <= R(24, 5)  # quadratic growth: ~4x per halving

        log_eps = [R(1, 10**4), R(1, 10**6), R(1, 10**8)]
        betas = [7, 10, 14]
        log_counts = [_built_player_count("log", eps) for eps in log_eps]
        assert log_counts == [predicted_player_count("log", eps) for eps in log_eps]
        slopes = {
            (c2 - c1) / (b2 - b1)
            for (c1, b1), (c2, b2) in itertools.combinations(zip(log_counts, betas), 2)
        }
        assert slopes == {27}  # exactly affine in the digit count


# ---------------------------------------------------------------------------
# 8. serialization round trips and deterministic reductions


def _round_trip(game):
    import json

    text = dumps_canonical(game_to_dict(game))
    back = game_from_dict(json.loads(text))
    assert back == game
    assert dumps_canonical(game_to_dict(back)) == text  # write, read, write: the same bytes


def test_criterion_8_serialization_and_determinism():
    with Budget(8, 300):
        rng = random.Random(8)
        for seed in range(50):
            counts = tuple(rng.choice([2, 3]) for _ in range(rng.choice([2, 3])))
            _round_trip(random_normal_form(seed, counts))
            _round_trip(random_polymatrix(seed, counts))
            n = rng.choice([2, 3, 4])
            a = [[R(rng.randint(0, 100), 100) for _ in range(n)] for _ in range(n)]
            b = [[R(rng.randint(0, 100), 100) for _ in range(n)] for _ in range(n)]
            _round_trip(BimatrixGame.dense(a, b))
            g2, _, _ = bimatrixify(random_polymatrix(seed, (2, 2)), R(1, 2))
            _round_trip(g2)

        payoffs = [[[R(1)] * 4, [R(0)] * 4] for _ in range(3)]
        game = NormalFormGame((2, 2, 2), payoffs)
        runs = []
        for _ in range(2):
            g2, mapping, params = reduce_full(game, R(9, 10), "log")
            runs.append(dumps_canonical(game_to_dict(g2)).encode())
        assert runs[0] == runs[1]
