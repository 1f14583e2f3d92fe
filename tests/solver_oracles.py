"""Solver code that faster paths replaced: the test oracles.

:func:`support_solution` is what :func:`nashreduce.solvers._support_solution`
did before every support pair went through phase-1 simplex: a square
indifference system was solved by Gauss-Jordan elimination
(:func:`solve_square`), and only non-square pairs and singular squares
built the feasibility system, for a phase-1 simplex that updated every
column of every row (:func:`dense_phase1_feasible`).  Give them
``Fraction`` entries: on int rows their divisions give floats.

:func:`leader_first_search` is support enumeration's loop before it
solved the follower's side of each pair first: the leader's side went
first, on every pair.  :func:`support_pairs` is the search order, and
:func:`subset_pairs_up_to` counts the pairs an imitation game's subset
test lets through.  They live with the tests because only the tests
call them.
"""

from itertools import combinations, islice
from typing import Any, Iterator, Sequence

from nashreduce._rational import rational
from nashreduce.solvers import SearchCounters, _support_solution

Rat = Any


def solve_square(rows: list[list[Rat]], rhs: list[Rat]) -> list[Rat] | None:
    """Solve a square linear system exactly; ``None`` if singular."""
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        prow = aug[col]
        for r in range(n):
            row = aug[r]
            if r != col and row[col] != 0:
                factor = row[col] / prow[col]
                for c in range(col, n + 1):
                    row[c] -= factor * prow[c]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def dense_phase1_feasible(rows: list[list[Rat]], rhs: list[Rat], num_vars: int) -> list[Rat] | None:
    """Find ``z >= 0`` with ``rows @ z == rhs`` by phase-1 simplex under
    Bland's rule, updating every column of every row at each pivot."""
    zero, one = rational(0), rational(1)
    m = len(rows)
    width = num_vars + m + 1
    tab: list[list[Rat]] = []
    for row, b in zip(rows, rhs):
        row = list(row)
        if b < 0:
            row = [-v for v in row]
            b = -b
        tab.append(row + [zero] * m + [b])
    for r in range(m):
        tab[r][num_vars + r] = one
    basis = list(range(num_vars, num_vars + m))
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
        if leave is None:
            return None
        prow = tab[leave]
        inv = prow[enter]
        tab[leave] = prow = [v / inv for v in prow]
        for row in tab:
            if row is not prow and row[enter] != 0:
                factor = row[enter]
                for c in range(width):
                    row[c] -= factor * prow[c]
        if cost[enter] != 0:
            factor = cost[enter]
            for c in range(width):
                cost[c] -= factor * prow[c]
        basis[leave] = enter
    if cost[-1] != 0:
        return None
    z = [zero] * num_vars
    for r, var in enumerate(basis):
        if var < num_vars:
            z[var] = tab[r][-1]
    return z


def support_solution(
    matrix: Sequence[Sequence[Rat]],
    own: tuple[int, ...],
    opp: tuple[int, ...],
    n: int,
) -> list[Rat] | None:
    """Opponent mix supported inside ``opp`` making every ``own`` row best,
    or ``None``: by :func:`solve_square` when the pair is square and its
    indifference system nonsingular, else by :func:`dense_phase1_feasible`
    on the feasibility system with a split row value and slacks."""
    zero, one = rational(0), rational(1)
    own_set = frozenset(own)
    s = len(opp)
    if len(own) == s:
        rows: list[list[Rat]] = [[one] * s]
        rhs = [one]
        base = matrix[own[0]]
        for i in own[1:]:
            rows.append([matrix[i][j] - base[j] for j in opp])
            rhs.append(zero)
        sol = solve_square(rows, rhs)
        if sol is not None:
            if any(q < 0 for q in sol):
                return None
            value = sum(base[j] * q for j, q in zip(opp, sol))
            for i in range(n):
                if i not in own_set:
                    if sum(matrix[i][j] * q for j, q in zip(opp, sol)) > value:
                        return None
            full = [zero] * n
            for j, q in zip(opp, sol):
                full[j] = q
            return full
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
    z = dense_phase1_feasible(rows, rhs, num_vars)
    if z is None:
        return None
    full = [zero] * n
    for idx, j in enumerate(opp):
        full[j] = z[idx]
    return full


def support_pairs(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every ``(own, opp)`` support pair of an ``n``-strategy game, in
    support enumeration's search order: by size, then lexicographically."""
    for size1 in range(1, n + 1):
        for size2 in range(1, n + 1):
            for own in combinations(range(n), size1):
                for opp in combinations(range(n), size2):
                    yield own, opp


def subset_pairs_up_to(n: int, pairs_tried: int) -> int:
    """How many of the first ``pairs_tried`` pairs in search order have
    ``opp`` inside ``own``: the follower simplexes an imitation game runs."""
    pairs = islice(support_pairs(n), pairs_tried)
    return sum(set(opp) <= set(own) for own, opp in pairs)


def leader_first_search(game) -> tuple[tuple, SearchCounters]:
    """The first equilibrium profile of support enumeration, and the
    search's counters, trying every pair's leader side (``A``) first and
    its follower side (``B^T``) only when the leader's solves."""
    n = game.n
    dense = game.to_dense()
    pairs = leader = follower = 0
    for own, opp in support_pairs(n):
        pairs += 1
        leader += 1
        y = _support_solution(dense.a, own, opp, n)
        if y is None:
            continue
        follower += 1
        x = _support_solution(dense.bt, opp, own, n)
        if x is None:
            continue
        return (tuple(x), tuple(y)), SearchCounters(pairs, leader, follower)
    raise AssertionError("no support pair solves")
