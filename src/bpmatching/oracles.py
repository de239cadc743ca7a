"""Ground-truth maximum weight matching oracles and the uniqueness gap.

The oracle is one Hungarian method run on the instance's scaled integer
weights; `Fraction` appears only in the returned weights.  The uniqueness
gap comes from the same solve: every other perfect matching is the optimum
with partners permuted along disjoint exchange cycles, each of nonnegative
cost, so the second-best matching differs from the best by one cheapest
exchange cycle (Murty 1968).  Factorial enumeration is kept as an
independent small-n reference; it breaks ties toward the lexicographically
smallest permutation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Optional

from .core import (
    Instance,
    Matching,
    OracleCapExceeded,
    ParameterError,
    matching_weight,
)

BRUTE_FORCE_CAP = 10


def mwm_bruteforce(inst: Instance) -> tuple[Matching, Fraction]:
    """Maximum-weight perfect matching by n! enumeration (n <= 10).

    Ties are broken toward the lexicographically smallest permutation.
    Permutations that would use an absent edge are skipped.
    """
    n = inst.n
    if n > BRUTE_FORCE_CAP:
        raise OracleCapExceeded(f"brute force limited to n <= {BRUTE_FORCE_CAP}")
    best_perm: Optional[tuple[int, ...]] = None
    best_weight = 0
    rows = inst.scaled_weights()
    for perm in permutations(range(n)):
        total = 0
        ok = True
        for i, j in enumerate(perm):
            w = rows[i][j]
            if w is None:
                ok = False
                break
            total += w
        if ok and (best_perm is None or total > best_weight):
            best_perm = perm
            best_weight = total
    if best_perm is None:
        raise ParameterError("instance has no perfect matching on present edges")
    return Matching.of(enumerate(best_perm)), Fraction(best_weight, inst.scale)


def mwm_hungarian(inst: Instance) -> tuple[Matching, Fraction]:
    """Maximum-weight perfect matching via the Hungarian method on integers.

    Absent edges are modeled with a prohibitively negative weight and
    rejected afterwards, so the result never uses one when avoidable.
    """
    n = inst.n
    rows = inst.scaled_weights()
    # Low enough that any matching using an absent edge loses to any
    # matching that avoids all of them (below -2n*w_max with margin).
    sentinel = -(4 * n) * int((inst.max_abs_weight + 1) * inst.scale)
    cost = [[-(w if w is not None else sentinel) for w in row] for row in rows]
    pairs = list(enumerate(_min_cost_assignment(cost)))
    if any(rows[i][j] is None for i, j in pairs):
        raise ParameterError("instance has no perfect matching on present edges")
    m = Matching.of(pairs)
    return m, matching_weight(inst, m)


def _min_cost_assignment(cost: list[list[int]]) -> list[int]:
    """Exact O(n^3) assignment minimizing total cost; returns column per row."""
    n = len(cost)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j]: row (1-based) currently matched to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv: list[Optional[int]] = [None] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta: Optional[int] = None
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if minv[j] is None or cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if delta is None or minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            assert delta is not None
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta  # type: ignore[operator]
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            p[j0] = p[way[j0]]
            j0 = way[j0]
    result = [0] * n
    for j in range(1, n + 1):
        result[p[j] - 1] = j - 1
    return result


def _best_and_gap(inst: Instance) -> tuple[Fraction, Fraction]:
    """Optimum weight and the cost of the cheapest exchange cycle around it.

    Row i may take row k's optimal partner when that edge is present, at
    integer cost w[i][M(i)] - w[i][M(k)].  The cheapest directed cycle of
    this digraph is found by Floyd-Warshall with an open diagonal; the
    optimality of M rules out negative cycles.
    """
    best, best_weight = mwm_hungarian(inst)
    n = inst.n
    w = inst.scaled_weights()
    partner = best.partner_of_left()
    inf = float("inf")
    d = [
        [
            inf if k == i or w[i][partner[k]] is None
            else w[i][partner[i]] - w[i][partner[k]]
            for k in range(n)
        ]
        for i in range(n)
    ]
    for via in range(n):
        d_via = d[via]
        for di in d:
            to_via = di[via]
            if to_via == inf:
                continue
            for k in range(n):
                if to_via + d_via[k] < di[k]:
                    di[k] = to_via + d_via[k]
    cheapest = min(d[i][i] for i in range(n))
    if cheapest == inf:
        raise ParameterError("fewer than two perfect matchings exist")
    assert cheapest >= 0, "Hungarian optimum admits an improving exchange cycle"
    return best_weight, Fraction(cheapest, inst.scale)


def second_best_weight(inst: Instance) -> Fraction:
    """Weight of the second-best perfect matching (distinct edge set)."""
    best, gap = _best_and_gap(inst)
    return best - gap


def uniqueness_gap(inst: Instance) -> Fraction:
    """W(best) - W(second best) over perfect matchings; 0 means non-unique."""
    return _best_and_gap(inst)[1]
