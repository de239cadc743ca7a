"""Ground-truth maximum weight matching oracles and the uniqueness gap.

The oracle is one Hungarian method run on the instance's one weight
matrix, integer numerators over ``Instance.scale``; `Fraction` appears only
in the returned weights and gap.  Each row's search defers its dual shifts
to its end, one per tree column, and so ends on the eager method's duals.
The uniqueness gap comes from the same solve: every other perfect matching
is the optimum with partners permuted along disjoint exchange cycles, each
of nonnegative cost, so the second-best matching differs from the best by
one cheapest exchange cycle (Murty 1968).  The gap also fixes the certified
horizon, the Bayati-Shah-Sharma bound on how long BP runs; an embedded
instance's bare view, when the optimum keeps to it, takes its gap from the
optimum with no second solve.  An exhaustive dynamic program over column
subsets, n * 2^n steps, is kept as an independent small-n reference; it
breaks ties toward the lexicographically smallest permutation.  Like
``trees``, this module imports only ``core``, so it checks the engine
without sharing its code.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from typing import Optional

from .core import (
    Instance,
    Matching,
    OracleCapExceeded,
    ParameterError,
    bare_view,
    matching_weight,
)

BRUTE_FORCE_CAP = 10


def mwm_bruteforce(inst: Instance) -> tuple[Matching, Fraction]:
    """Maximum-weight perfect matching by exhaustive dynamic programming
    over column subsets (n <= 10), n * 2^n steps on the scaled integers.

    ``best[used]`` is the largest weight with which rows popcount(used) to
    n - 1 take the columns outside ``used`` on present edges, or None if
    they cannot.  Row by row, the smallest column that keeps the optimum is
    taken, so ties are broken toward the lexicographically smallest
    permutation.
    """
    n = inst.n
    if n > BRUTE_FORCE_CAP:
        raise OracleCapExceeded(f"brute force limited to n <= {BRUTE_FORCE_CAP}")
    rows = inst.scaled_weights()
    best: list[Optional[int]] = [None] * (1 << n)
    best[-1] = 0
    for used in range(len(best) - 2, -1, -1):
        for j, w in enumerate(rows[used.bit_count()]):
            if w is None or used >> j & 1 or (rest := best[used | 1 << j]) is None:
                continue
            if best[used] is None or w + rest > best[used]:
                best[used] = w + rest
    if best[0] is None:
        raise ParameterError("instance has no perfect matching on present edges")
    used, perm = 0, []
    for row in rows:
        perm.append(next(j for j, w in enumerate(row) if w is not None and not used >> j & 1
                         and (rest := best[used | 1 << j]) is not None
                         and w + rest == best[used]))
        used |= 1 << perm[-1]
    return Matching.of(enumerate(perm)), Fraction(best[0], inst.scale)


def mwm_hungarian(inst: Instance) -> tuple[Matching, Fraction]:
    """Maximum-weight perfect matching via the Hungarian method on integers.

    Absent edges are modeled with a prohibitively negative weight and
    rejected afterwards, so the result never uses one when avoidable.
    """
    n = inst.n
    rows = inst.scaled_weights()
    # Low enough that any matching using an absent edge loses to any
    # matching that avoids all of them (below -2n*w_max with margin).
    w_max = max((abs(x) for row in rows for x in row if x is not None), default=0)
    sentinel = -(4 * n) * (w_max + inst.scale)
    cost = [[-(w if w is not None else sentinel) for w in row] for row in rows]
    pairs = list(enumerate(_min_cost_assignment(cost)))
    if any(rows[i][j] is None for i, j in pairs):
        raise ParameterError("instance has no perfect matching on present edges")
    m = Matching.of(pairs)
    return m, matching_weight(inst, m)


def _min_cost_assignment(cost: list[list[int]]) -> list[int]:
    """Exact O(n^3) assignment minimizing total cost; returns column per row.

    Each scan visits only the ``free`` columns, those off the alternating
    tree, in ascending order with a strict ``<``; a scan of every column
    that skips the tree's picks the same column, so the assignment is the
    same.  The shifts are deferred: ``acc`` sums the search's deltas, ``mv``
    holds each free column's slack plus ``acc``, and a scan's delta is
    ``min(mv) - acc``.  Each tree column records the ``acc`` it joined at,
    and its row's ``u`` and its ``v`` move once, by ``acc`` at the end less
    that, when the search ends.  Every comparison is the eager one's, so the
    final duals are the eager ones."""
    n = len(cost)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j]: row (1-based) currently matched to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = acc = 0
        mv = [inf] * (n + 1)
        free, done = list(range(1, n + 1)), [(0, 0)]
        while True:
            row, base = cost[p[j0] - 1], acc - u[p[j0]]
            acc = inf
            for j in free:
                cur = row[j - 1] + base - v[j]
                if cur < mv[j]:
                    mv[j] = cur
                    way[j] = j0
                if mv[j] < acc:
                    acc = mv[j]
                    j1 = j
            free.remove(j1)
            j0 = j1
            if p[j0] == 0:
                break
            done.append((j0, acc))
        for j, at in done:
            u[p[j]] += acc - at
            v[j] -= acc - at
        while j0:
            p[j0] = p[way[j0]]
            j0 = way[j0]
    result = [0] * n
    for j in range(1, n + 1):
        result[p[j] - 1] = j - 1
    return result


def optimum_and_gap(inst: Instance, best: Optional[Matching] = None
                    ) -> tuple[Matching, Fraction, Fraction]:
    """The optimum matching, its weight, and the cost of the cheapest exchange
    cycle around it (the uniqueness gap); ``best``, if given, is that optimum.

    Row i may take row k's optimal partner when that edge is present, at
    integer cost w[i][M(i)] - w[i][M(k)].  The cheapest directed cycle of
    this digraph is found by Floyd-Warshall with an open diagonal; the
    optimality of M rules out negative cycles.
    """
    best, best_weight = (best, matching_weight(inst, best)) if best else mwm_hungarian(inst)
    n = inst.n
    w = inst.scaled_weights()
    partner = best.partner_of_left()
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
    if cheapest < 0:
        raise RuntimeError("Hungarian optimum admits an improving exchange cycle")
    return best, best_weight, Fraction(cheapest, inst.scale)


def certified_horizon(inst: Instance, eps: Optional[Fraction] = None,
                      best: Optional[Matching] = None) -> int:
    """ceil(2n*w/eps), the Bayati-Shah-Sharma bound; eps is the uniqueness
    gap, solved for with the optimum unless given.  The bound is stated for
    nonnegative weights with w = w_max, the largest edge weight, and the
    embedded families keep it (``_bare_view_gap``, which ``best``, an optimum
    of ``inst`` given or solved for, spares a solve).  Any other negative
    weight makes w the spread w_max - w_min: a common shift of the weights
    changes no belief when every node has two or more edges.  Integer
    arithmetic on the scaled weights: ceil(2n*W*q / (p*scale)) with W the
    scaled w and eps = p/q.  ``ParameterError`` on no positive weight, a
    tied optimum, one perfect matching, or a negative weight with a node of
    one edge."""
    xs = [x for row in inst.scaled_weights() for x in row if x is not None]
    w = max(xs, default=0)
    if w > 0 and eps is None:
        best, _, eps = optimum_and_gap(inst, best)
    if w <= 0 or not eps:
        raise ParameterError("certified horizon: no positive weight, or a tied optimum")
    if min(xs) < 0 and _bare_view_gap(inst, best) != eps:
        if min(map(len, inst.adjacency().nbrs)) < 2:
            raise ParameterError("certified horizon: negative weights, a node of one edge")
        w -= min(xs)
    return -(-2 * inst.n * w * eps.denominator // (eps.numerator * inst.scale))


def _bare_view_gap(inst: Instance, best: Optional[Matching]) -> Optional[Fraction]:
    """The gap of ``core.bare_view(inst)`` if that view is nonnegative and
    has two perfect matchings, else None; an optimum ``best`` of ``inst`` on
    bare edges is the view's optimum too, and spares it a solve.  Where the
    bare view keeps the gap, the fillers are taken to change no belief
    (criterion 5 checks this on the embedded cycles).  This is decided
    before any run.  ``convergence_time`` takes the bare view only where
    every node also has a filler edge; a run that keeps to it up to the
    horizon has then checked, for that instance, that no filler message
    exceeded a node's best up to the horizon."""
    bare = bare_view(inst)
    if bare is None or any(x is not None and x < 0
                           for row in bare.scaled_weights() for x in row):
        return None
    try:
        on_bare = best is not None and all(bare.has_edge(i, j) for i, j in best.pairs)
        return optimum_and_gap(bare, best if on_bare else None)[2]
    except ParameterError:
        return None


def second_best_weight(inst: Instance) -> Fraction:
    """Weight of the second-best perfect matching (distinct edge set)."""
    _, best, gap = optimum_and_gap(inst)
    return best - gap


def uniqueness_gap(inst: Instance) -> Fraction:
    """W(best) - W(second best) over perfect matchings; 0 means non-unique."""
    return optimum_and_gap(inst)[2]
