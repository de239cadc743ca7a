"""Completion of partial BP matchings via the conflict graph.

The conflict graph joins the uncovered nodes by the edges that exactly one
uncovered endpoint believes in: an edge both endpoints believe in is
mutual, hence covered.  Each node thus has at most one out-pointer, its
belief, so every component is a tree, rooted at its one node without a
pointer, or holds a single cycle.  The tree stage runs on the pointers
alone.  A Kahn peel finishes nodes leaves first, each folding its weights
into the node it points to; it solves every tree and leaves exactly the
cycle nodes.  A cycle branches on its smallest edge e = (a, b), a pointing
to b: with e, the chain from b's target to the node pointing to a, plus
w_e and the trees of a and b; without e, the chain from b round to a.  A
chain is the tree that its cut leaves, solved by the same fold, and the
branch with the larger weight wins (without e on a tie).  Ties among
maximum-weight matchings follow one rule: each tree is solved from its
root, and a node matches the smallest-id child among those with the
largest positive gain.  Nodes still unmatched afterwards are paired
greedily in ascending index order.

Graph nodes carry the ids of the instance graph view: alpha_i is i and
beta_j is n + j.  The dynamic programming and the ratio's sum run on the
integer numerators of ``Instance.scaled_weights()``; ``Fraction`` appears
only in the ``BranchRecord`` weights and, once, in the approximation ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Instance, Matching, MissingEdgeError, ParameterError
from .engine import BeliefSnapshot, PartialBpMatching, partial_bp_matching


@dataclass(frozen=True)
class ConflictGraph:
    """Uncovered nodes plus edges believed by exactly one uncovered endpoint."""

    left_nodes: tuple[int, ...]
    right_nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (left index, right index), sorted


@dataclass(frozen=True)
class BranchRecord:
    """Outcome of the two-case branching on one cyclic component."""

    cycle_edge: tuple[int, int]
    weight_with_edge: Fraction  # W(M_a) + w_e
    weight_without_edge: Fraction  # W(M_b)
    chose_edge: bool


@dataclass(frozen=True)
class CompletionResult:
    """A perfect matching extending the partial BP matching."""

    matching: Matching
    branch_records: tuple[BranchRecord, ...]
    greedy_pairs: tuple[tuple[int, int], ...]


def _pointers(snap: BeliefSnapshot, partial: PartialBpMatching) -> list[int]:
    """Out-pointer of every graph node in the conflict graph, -1 for none."""
    n = len(snap.left_belief)
    unc_left, unc_right = set(partial.uncovered_left), set(partial.uncovered_right)
    ptr = [-1] * (2 * n)
    for i in partial.uncovered_left:
        j = snap.left_belief[i]
        if j in unc_right:
            ptr[i] = n + j
    for j in partial.uncovered_right:
        i = snap.right_belief[j]
        if i in unc_left:
            ptr[n + j] = i
    return ptr


def _edge(u: int, v: int, n: int) -> tuple[int, int]:
    """(left index, right index) of the graph edge between ids u and v."""
    return (u, v - n) if u < n else (v, u - n)


def _edges(ptr: list[int]) -> list[tuple[int, int]]:
    """The conflict edges, one per pointer, sorted."""
    n = len(ptr) // 2
    return sorted(_edge(u, v, n) for u, v in enumerate(ptr) if v >= 0)


def build_conflict_graph(inst: Instance, snap: BeliefSnapshot) -> ConflictGraph:
    """Conflict graph of a belief snapshot.

    Unresolved uncovered nodes appear isolated; a believed edge whose other
    endpoint is covered by the partial BP matching is dropped.
    """
    partial = partial_bp_matching(snap)
    return ConflictGraph(
        left_nodes=partial.uncovered_left,
        right_nodes=partial.uncovered_right,
        edges=tuple(_edges(_pointers(snap, partial))),
    )


def _fold(u: int, p: int, wt: dict, free: dict, gain: dict, pick: dict) -> None:
    """Finish node u into p = ptr[u].  free[u] is the best weight of u's
    subtree with u unmatched; gain[u] is what matching u to its pick adds
    (0, pick -1, for none).  Matching u to p gains wt[u] - gain[u]."""
    free[p] += free[u] + gain[u]
    c = wt[u] - gain[u]
    if c > gain[p] or c == gain[p] and u < pick[p]:
        gain[p], pick[p] = c, u


def _chain(path: list[int], wt: dict, free: dict, gain: dict, pick: dict) -> tuple[int, dict]:
    """Fold path[0] into path[1], ..., into path[-1] on copies; the best
    weight of the tree so rooted at path[-1] and the copied picks."""
    free, gain, pick = free.copy(), gain.copy(), pick.copy()
    for u, p in zip(path, path[1:]):
        _fold(u, p, wt, free, gain, pick)
    return free[path[-1]] + gain[path[-1]], pick


def _solve(ptr: list[int], wt: dict) -> tuple[list, list]:
    """Maximum weight matching of the pointer graph with an edge (u, ptr[u])
    of weight wt[u] per key u of ``wt``; no two nodes point at each other.
    Returns the matched pairs (ptr[u], u) and, per cycle, (its component's
    smallest node, a, weight with e, weight without e, whether with won),
    e = (a, ptr[a]) its smallest edge by (smaller end, larger end)."""
    nodes = [*wt, *(ptr[u] for u in wt)]
    free, gain, indeg = dict.fromkeys(nodes, 0), dict.fromkeys(nodes, 0), dict.fromkeys(nodes, 0)
    pick, lo, taken = dict.fromkeys(nodes, -1), dict(zip(nodes, nodes)), set()
    for u in wt:
        indeg[ptr[u]] += 1
    order = [u for u in indeg if not indeg[u]]
    for u in order:  # leaves first: a node joins once its children are done
        if u in wt:
            p = ptr[u]
            _fold(u, p, wt, free, gain, pick)
            lo[p] = min(lo[p], lo[u])
            indeg[p] -= 1
            if not indeg[p]:
                order.append(p)
    matched, cycles, top = [], [], []
    for u in wt:
        if not indeg[u]:  # peeled, or on a cycle already solved
            continue
        ring = [u]
        while ptr[ring[-1]] != u:
            ring.append(ptr[ring[-1]])
        k = ring.index(min(ring, key=lambda x: sorted((x, ptr[x]))))
        ring = ring[k + 1:] + ring[:k + 1]  # b = ptr[a] round to a
        a, b = ring[-1], ring[0]
        w_in, picks = _chain(ring[1:-1], wt, free, gain, pick)
        w_in += free[a] + free[b] + wt[a]
        w_out, out_picks = _chain(ring, wt, free, gain, pick)
        chose = w_in > w_out
        if chose:
            picks[b] = a
            taken.add(a)
        else:
            picks = out_picks
        for x in ring:
            indeg[x], pick[x] = 0, picks[x]
        top += reversed(ring)
        cycles.append((min(lo[x] for x in ring), a, w_in, w_out, chose))
    # Top-down, cycles from a, then the peel reversed; a taken node keeps no pick.
    for u in top + order[::-1]:
        if u not in taken and pick[u] >= 0:
            matched.append((u, pick[u]))
            taken.add(pick[u])
    return matched, cycles


def complete(inst: Instance, snap: BeliefSnapshot,
             partial: Optional[PartialBpMatching] = None) -> CompletionResult:
    """Perfect matching extending ``partial``, the snapshot's partial BP
    matching (``partial_bp_matching(snap)`` unless the caller has it).

    The conflict graph is solved as the module docstring says; branch
    records come in the order of each cyclic component's smallest node.
    Every edge of the result, the mutual pairs included, is checked present.
    """
    n, rows, scale = inst.n, inst.scaled_weights(), inst.scale
    partial = partial or partial_bp_matching(snap)
    ptr = _pointers(snap, partial)
    edges = _edges(ptr)
    pairs: set[tuple[int, int]] = set(partial.pairs.pairs)
    for i, j in pairs:
        if rows[i][j] is None:
            raise MissingEdgeError(f"mutual edge ({i},{j}) is absent")
    wt = {}
    for i, j in edges:
        w = rows[i][j]
        if w is None:
            raise MissingEdgeError(f"edge ({i},{j}) is absent")
        wt[i if ptr[i] == n + j else n + j] = w
    matched, cycles = _solve(ptr, wt)
    pairs.update(_edge(u, v, n) for u, v in matched)
    records = tuple(
        BranchRecord(_edge(a, ptr[a], n), Fraction(w_in, scale), Fraction(w_out, scale), chose)
        for _, a, w_in, w_out, chose in sorted(cycles))
    covered_left = {i for i, _ in pairs}
    covered_right = {j for _, j in pairs}
    greedy = []
    # Pair leftovers joined by a conflict edge first (the tree stage may
    # skip a negative believed edge); afterwards no conflict edge joins
    # the two remaining leftover sets.
    for i, j in edges:
        if i not in covered_left and j not in covered_right:
            greedy.append((i, j))
            covered_left.add(i)
            covered_right.add(j)
    for i, j in zip([i for i in range(n) if i not in covered_left],
                    [j for j in range(n) if j not in covered_right]):
        if rows[i][j] is None:
            raise MissingEdgeError("greedy completion needs the full K_{n,n}; edge "
                                   f"({i},{j}) is absent")
        greedy.append((i, j))
    pairs.update(greedy)
    return CompletionResult(
        matching=Matching(frozenset(pairs)),
        branch_records=records,
        greedy_pairs=tuple(greedy),
    )


def approximation_ratio(
    inst: Instance, completion: CompletionResult, mwm_weight: Fraction
) -> Fraction:
    """W(completion) / W(optimum) as one exact ``Fraction``; ``completion``
    is as ``complete`` returns it, every edge present, so its weight is summed
    on the scaled integers unchecked.  ``mwm_weight`` is an int or Fraction."""
    if mwm_weight <= 0:
        raise ParameterError("ratio needs a positive optimal weight; shift first")
    if not completion.matching.is_perfect(inst.n):
        raise ParameterError("completion must be a perfect matching")
    rows = inst.scaled_weights()
    total = sum(rows[i][j] for i, j in completion.matching.pairs)
    return Fraction(total * mwm_weight.denominator, inst.scale * mwm_weight.numerator)
