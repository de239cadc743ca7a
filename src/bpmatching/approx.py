"""Completion of partial BP matchings via the conflict graph.

The conflict graph joins the uncovered nodes by the edges that exactly one
uncovered endpoint believes in: an edge both endpoints believe in is
mutual, hence covered.  Each node thus has at most one out-pointer, its
belief, and the graph is functional.  Following pointers from a node
either ends at a node without one, and the component is a tree, or enters
the component's single cycle.  Cyclic components are resolved by
branching on their lexicographically smallest cycle edge being in or out
of the matching; both residual forests are solved exactly by tree dynamic
programming.  Nodes still unmatched afterwards are paired greedily in
ascending index order.

Graph nodes carry the ids of the instance graph view: alpha_i is i and
beta_j is n + j.  The dynamic programming and the ratio's sum run on the
integer numerators of ``Instance.scaled_weights()``; ``Fraction`` appears
only in the ``BranchRecord`` weights and, once, in the approximation ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Optional, Sequence

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


def _components(ptr: list[int]) -> tuple[list[int], list[Optional[tuple[int, int]]]]:
    """Component label of every graph node (-1 off every edge) and, per
    label, the smallest edge of the component's cycle (None for a tree).

    Each walk follows pointers until it meets a labelled node, runs out of
    pointers (a tree's root) or meets its own path (the cycle); O(nodes).
    """
    n, on_path = len(ptr) // 2, -2
    label = [-1] * len(ptr)
    cycle_edge: list[Optional[tuple[int, int]]] = []
    for start, nxt in enumerate(ptr):
        if nxt < 0 or label[start] != -1:
            continue
        path, u = [], start
        while u >= 0 and label[u] == -1:
            label[u] = on_path
            path.append(u)
            u = ptr[u]
        if u >= 0 and label[u] != on_path:
            comp = label[u]
        else:
            comp = len(cycle_edge)
            ring = path[path.index(u):] if u >= 0 else []
            cycle_edge.append(min((_edge(v, ptr[v], n) for v in ring), default=None))
        for v in path:
            label[v] = comp
    return label, cycle_edge


def forest_mwm(
    edges: Sequence[tuple[Hashable, Hashable, object]],
) -> tuple[object, list[tuple[Hashable, Hashable]]]:
    """Maximum weight matching of a weighted forest (nodes optional).

    The weights may be any exactly ordered numbers (ints, ``Fraction``s);
    the total is their sum, 0 for no edge.  Negative edges are only taken
    when they improve the total, which on a forest with optional coverage
    means never.  Raises on self-loops and on cyclic input, parallel edges
    included.
    """
    adj: dict[Hashable, list[tuple[Hashable, object]]] = {}
    for u, v, w in edges:
        if u == v:
            raise ParameterError("self-loop in forest input")
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))

    total = 0
    chosen: list[tuple[Hashable, Hashable]] = []
    visited: set[Hashable] = set()
    for root in adj:
        if root in visited:
            continue
        # Iterative pre-order over the tree containing root; a node reached
        # twice closes a cycle.
        order: list[tuple[Hashable, Optional[Hashable]]] = []
        stack: list[tuple[Hashable, Optional[Hashable]]] = [(root, None)]
        while stack:
            u, p = stack.pop()
            if u in visited:
                raise ParameterError("cycle detected in forest input")
            visited.add(u)
            order.append((u, p))
            for v, _ in adj[u]:
                if v != p:
                    stack.append((v, u))
        # free[u]: best weight of u's subtree with u unmatched.
        # best[u]: best weight of u's subtree (u free or matched to a child).
        free: dict[Hashable, object] = {}
        best: dict[Hashable, object] = {}
        pick: dict[Hashable, Optional[Hashable]] = {}
        for u, p in reversed(order):
            kids = [(v, w) for v, w in adj[u] if v != p]
            f = sum(best[v] for v, _ in kids)
            free[u] = best[u] = f
            pick[u] = None
            for v, w in kids:
                cand = f - best[v] + free[v] + w
                if cand > best[u]:
                    best[u] = cand
                    pick[u] = v
        total += best[root]
        # Top-down reconstruction: a node matched to its parent is free.
        forced_free: set[Hashable] = set()
        for u, _ in order:
            v = None if u in forced_free else pick[u]
            if v is not None:
                chosen.append((u, v))
                forced_free.add(v)
    return total, chosen


def complete(inst: Instance, snap: BeliefSnapshot,
             partial: Optional[PartialBpMatching] = None) -> CompletionResult:
    """Perfect matching extending ``partial``, the snapshot's partial BP
    matching (``partial_bp_matching(snap)`` unless the caller has it).

    Cyclic conflict components are branched on their lexicographically
    smallest cycle edge; the branch with the larger committed weight wins.
    Leftover nodes are paired greedily in ascending index order.  Every
    edge of the result, the mutual pairs included, is checked present.
    """
    n, rows, scale = inst.n, inst.scaled_weights(), inst.scale
    partial = partial or partial_bp_matching(snap)
    ptr = _pointers(snap, partial)
    edges = _edges(ptr)
    label, cycle_edge = _components(ptr)
    pairs: set[tuple[int, int]] = set(partial.pairs.pairs)
    for i, j in pairs:
        if rows[i][j] is None:
            raise MissingEdgeError(f"mutual edge ({i},{j}) is absent")
    records: list[BranchRecord] = []

    # Sorted edges bucketed by component: components come in the order of
    # their smallest left node, each with its edges sorted.
    comps: dict[int, list[tuple[int, int, int]]] = {}
    for i, j in edges:
        w = rows[i][j]
        if w is None:
            raise MissingEdgeError(f"edge ({i},{j}) is absent")
        comps.setdefault(label[i], []).append((i, n + j, w))
    for comp, weighted in comps.items():
        e = cycle_edge[comp]
        if e is None:
            _, committed = forest_mwm(weighted)
        else:
            ei, ej = e
            w_e = rows[ei][ej]
            weight_a, matched_a = forest_mwm(
                [x for x in weighted if x[0] != ei and x[1] != n + ej])
            weight_b, matched_b = forest_mwm(
                [x for x in weighted if x[:2] != (ei, n + ej)])
            chose_edge = weight_a + w_e > weight_b
            committed = matched_a if chose_edge else matched_b
            records.append(
                BranchRecord(
                    cycle_edge=e,
                    weight_with_edge=Fraction(weight_a + w_e, scale),
                    weight_without_edge=Fraction(weight_b, scale),
                    chose_edge=chose_edge,
                )
            )
            if chose_edge:
                pairs.add(e)
        pairs.update(_edge(u, v, n) for u, v in committed)

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
        branch_records=tuple(records),
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
