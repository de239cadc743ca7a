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
greedily in ascending index order; without a conflict edge these are all
the uncovered nodes, and no conflict-graph stage runs.

Graph nodes carry the ids of the instance graph view: alpha_i is i and
beta_j is n + j.  The dynamic programming and the ratio's sum run on the
integer numerators of ``Instance.scaled_weights()``; ``Fraction`` appears
only in the ``BranchRecord`` weights and, once, in the approximation ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Instance, Matching, MissingEdgeError, ParameterError
from .engine import BeliefSnapshot, partial_bp_matching


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
    """A perfect matching extending the partial BP matching, whose pairs
    ``mutual_pairs`` lists in ascending order; ``scaled_weight`` is the
    matching's weight over ``Instance.scale``."""

    matching: Matching
    branch_records: tuple[BranchRecord, ...]
    greedy_pairs: tuple[tuple[int, int], ...]
    mutual_pairs: tuple[tuple[int, int], ...]
    scaled_weight: int


def _pointers(snap: BeliefSnapshot, unc_left, unc_right) -> dict[int, int]:
    """Out-pointer of every uncovered graph node that believes an uncovered node."""
    n, left, right = len(snap.left_belief), snap.left_belief, snap.right_belief
    lset, rset = set(unc_left), set(unc_right)
    ptr = {i: n + left[i] for i in unc_left if left[i] in rset}
    ptr.update({n + j: right[j] for j in unc_right if right[j] in lset})
    return ptr


def _edge(u: int, v: int, n: int) -> tuple[int, int]:
    """(left index, right index) of the graph edge between ids u and v."""
    return (u, v - n) if u < n else (v, u - n)


def _edges(ptr: dict[int, int], n: int) -> list[tuple[int, int]]:
    """The conflict edges, one per pointer, sorted."""
    return sorted(_edge(u, v, n) for u, v in ptr.items())


def build_conflict_graph(inst: Instance, snap: BeliefSnapshot) -> ConflictGraph:
    """Conflict graph of a belief snapshot.

    Unresolved uncovered nodes appear isolated; a believed edge whose other
    endpoint is covered by the partial BP matching is dropped.
    """
    partial = partial_bp_matching(snap)
    ptr = _pointers(snap, partial.uncovered_left, partial.uncovered_right)
    return ConflictGraph(
        left_nodes=partial.uncovered_left,
        right_nodes=partial.uncovered_right,
        edges=tuple(_edges(ptr, len(snap.left_belief))),
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


def _solve(ptr, wt: dict) -> tuple[list, list]:
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


def complete(inst: Instance, snap: BeliefSnapshot) -> CompletionResult:
    """Perfect matching extending the snapshot's partial BP matching.

    One scan of the beliefs finds the mutual pairs and the uncovered nodes;
    every later stage runs on the uncovered nodes and the conflict edges
    only.  The conflict graph is solved as the module docstring says;
    branch records come in the order of each cyclic component's smallest
    node.  With no pointer there is no conflict edge: its stages are
    skipped and the one greedy loop pairs the uncovered nodes.  Every edge
    of the result, the mutual pairs included, is checked present, and its
    weight summed once on the scaled integers.
    """
    n, rows, scale = inst.n, inst.scaled_weights(), inst.scale
    left, right = snap.left_belief, snap.right_belief
    mutual, unc_left = [], []
    for i, j in enumerate(left):
        if j is not None and right[j] == i:
            mutual.append((i, j))
        else:
            unc_left.append(i)
    unc_right = [j for j, i in enumerate(right) if i is None or left[i] != j]
    ws = [rows[i][j] for i, j in mutual]
    if None in ws:
        raise MissingEdgeError("mutual edge ({},{}) is absent".format(*mutual[ws.index(None)]))
    ptr = _pointers(snap, unc_left, unc_right)
    wt, matched, records, greedy = {}, [], (), []
    if ptr:  # without a conflict edge the leftovers are the uncovered nodes
        edges = _edges(ptr, n)
        for i, j in edges:
            w = rows[i][j]
            if w is None:
                raise MissingEdgeError(f"edge ({i},{j}) is absent")
            wt[i if ptr.get(i) == n + j else n + j] = w
        matched, cycles = _solve(ptr, wt)
        records = tuple(
            BranchRecord(_edge(a, ptr[a], n), Fraction(w_in, scale), Fraction(w_out, scale),
                         chose)
            for _, a, w_in, w_out, chose in sorted(cycles))
        done = {x for pair in matched for x in pair}
        # Pair leftovers joined by a conflict edge first (the tree stage may
        # skip a negative believed edge); afterwards no conflict edge joins
        # the two remaining leftover sets.
        for i, j in edges:
            if i not in done and n + j not in done:
                greedy.append((i, j))
                done.update((i, n + j))
        unc_left = [i for i in unc_left if i not in done]
        unc_right = [j for j in unc_right if n + j not in done]
    for i, j in zip(unc_left, unc_right):
        if rows[i][j] is None:
            raise MissingEdgeError("greedy completion needs the full K_{n,n}; edge "
                                   f"({i},{j}) is absent")
        greedy.append((i, j))
    solved = [_edge(u, v, n) for u, v in matched]
    weight = sum(ws) + sum(wt[c] for _, c in matched) + sum(rows[i][j] for i, j in greedy)
    return CompletionResult(
        matching=Matching(frozenset((*mutual, *solved, *greedy))),
        branch_records=records,
        greedy_pairs=tuple(greedy),
        mutual_pairs=tuple(mutual),
        scaled_weight=weight,
    )


def approximation_ratio(
    inst: Instance, completion: CompletionResult, mwm_weight: Fraction
) -> Fraction:
    """W(completion) / W(optimum) as one exact ``Fraction``, from the scaled
    weight that ``complete`` summed; ``mwm_weight`` is an int or Fraction."""
    if mwm_weight <= 0:
        raise ParameterError("ratio needs a positive optimal weight; shift first")
    if not completion.matching.is_perfect(inst.n):
        raise ParameterError("completion must be a perfect matching from complete")
    return Fraction(completion.scaled_weight * mwm_weight.denominator,
                    inst.scale * mwm_weight.numerator)
