"""Computation-tree unrolling and exact maximum weight T-matchings.

A computation tree of depth t rooted at a graph node v repeats the graph:
the children of a tree node are all graph neighbors of its label except the
label of its tree parent.  A T-matching is a partial matching of the tree
covering every inner (non-leaf) node.  The root edge of a maximum weight
T-matching is the independent ground truth for the BP belief at iteration t.

Graph nodes are addressed by ids 0..2n-1: left node alpha_{i+1} has id i,
right node beta_{j+1} has id n+j.  Unrolling walks the neighbour list of
each graph node in ``Instance.adjacency()``, the lists whose messages the
engine steps, and the tree and its DP hold scaled integer weights over
``inst.scale``; ``Fraction`` appears only in the T-matching weight that
``max_t_matching`` returns and in ``nibbling_delta``.

For cycle-restricted instances every tree is a path (each non-root node has
exactly one child), so unrolling stays linear in t.  Each root's tree is
memoised and grown by BFS levels (its depth-t tree is the BFS prefix of any
deeper one) from child lists cached per (label, parent label); the memo holds
the last instance's trees (weakly), at most ``DEFAULT_NODE_CAP`` nodes in
all, and drops a root only to store a level that fits.  ``oracle_belief``
runs the one DP core on the memo's arrays in place, with no ``Fraction``.
The DP shares nothing across depths or roots.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Callable, Optional, Union

from .core import Instance, OracleCapExceeded, ParameterError

DEFAULT_NODE_CAP = 10**6

_Tree = tuple[list[int], list[int], list[Optional[int]], list[int]]
#: root -> (labels, parent, weight_up, ends), ends[d + 1] = nodes of depth <= d.
_grown: dict[int, _Tree] = {}
#: (label, parent label or -1) -> (child labels, their weights up).
_kids: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
_grown_nodes = 0  # sum of len(labels) over _grown
_grown_for: Callable[[], Optional[Instance]] = lambda: None


def _forget(_=None) -> None:
    global _grown_nodes
    _grown.clear()
    _kids.clear()
    _grown_nodes = 0


class _Tie:
    def __repr__(self) -> str:  # pragma: no cover
        return "TIE"


#: Returned where several maximum weight T-matchings disagree at the root.
TIE = _Tie()


@dataclass
class ComputationTree:
    """Flat array form of a computation tree (node 0 is the root).

    ``labels[k]`` is the original-graph node id of tree node k, ``parent[k]``
    its tree parent (-1 for the root) and ``weight_up[k]`` the weight of the
    edge to its parent as an integer numerator over ``scale``.  Nodes are
    stored in BFS order, so the children of a node are contiguous.
    """

    root: int
    depth: int
    labels: list[int]
    parent: list[int]
    weight_up: list[Optional[int]]
    scale: int

    def node_count(self) -> int:
        return len(self.labels)


def _grow(inst: Instance, v: int, t: int) -> tuple[_Tree, int]:
    """The memo's tree of ``v`` grown to depth >= t, and its depth-t end.  A
    level is stored once it fits under the cap, dropping other roots if the
    memo then holds more; a depth-t tree over the cap raises."""
    global _grown_for, _grown_nodes
    if not (0 <= v < 2 * inst.n):
        raise ParameterError(f"node id {v} out of range")
    if t < 0:
        raise ParameterError("depth must be >= 0")
    adj, cap = inst.adjacency(), DEFAULT_NODE_CAP
    if _grown_for() is not inst:
        _forget()
        _grown_for = weakref.ref(inst, _forget)
    labels, parent, weight_up, ends = tree = _grown.get(v) or ([v], [-1], [None], [0, 1])
    while len(ends) < t + 2:  # each level is stored only once it fits
        lab, par, wu, room = [], [], [], cap - len(labels)
        for k in range(ends[-2], ends[-1]):
            key = labels[k], labels[parent[k]] if k else -1
            if (kids := _kids.get(key)) is None:
                nbrs, p = adj.nbrs[key[0]], key[1]
                kids = _kids[key] = ([x for x in nbrs if x != p],
                                     [w for x, w in zip(nbrs, adj.w[key[0]]) if x != p])
            lab += kids[0]
            wu += kids[1]
            par += [k] * len(kids[0])
            if len(lab) > room:
                raise OracleCapExceeded(f"computation tree exceeds cap of {cap} nodes")
        _grown_nodes += len(lab) if v in _grown else len(labels) + len(lab)
        labels += lab
        parent += par
        weight_up += wu
        ends.append(len(labels))
        _grown[v] = tree
        if _grown_nodes > cap:
            _grown.clear()
            _grown[v], _grown_nodes = tree, len(labels)
    if ends[t + 1] > cap:
        raise OracleCapExceeded(f"computation tree exceeds cap of {cap} nodes")
    return tree, ends[t + 1]


def unroll(inst: Instance, v: int, t: int) -> ComputationTree:
    """Depth-t computation tree of graph node ``v``: a copy of the memo's."""
    (labels, parent, weight_up, _), e = _grow(inst, v, t)
    return ComputationTree(root=v, depth=t, labels=labels[:e], parent=parent[:e],
                           weight_up=weight_up[:e], scale=inst.scale)


def _best(parent: list[int], w: list[Optional[int]], m: int) -> tuple[list[int], list[int]]:
    """The T-matching DP on the first m nodes, and the root's child scores.

    Per node u the DP tracks A(u), the best subtree weight when u is matched
    upward (edge weight counted at the parent), and B(u), the best weight
    when u is matched to one of its children.  Leaves may stay unmatched
    (A = B = 0); inner nodes are covered structurally, so A(u) is the sum
    of B over u's children and B(u) = A(u) + ``best``(u), the best child
    score w(c) + A(c) - B(c) = w(c) - best(c).  With best = 0 at a node
    without children, the optimum's weight B(root) telescopes to the sum of
    ``best`` over the tree, so one reverse BFS pass keeps ``best`` alone.
    """
    if m == 1:
        raise ParameterError("root has no incident edge")
    best, q = [0] * m, -1
    for k in range(m - 1, 0, -1):
        p, s = parent[k], w[k] - best[k]
        if p != q:  # children are contiguous: p's last child is met first
            best[p], q = s, p
        elif s > best[p]:
            best[p] = s
    r = bisect_right(parent, 0, 1, m)
    return best, list(map(sub, w[1:r], best[1:r]))


def max_t_matching(tree: ComputationTree) -> tuple[Fraction, Union[tuple[int, int], _Tie]]:
    """Optimal T-matching weight and the root-incident edge of the optimum,
    or TIE when several optima disagree on the root edge."""
    if tree.depth < 1:
        raise ParameterError("T-matchings need depth >= 1")
    best, scores = _best(tree.parent, tree.weight_up, tree.node_count())
    total = Fraction(sum(best), tree.scale)
    if scores.count(best[0]) > 1:
        return total, TIE
    return total, (tree.root, tree.labels[1 + scores.index(best[0])])


def oracle_belief(inst: Instance, v: int, t: int) -> Union[int, _Tie]:
    """Partner index (0..n-1) that node ``v`` believes at iteration ``t``, or
    TIE: the root edge of ``max_t_matching(unroll(inst, v, t))``, in place."""
    (labels, parent, weight_up, _), m = _grow(inst, v, t)
    if t < 1:
        raise ParameterError("T-matchings need depth >= 1")
    best, scores = _best(parent, weight_up, m)
    if scores.count(best[0]) > 1:
        return TIE
    return labels[1 + scores.index(best[0])] % inst.n


def nibbling_delta(n: int, w_max: Fraction, eps: Fraction, l: int) -> Fraction:
    """Suboptimal advantage of a heavy tail of half-length l.

    Delta(l) = w_max*(n-l)/(2(n-1)) - eps*(l-1)/(n-1), strictly decreasing
    from Delta(1) = w_max/2 down to a value above w_max/(4(n-1)).
    """
    w_max = Fraction(w_max)
    eps = Fraction(eps)
    if n < 3:
        raise ParameterError("n must be >= 3")
    if not (1 <= l <= n - 1):
        raise ParameterError("l must satisfy 1 <= l <= n-1")
    if not (0 < eps < w_max / (4 * (n - 2))):
        raise ParameterError("eps must satisfy 0 < eps < w_max/(4(n-2))")
    return w_max * Fraction(n - l, 2 * (n - 1)) - eps * Fraction(l - 1, n - 1)

