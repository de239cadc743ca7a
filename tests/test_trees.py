"""Tests for computation-tree unrolling and the tree-matching oracle."""

import copy
import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpmatching import generators, trees
from bpmatching.core import Instance, OracleCapExceeded, ParameterError
from bpmatching.engine import convergence_time, run_to_horizon
from bpmatching.oracles import certified_horizon
from bpmatching.trees import (
    TIE,
    max_t_matching,
    nibbling_delta,
    oracle_belief,
    unroll,
)
from reference import (class_weight_split, heavy_tail_tree, node_neighbors, optimal_matching,
                       random_rows, tree_edges)


def test_unroll_shapes_on_dense_graph():
    inst = Instance([[F(1), F(2)], [F(3), F(4)]])
    tree = unroll(inst, 0, 2)
    # Root has n children, every deeper node n-1 = 1 child.
    assert tree.node_count() == 1 + 2 + 2
    assert tree.labels[0] == 0
    assert tree.parent[0] == -1
    assert tree.depth == 2


def test_unroll_is_path_on_cycle():
    inst = generators.gen_cycle(generators.CycleParams(3, F(8), F(1, 2)))
    tree = unroll(inst, 0, 7)
    # Two arms of length 7 each: 15 nodes in total.
    assert tree.node_count() == 15
    children = [0] * tree.node_count()
    for k in range(1, tree.node_count()):
        children[tree.parent[k]] += 1
    assert children[0] == 2
    assert all(c <= 1 for c in children[1:])


def test_unroll_cap(monkeypatch):
    inst = Instance([[F(1)] * 4 for _ in range(4)])
    monkeypatch.setattr(trees, "DEFAULT_NODE_CAP", 50)
    with pytest.raises(OracleCapExceeded):
        unroll(inst, 0, 10)


def test_unroll_validation():
    inst = Instance([[F(1)]])
    with pytest.raises(ParameterError):
        unroll(inst, 5, 1)
    with pytest.raises(ParameterError):
        unroll(inst, 0, -1)


def test_max_t_matching_hand_example():
    # Star K_{1,3}: the root picks its heaviest edge.
    inst = Instance([
        [F(5), F(2), F(9)],
        [F(0), F(0), F(0)],
        [F(0), F(0), F(0)],
    ])
    tree = unroll(inst, 0, 1)
    weight, edge = max_t_matching(tree)
    assert weight == F(9)
    assert edge == (0, 3 + 2)


def test_max_t_matching_reports_tie():
    inst = Instance([[F(7), F(7)], [F(0), F(0)]])
    tree = unroll(inst, 0, 1)
    _, edge = max_t_matching(tree)
    assert edge is TIE
    assert oracle_belief(inst, 0, 1) is TIE


def test_oracle_agrees_with_engine_on_random_instances():
    rng = random.Random(42)
    for _ in range(15):
        n = rng.randint(2, 3)
        inst = Instance(random_rows(rng, n, "dense"))
        snaps = list(run_to_horizon(inst, 5))
        for snap in snaps:
            t = snap.iteration
            for i in range(n):
                expect = oracle_belief(inst, i, t)
                assert snap.left_belief[i] == (None if expect is TIE else expect)
            for j in range(n):
                expect = oracle_belief(inst, n + j, t)
                assert snap.right_belief[j] == (None if expect is TIE else expect)


def test_nibbling_delta_values():
    # n=3, w_max=8: the 2-edge tail advantage is the half heavy weight.
    assert nibbling_delta(3, F(8), F(1, 2), 1) == F(4)
    assert nibbling_delta(3, F(8), F(1, 2), 2) == F(7, 4)
    with pytest.raises(ParameterError):
        nibbling_delta(3, F(8), F(1, 2), 3)
    with pytest.raises(ParameterError):
        nibbling_delta(3, F(8), F(3), 1)


def test_nibbling_delta_strictly_decreasing_and_bounded():
    n, w_max, eps = 7, F(8), F(1, 10)
    values = [nibbling_delta(n, w_max, eps, l) for l in range(1, n)]
    assert values[0] == w_max / 2
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > w_max / (4 * (n - 1))


def test_heavy_tail_tree_weight_identity():
    # The class-weight difference on a heavy-tail path equals the closed
    # form -k*eps + delta(l), cross-checking tree against formula.
    w_max = F(8)
    for n in (3, 4, 5):
        eps = F(1, n)
        inst = generators.gen_cycle(generators.CycleParams(n, w_max, eps))
        for k in (0, 1, 3):
            for l in range(1, n):
                tree, root = heavy_tail_tree(inst, k, l)
                assert tree.depth == k * n + l
                split = class_weight_split(inst, tree)
                w_sub = split.get("sub", F(0))
                w_opt = split.get("opt", F(0))
                assert w_sub - w_opt == -k * eps + nibbling_delta(n, w_max, eps, l)


def test_class_weight_split_counts_light_edges():
    inst = generators.gen_cycle(
        generators.CycleParams(3, F(8), F(1, 2)), embed=True
    )
    tree = unroll(inst, 0, 1)
    split = class_weight_split(inst, tree)
    # Root alpha_1 has one optimal edge, the heavy edge, and one light edge.
    assert split["opt"] == F(4)
    assert split["sub"] == F(8)
    assert split["light"] == F(-16)


# -- references: the unrolling and the A/B DP on Fraction weights --


def graph_weight(inst, a, b):
    """Exact weight of the graph edge between node ids a and b."""
    i, j = (a, b - inst.n) if a < inst.n else (b, a - inst.n)
    return inst.weight(i, j)


def reference_unroll(inst, v, t):
    """(labels, parent) of the depth-t tree in BFS order, from node_neighbors."""
    labels, parent, frontier = [v], [-1], [0]
    for _ in range(t):
        nxt = []
        for k in frontier:
            p_label = labels[parent[k]] if parent[k] >= 0 else -1
            for nb, _ in node_neighbors(inst, labels[k]):
                if nb != p_label:
                    labels.append(nb)
                    parent.append(k)
                    nxt.append(len(labels) - 1)
        frontier = nxt
    return labels, parent


def reference_max_t_matching(inst, tree):
    """Per node u, A(u) (u matched upward) and B(u) (u matched to a child)
    on Fraction weights; leaves have A = B = 0.  Returns the optimal weight
    and the root edge, or TIE when several optima disagree on it."""
    m = tree.node_count()
    children = [[] for _ in range(m)]
    for k in range(1, m):
        children[tree.parent[k]].append(k)
    w = [None] + [graph_weight(inst, tree.labels[k], tree.labels[tree.parent[k]])
                  for k in range(1, m)]
    A = [F(0)] * m
    B = [F(0)] * m
    for k in range(m - 1, 0, -1):
        ch = children[k]
        if not ch:
            continue
        sum_b = sum((B[c] for c in ch), start=F(0))
        A[k] = sum_b
        B[k] = sum_b + max(w[c] + A[c] - B[c] for c in ch)
    root_children = children[0]
    scores = [w[c] + A[c] - B[c] for c in root_children]
    best = max(scores)
    total = sum((B[c] for c in root_children), start=F(0)) + best
    winners = [c for c, s in zip(root_children, scores) if s == best]
    if len(winners) > 1:
        return total, TIE
    return total, (tree.root, tree.labels[winners[0]])


def assert_reference_belief(inst, v, t, tree):
    """``oracle_belief(inst, v, t)`` is the partner (mod n) in the reference
    root edge on ``tree``, the depth-t tree of v, or TIE; with no root edge
    (t = 0 or an edgeless root) it raises ``ParameterError``."""
    if t < 1 or tree.node_count() == 1:
        with pytest.raises(ParameterError):
            oracle_belief(inst, v, t)
        return
    _, ref_edge = reference_max_t_matching(inst, tree)
    belief = oracle_belief(inst, v, t)
    assert belief is TIE if ref_edge is TIE else belief == ref_edge[1] % inst.n


def test_integer_dp_matches_fraction_reference():
    rng = random.Random(5)
    compared = ties = 0
    for kind in ("dense", "sparse", "tied", "rational"):
        for _ in range(30):
            n = rng.randint(1, 4)
            inst = Instance(random_rows(rng, n, kind))
            for v in range(2 * n):
                for t in range(1, 6):
                    tree = unroll(inst, v, t)
                    assert (tree.labels, tree.parent) == reference_unroll(inst, v, t)
                    for a, b, w in tree_edges(tree):
                        assert type(w) is F and w == graph_weight(inst, a, b)
                    assert_reference_belief(inst, v, t, tree)
                    if tree.node_count() == 1:
                        with pytest.raises(ParameterError):
                            max_t_matching(tree)
                        continue
                    weight, edge = max_t_matching(tree)
                    ref_weight, ref_edge = reference_max_t_matching(inst, tree)
                    assert type(weight) is F and weight == ref_weight
                    assert edge is TIE if ref_edge is TIE else edge == ref_edge
                    compared += 1
                    ties += ref_edge is TIE
    assert compared > 2000 and ties > 100


@st.composite
def sparse_tables(draw):
    n = draw(st.integers(1, 4))
    cell = st.one_of(
        st.none(),
        st.integers(0, 3).map(F),
        st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
    )
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    if all(w is None for row in rows for w in row):
        rows[0][0] = F(1)
    return rows


@settings(max_examples=250, deadline=None)
@given(sparse_tables())
# alpha_1 and beta_1 have degree 0, alpha_3 and beta_3 degree 1.
@example([[None, None, None], [None, F(2), F(2)], [None, F(2), None]])
# An all-tied K_{2,2}: every belief is Unresolved at every t.
@example([[F(1), F(1)], [F(1), F(1)]])
def test_engine_matches_tree_oracle_on_sparse_and_tied(rows):
    inst = Instance(rows)
    n = inst.n
    for snap in run_to_horizon(inst, 5):
        engine_row = snap.left_belief + snap.right_belief
        for v in range(2 * n):
            if not node_neighbors(inst, v):
                assert engine_row[v] is None
                continue
            expect = oracle_belief(inst, v, snap.iteration)
            assert engine_row[v] == (None if expect is TIE else expect)


# -- the memo of grown trees --


def assert_is_reference_tree(inst, v, t, tree):
    assert (tree.root, tree.depth, tree.scale) == (v, t, inst.scale)
    assert (tree.labels, tree.parent) == reference_unroll(inst, v, t)
    assert tree.weight_up[0] is None
    for a, b, w in tree_edges(tree):
        assert w == graph_weight(inst, a, b)


def test_memo_is_invisible():
    rng = random.Random(17)
    insts = [Instance(random_rows(rng, rng.randint(1, 4), kind))
             for kind in ("dense", "sparse", "tied", "rational") for _ in range(3)]
    inst, t = insts[0], 3
    for _ in range(600):
        if rng.random() < 0.2:
            inst = rng.choice(insts)
        v = rng.randrange(2 * inst.n)
        t = max(0, min(7, t + rng.choice((-3, -1, 0, 1, 2))))
        tree = unroll(inst, v, t)
        assert_is_reference_tree(inst, v, t, tree)
        assert_reference_belief(inst, v, t, tree)
        # The caller owns the returned lists: scribbling on them, or on
        # their first entries, never reaches a later tree.
        tree.labels[0] = tree.parent[0] = -5
        tree.labels.append(99)
        tree.parent.append(99)
        tree.weight_up.append(10**9)
        assert_is_reference_tree(inst, v, t, unroll(inst, v, t))
        assert_reference_belief(inst, v, t, unroll(inst, v, t))


def test_memo_follows_a_new_instance_of_the_same_size():
    old = Instance([[F(1), F(2)], [F(3), F(4)]])
    for v in range(4):
        unroll(old, v, 5)
    del old
    # The trees, their child lists and their node count go with their instance.
    assert not trees._grown and not trees._kids and trees._grown_nodes == 0
    new = Instance.scaled([[15, None], [-21, 8]], 3)
    for v in range(4):
        for t in (5, 2, 6):
            assert_is_reference_tree(new, v, t, unroll(new, v, t))


def test_unroll_cap_on_grown_trees(monkeypatch):
    inst = Instance([[F(1)] * 4 for _ in range(4)])
    unroll(inst, 0, 10)  # 118,097 nodes under the default cap
    monkeypatch.setattr(trees, "DEFAULT_NODE_CAP", 50)
    with pytest.raises(OracleCapExceeded):
        unroll(inst, 0, 10)
    with pytest.raises(OracleCapExceeded):
        unroll(inst, 0, 3)  # 53 nodes
    assert_is_reference_tree(inst, 0, 2, unroll(inst, 0, 2))  # 17 nodes

    fresh = Instance([[F(1)] * 4 for _ in range(4)])
    with pytest.raises(OracleCapExceeded):
        unroll(fresh, 0, 10)  # stops inside level 3
    monkeypatch.undo()
    assert_is_reference_tree(fresh, 0, 10, unroll(fresh, 0, 10))


def test_unroll_over_the_cap_leaves_the_memo_as_it_found_it(monkeypatch):
    # Roots 1, 2 and 0 hold 5 + 17 + 17 = 39 nodes; root 0's depth-3 tree
    # has 53.  Its level 3 does not fit, so no root is dropped for it.
    inst = Instance([[F(1)] * 4 for _ in range(4)])
    monkeypatch.setattr(trees, "DEFAULT_NODE_CAP", 50)
    for v, t in (1, 1), (2, 2), (0, 2):
        unroll(inst, v, t)
    for t in 3, 10:
        before = copy.deepcopy(trees._grown)
        with pytest.raises(OracleCapExceeded):
            unroll(inst, 0, t)
        assert trees._grown == before
    # Root 3 stores its levels 1 and 2, dropping the others to make room for
    # them, before its level 3 fails.
    with pytest.raises(OracleCapExceeded):
        unroll(inst, 3, 3)
    assert list(trees._grown) == [3] and trees._grown[3][3] == [0, 1, 5, 17]
    assert_is_reference_tree(inst, 3, 2, unroll(inst, 3, 2))


def test_oracle_belief_over_the_cap_leaves_the_memo_as_it_found_it(monkeypatch):
    # As for unroll: root 1's stored depth-4 tree (161 nodes) is over the
    # lowered cap at depths 4 and 3; on a fresh instance whose roots 1, 2 and
    # 0 hold 5 + 17 + 17 = 39 nodes, root 0's level 3 (53 nodes) does not fit.
    inst = Instance([[F(1)] * 4 for _ in range(4)])
    assert oracle_belief(inst, 1, 4) is TIE
    monkeypatch.setattr(trees, "DEFAULT_NODE_CAP", 50)
    for t in 4, 3:
        before = copy.deepcopy(trees._grown)
        with pytest.raises(OracleCapExceeded):
            oracle_belief(inst, 1, t)
        assert trees._grown == before
    inst = Instance([[F(1)] * 4 for _ in range(4)])
    for v, t in (1, 1), (2, 2), (0, 2):
        assert oracle_belief(inst, v, t) is TIE
    for t in 3, 10:
        before = copy.deepcopy(trees._grown)
        with pytest.raises(OracleCapExceeded):
            oracle_belief(inst, 0, t)
        assert trees._grown == before


def test_memo_holds_at_most_the_cap(monkeypatch):
    rng = random.Random(3)
    inst = Instance([[F(rng.randint(1, 5)) for _ in range(3)] for _ in range(3)])
    cap = 300
    monkeypatch.setattr(trees, "DEFAULT_NODE_CAP", cap)
    raised = 0
    for _ in range(200):
        v, t = rng.randrange(6), rng.randint(0, 9)
        try:
            tree = unroll(inst, v, t)
        except OracleCapExceeded:
            raised += 1
            assert len(reference_unroll(inst, v, t)[0]) > cap
        else:
            assert_is_reference_tree(inst, v, t, tree)
        assert trees._grown_nodes == sum(len(g[0]) for g in trees._grown.values()) <= cap
        # Only whole levels are kept.
        assert all(len(g[0]) == g[3][-1] for g in trees._grown.values())
    assert raised > 10


def test_unroll_expands_each_node_once_per_instance(monkeypatch):
    # Walking t = 1..80 over the 14 roots of the bare 7-cycle builds each
    # root's depth-80 tree (161 nodes) once, and the children of a node come
    # from one list per (label, parent label): each row is read once as a
    # root and once under each of its 2 neighbours.  Unrolling every depth
    # from scratch built 14 * 6560 = 91,840 nodes and read 14 * 6400 rows.
    inst = generators.gen_cycle(generators.CycleParams(7, F(8), F(1, 10)))
    reads = []
    adjacency = Instance.adjacency

    class CountedRows:
        def __init__(self, rows):
            self.rows = rows

        def __getitem__(self, u):
            reads.append(u)
            return self.rows[u]

    def counted(self):
        adj = adjacency(self)
        return dataclasses.replace(adj, nbrs=CountedRows(adj.nbrs))

    monkeypatch.setattr(Instance, "adjacency", counted)
    returned = 0
    for t in range(1, 81):
        for v in range(14):
            tree = unroll(inst, v, t)
            assert tree.node_count() == 2 * t + 1
            returned += tree.node_count()
    assert returned == 91_840
    assert sorted(reads) == sorted(list(range(14)) * 3)


def test_tree_oracle_pins_a_deep_convergence_time():
    # The bare heavy cycle (n, w_max, eps) = (5, 8, 1/1000): T = 20002 of a
    # certified horizon of 80,000, reached by jumps.  Its computation trees
    # are paths, so the tree oracle reads every belief at depth T directly:
    # two nodes are still off the reference at T - 1, none at T, T + 5 or
    # T + 10.
    inst = generators.gen_cycle(generators.CycleParams(5, F(8), F(1, 1000)))
    ref = optimal_matching(inst)
    horizon = certified_horizon(inst)
    assert horizon == 80000
    t_conv = convergence_time(inst, ref, horizon)
    assert t_conv == 20002
    partner = ref.partner_of_left() | {inst.n + j: i for j, i in ref.partner_of_right().items()}

    def on_reference(t):
        return sum(oracle_belief(inst, v, t) == partner[v] for v in range(2 * inst.n))

    assert [on_reference(t_conv + d) for d in (-1, 0, 5, 10)] == [8, 10, 10, 10]
