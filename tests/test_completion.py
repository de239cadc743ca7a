"""Properties of the conflict graph and the completion on random dense inputs."""

from fractions import Fraction as F

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from bpmatching.approx import build_conflict_graph, complete
from bpmatching.core import Instance
from bpmatching.engine import BeliefSnapshot, partial_bp_matching, run_to_horizon
from reference import best_matching_weight


@st.composite
def dense_cases(draw):
    """A dense instance with integer, tied or rational weights, and a belief
    snapshot: from an engine run, drawn at random, or drawn at random around
    a planted belief cycle."""
    n = draw(st.integers(1, 6))
    cell = draw(st.sampled_from([
        st.integers(-9, 9).map(F),
        st.integers(0, 2).map(F),
        st.builds(F, st.integers(-20, 20), st.integers(1, 6)),
    ]))
    inst = Instance(draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                  min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["engine", "random", "planted"]))
    if kind == "engine":
        *_, snap = run_to_horizon(inst, draw(st.integers(1, 12)))
        return inst, snap
    belief = st.sampled_from([None, *range(n)])
    left = list(draw(st.tuples(*[belief] * n)))
    right = list(draw(st.tuples(*[belief] * n)))
    if kind == "planted" and n >= 2:
        # alpha_ls[0] -> beta_rs[0] -> alpha_ls[1] -> ... -> alpha_ls[0]
        k = draw(st.integers(2, n))
        ls, rs = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
        for a in range(k):
            left[ls[a]] = rs[a]
            right[rs[a]] = ls[(a + 1) % k]
    return inst, BeliefSnapshot(tuple(left), tuple(right), 1)


@settings(max_examples=300, deadline=None)
@given(dense_cases())
def test_completion_properties(case):
    inst, snap = case
    n = inst.n
    cg = build_conflict_graph(inst, snap)
    partial = partial_bp_matching(snap)

    unc_left, unc_right = set(partial.uncovered_left), set(partial.uncovered_right)
    assert set(cg.edges) == {
        (i, j) for i in unc_left for j in unc_right
        if snap.left_belief[i] == j or snap.right_belief[j] == i
    }
    # Exactly one endpoint believes each conflict edge, so orienting every
    # edge from its believer gives each node out-degree at most 1.
    out = [0] * (2 * n)
    for i, j in cg.edges:
        by_left, by_right = snap.left_belief[i] == j, snap.right_belief[j] == i
        assert by_left != by_right
        out[i if by_left else n + j] += 1
    assert max(out) <= 1

    res = complete(inst, snap)
    assert res.matching.is_perfect(n)
    assert partial.pairs.pairs <= res.matching.pairs

    # Every component commits an optimal matching of its own conflict edges.
    g = nx.Graph()
    g.add_edges_from((i, n + j) for i, j in cg.edges)
    committed = res.matching.pairs - partial.pairs.pairs - set(res.greedy_pairs)
    for comp in nx.connected_components(g):
        assert sum((inst.weight(i, j) for i, j in committed if i in comp), start=F(0)) == \
            best_matching_weight([(i, n + j, inst.weight(i, j)) for i, j in cg.edges if i in comp])

    # Each record's weights, recomputed on Fractions over its component.
    cyclic = [c for c in nx.connected_components(g)
              if g.subgraph(c).number_of_edges() == len(c)]
    assert len(res.branch_records) == len(cyclic)
    for record, comp in zip(res.branch_records, sorted(cyclic, key=min)):
        ring = nx.find_cycle(g.subgraph(comp))
        assert record.cycle_edge == min((min(u, v), max(u, v) - n) for u, v in ring)
        ei, ej = record.cycle_edge
        edges = {(i, j): (i, n + j, inst.weight(i, j)) for i, j in cg.edges if i in comp}
        with_edge = inst.weight(ei, ej) + best_matching_weight(
            [e for (i, j), e in edges.items() if i != ei and j != ej])
        without_edge = best_matching_weight(
            [e for ij, e in edges.items() if ij != record.cycle_edge])
        assert record.weight_with_edge == with_edge
        assert record.weight_without_edge == without_edge
        assert record.chose_edge == (with_edge > without_edge)
