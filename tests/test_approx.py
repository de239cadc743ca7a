"""Tests for conflict graphs and completion of partial BP matchings."""

import random
from fractions import Fraction as F
from itertools import takewhile

import pytest

from bpmatching import generators
from bpmatching.approx import _solve, approximation_ratio, build_conflict_graph, complete
from bpmatching.core import Instance, MissingEdgeError, ParameterError, matching_weight
from bpmatching.engine import (BeliefSnapshot, convergence_time, partial_bp_matching,
                               run_to_horizon)
from bpmatching.oracles import certified_horizon, mwm_hungarian
from reference import (
    best_matching_weight,
    forest_pointers,
    is_pseudoforest,
    random_forest,
    random_rows,
)


def random_snapshot(rng, n):
    def side():
        return tuple(
            rng.choice([None] + list(range(n))) for _ in range(n)
        )

    return BeliefSnapshot(left_belief=side(), right_belief=side(), iteration=1)


def test_solve_hand_cases():
    # One edge; pairs come as (ptr[u], u).
    assert _solve([-1, 0], {1: F(5)}) == ([(0, 1)], [])
    # Alternating path: take both end edges, skip the middle one.
    assert _solve([-1, 0, 1, 2], {1: F(5), 2: F(-1), 3: F(5)}) == ([(0, 1), (2, 3)], [])
    # Negative edges are never forced.
    assert _solve([-1, 0], {1: F(-3)}) == ([], [])
    assert _solve([], {}) == ([], [])
    # The ring 0 -> 1 -> 2 -> 3 -> 0 branches on (0, 1): with it, 5 plus the
    # chain 2 -> 3; without it, the chain 1 -> 2 -> 3 -> 0, best 5.
    assert _solve([1, 2, 3, 0], {0: F(5), 1: F(1), 2: F(5), 3: F(1)}) == (
        [(3, 2), (1, 0)], [(0, 0, F(10), F(5), True)])


def test_solve_matches_bruteforce_on_random_forests():
    rng = random.Random(20240818)
    for _ in range(500):
        kept = random_forest(rng)
        ptr, wt = forest_pointers(kept)
        chosen, cycles = _solve(ptr, wt)
        assert cycles == []
        # The pairs are forest edges, disjoint, of the brute-force weight.
        assert all(ptr[u] == v for v, u in chosen)
        ends = [x for e in chosen for x in e]
        assert len(ends) == len(set(ends))
        assert sum((wt[u] for _, u in chosen), start=F(0)) == best_matching_weight(kept)


def test_complete_breaks_a_tie_toward_the_smallest_child():
    # At t=1, a2-b4 is mutual and a1, a3 and a4 each believe the unresolved
    # b3 with weight 3: a star whose gains tie.  b3 matches its smallest
    # child a1, which leaves a3-b1 and a4-b2 to the greedy stage, an optimum.
    inst = Instance([[F(w) for w in row]
                     for row in [[1, 2, 3, 2], [2, 2, 0, 3], [2, 0, 3, 1], [0, 2, 3, 2]]])
    snap = next(run_to_horizon(inst, 1))
    assert build_conflict_graph(inst, snap).edges == ((0, 2), (2, 2), (3, 2))
    res = complete(inst, snap)
    assert sorted(res.matching.pairs) == [(0, 2), (1, 3), (2, 0), (3, 1)]
    assert res.greedy_pairs == ((2, 0), (3, 1))
    assert res.branch_records == ()
    _, opt = mwm_hungarian(inst)
    assert approximation_ratio(inst, res, opt) == 1


def test_conflict_graph_single_sided_beliefs():
    rng = random.Random(3)
    inst = Instance(random_rows(rng, 6, "dense"))
    snap = BeliefSnapshot(
        left_belief=(1, 1, 2, 3, 4, 3),
        right_belief=(1, 2, 3, 2, 4, 4),
        iteration=3,
    )
    cg = build_conflict_graph(inst, snap)
    assert cg.left_nodes == (0, 1, 2, 3, 5)
    assert cg.right_nodes == (0, 1, 2, 3, 5)
    assert cg.edges == (
        (0, 1), (1, 0), (1, 1), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 3)
    )


def test_conflict_graph_drops_covered_endpoints():
    # Left 0 and right 0 believe in each other (covered); left 1 believes
    # right 0, which is covered, so no conflict edge survives.
    inst = Instance([[F(1), F(1)], [F(1), F(1)]])
    snap = BeliefSnapshot((0, 0), (0, None), 1)
    cg = build_conflict_graph(inst, snap)
    assert cg.left_nodes == (1,)
    assert cg.right_nodes == (1,)
    assert cg.edges == ()


def test_conflict_graph_is_pseudoforest_on_random_snapshots():
    # Each uncovered node contributes at most one believed edge, so every
    # component has at most as many edges as nodes (at most one cycle).
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(2, 7)
        inst = Instance(random_rows(rng, n, "dense"))
        cg = build_conflict_graph(inst, random_snapshot(rng, n))
        assert len(cg.edges) <= len(cg.left_nodes) + len(cg.right_nodes)
        assert is_pseudoforest(cg)


def test_complete_resolves_cyclic_component():
    rng = random.Random(7)
    inst = Instance(
        [[F(rng.randint(1, 9)) for _ in range(6)] for _ in range(6)]
    )
    snap = BeliefSnapshot(
        left_belief=(1, 1, 2, 3, 4, 3),
        right_belief=(1, 2, 3, 2, 4, 4),
        iteration=3,
    )
    res = complete(inst, snap)
    assert res.matching.is_perfect(6)
    assert sorted(res.matching.pairs) == [
        (0, 0), (1, 1), (2, 2), (3, 5), (4, 4), (5, 3)
    ]
    (record,) = res.branch_records
    assert record.cycle_edge == (2, 2)
    assert record.weight_with_edge == F(22)
    assert record.weight_without_edge == F(19)
    assert record.chose_edge
    assert res.greedy_pairs == ((0, 0), (3, 5))


def test_complete_orders_records_by_component_smallest_node():
    # Rings a2 b1 a3 b2 and a4 b3 a5 b4; a1 hangs off the second by a1 -> b3,
    # so that component's smallest node, a1, comes before a2.
    inst = Instance(random_rows(random.Random(5), 5, "dense"))
    snap = BeliefSnapshot((2, 0, 1, 2, 3), (2, 1, 4, 3, None), 1)
    res = complete(inst, snap)
    assert [r.cycle_edge for r in res.branch_records] == [(3, 2), (1, 0)]


def test_complete_extends_partial_matching_on_random_runs():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 6)
        inst = Instance(random_rows(rng, n, "dense"))
        for snap in run_to_horizon(inst, 4):
            partial = partial_bp_matching(snap)
            res = complete(inst, snap)
            assert res.matching.is_perfect(n)
            assert partial.pairs.pairs <= res.matching.pairs


def test_complete_componentwise_weight_is_optimal():
    # On small conflict components the committed edges must reach the
    # brute-force optimum over the component's conflict edges.
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(2, 6)
        inst = Instance(random_rows(rng, n, "dense"))
        snap = random_snapshot(rng, n)
        cg = build_conflict_graph(inst, snap)
        if not cg.edges:
            continue
        res = complete(inst, snap)
        committed = [
            (i, j) for i, j in res.matching.pairs - set(res.greedy_pairs)
            if (i, j) in set(cg.edges)
        ]
        got = sum((inst.weight(i, j) for i, j in committed), start=F(0))
        want = best_matching_weight([(i, n + j, inst.weight(i, j)) for i, j in cg.edges])
        assert got == want


def test_complete_requires_dense_instance_for_greedy():
    # On the bare cycle the mutual pair (a2, b1) leaves alpha_1 to be
    # greedily paired with beta_2, an edge the cycle does not have.
    inst = generators.gen_cycle(generators.CycleParams(3, F(8), F(1, 2)))
    snap = BeliefSnapshot((None, 0, None), (1, None, None), 1)
    with pytest.raises(MissingEdgeError):
        complete(inst, snap)
    # With no conflict edge (each uncovered node is Unresolved or believes a
    # covered one) the leftovers pair in index order and nothing branches.
    dense = Instance([[F(4 * i + j) for j in range(4)] for i in range(4)])
    res = complete(dense, BeliefSnapshot((0, 0, None, 0), (1, None, 1, 1), 1))
    assert res.mutual_pairs == ((1, 0),) and res.branch_records == ()
    assert res.greedy_pairs == ((0, 1), (2, 2), (3, 3))
    # The bare 12-cycle's snapshots leave one node uncovered per side, never
    # joined by a conflict edge; the first leftover pair, (a6, b1) at t=1,
    # is absent.
    cycle = generators.gen_cycle(generators.CycleParams(6, F(8), F(1, 100)))
    missing = []
    for snap in run_to_horizon(cycle, 40):
        partial = partial_bp_matching(snap)
        assert build_conflict_graph(cycle, snap).edges == ()
        leftovers = tuple(zip(partial.uncovered_left, partial.uncovered_right))
        absent = [e for e in leftovers if not cycle.has_edge(*e)]
        if absent:
            i, j = absent[0]
            missing.append((i, j))
            with pytest.raises(MissingEdgeError) as err:
                complete(cycle, snap)
            assert str(err.value) == ("greedy completion needs the full K_{n,n}; "
                                      f"edge ({i},{j}) is absent")
            continue
        res = complete(cycle, snap)
        assert res.mutual_pairs == tuple(partial.pairs.sorted_pairs())
        assert res.greedy_pairs == leftovers and res.branch_records == ()
    assert missing[0] == (5, 0) and len(missing) < 40


def test_complete_rejects_a_believed_absent_edge():
    # alpha_1 believes beta_2, which the bare cycle does not join to it.
    inst = generators.gen_cycle(generators.CycleParams(3, F(8), F(1, 2)))
    snap = BeliefSnapshot((1, None, None), (None, None, None), 1)
    with pytest.raises(MissingEdgeError, match=r"edge \(0,1\) is absent"):
        complete(inst, snap)


def test_approximation_ratio():
    inst = Instance([[F(4), F(1)], [F(1), F(4)]])
    snap = BeliefSnapshot((0, 1), (0, 1), 1)
    res = complete(inst, snap)
    _, opt = mwm_hungarian(inst)
    assert approximation_ratio(inst, res, opt) == F(1)
    with pytest.raises(ParameterError):
        approximation_ratio(inst, res, F(0))


def test_approximation_ratio_prices_like_matching_weight():
    # The ratio sums the scaled integers of the completion; the matching
    # weight route, checked edge by edge, must give the same rational.
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randint(1, 6)
        inst = Instance(random_rows(rng, n, "dense"))
        snap = random_snapshot(rng, n)
        res = complete(inst, snap)
        opt = F(rng.randint(1, 40), rng.randint(1, 7))
        assert approximation_ratio(inst, res, opt) == matching_weight(inst, res.matching) / opt


def test_complete_rejects_an_absent_mutual_edge():
    # alpha_1 and beta_2 believe each other, but the bare cycle lacks (0, 1).
    inst = generators.gen_cycle(generators.CycleParams(3, F(8), F(1, 2)))
    snap = BeliefSnapshot((1, None, None), (None, 0, None), 1)
    with pytest.raises(MissingEdgeError, match=r"edge \(0,1\) is absent"):
        complete(inst, snap)


def test_approximation_ratio_requires_perfect_completion():
    inst = Instance([[F(4), F(1)], [F(1), F(4)]])
    from bpmatching.approx import CompletionResult
    from bpmatching.core import Matching

    partial = CompletionResult(Matching.of([(0, 0)]), (), (), ((0, 0),), 4)
    with pytest.raises(ParameterError):
        approximation_ratio(inst, partial, F(8))


def test_constructed_instances_have_isolated_conflict_graphs():
    inst = generators.gen_multicycle(16, F(8), F(1, 100), c=2)
    for snap in run_to_horizon(inst, 4):
        assert build_conflict_graph(inst, snap).edges == ()


def sharp_from(inst, deltas):
    """T and, per delta, t_delta: the first t from which the completion
    ratio stays >= 1 - delta up to T, each distinct snapshot completed once."""
    reference, opt = mwm_hungarian(inst)
    t_end = convergence_time(inst, reference, certified_horizon(inst))
    ratios, seen = [], {}
    for snap in run_to_horizon(inst, t_end):
        key = (snap.left_belief, snap.right_belief)
        if key not in seen:
            seen[key] = approximation_ratio(inst, complete(inst, snap), opt)
        ratios.append(seen[key])
    late = [t_end - sum(1 for _ in takewhile((1 - d).__le__, reversed(ratios))) + 1
            for d in deltas]
    return t_end, late


@pytest.mark.parametrize("inst, t_end, late", [
    (generators.gen_cycle(generators.CycleParams(6, F(8), F(1, 10)), embed=True),
     242, [236] * 3),
    (generators.gen_cycle(generators.CycleParams(7, F(16), F(1, 2)), embed=True),
     114, [100] * 3),
    (generators.gen_cycle(generators.CycleParams(3, F(3), F(5, 8)), embed=True), 8, [8] * 3),
    (generators.gen_multicycle(16, F(8), F(1, 100), c=2), 2802, [1942, 2788, 2788]),
], ids=["embedded n=6", "embedded n=7", "embedded n=3", "multicycle n=16"])
def test_a_sharp_completion_comes_only_near_convergence(inst, t_end, late):
    # The paper's second claim, as exact numbers: t_delta for delta = 1/2,
    # 1/10 and 1/100.  T - t_delta is n, 2n or 0 on embedded heavy cycles,
    # not one law; on the multicycle it is 14, twice the largest half-length,
    # for delta <= 1/10.
    assert sharp_from(inst, [F(1, 2), F(1, 10), F(1, 100)]) == (t_end, late)
