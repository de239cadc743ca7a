"""Acceptance suite: one check per headline claim, one verdict line each.

Each test prints `criterion N: PASS|FAIL — detail` before asserting, so a
plain `pytest -s tests/test_acceptance.py` shows the scoreboard even when a
criterion fails.
"""

import random
import time
from fractions import Fraction as F

from bpmatching import engine, generators, oracles, trees
from bpmatching.approx import _solve, approximation_ratio, build_conflict_graph, complete
from bpmatching.core import Instance, matching_weight
from bpmatching.engine import partial_bp_matching, run_to_horizon
from reference import (
    best_matching_weight,
    class_weight_split,
    forest_pointers,
    heavy_tail_tree,
    is_pseudoforest,
    node_neighbors,
    optimal_matching,
    random_forest,
    random_rows,
    suboptimal_matching,
)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_weight_identities():
    start = time.perf_counter()
    checked = 0
    ok = True
    for n in range(3, 11):
        for w_max in (F(8), F(5, 2)):
            for eps in (w_max / 33, w_max / 64, w_max / 1000):
                inst = generators.gen_cycle(
                    generators.CycleParams(n, w_max, eps), embed=True
                )
                w_opt = matching_weight(inst, optimal_matching(inst))
                w_sub = matching_weight(inst, suboptimal_matching(inst))
                ok = ok and w_opt == n * w_max / 2 and w_sub == w_opt - eps
                checked += 1
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 1.0, f"{checked} parameter points in {elapsed:.2f}s")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_tail_advantage_identity():
    start = time.perf_counter()
    ok = True
    checked = 0
    w_max = F(8)
    for n in range(3, 9):
        eps = F(1, n)
        inst = generators.gen_cycle(generators.CycleParams(n, w_max, eps))
        for k in range(0, 21):
            for l in range(1, n):
                tree, _ = heavy_tail_tree(inst, k, l)
                split = class_weight_split(inst, tree)
                diff = split.get("sub", F(0)) - split.get("opt", F(0))
                ok = ok and diff == -k * eps + trees.nibbling_delta(n, w_max, eps, l)
                checked += 1
    elapsed = time.perf_counter() - start
    report(2, ok and elapsed < 10.0, f"{checked} (n,k,l) points in {elapsed:.2f}s")
    assert ok
    assert elapsed < 10.0


def test_criterion_3_convergence_sandwich():
    start = time.perf_counter()
    grid = [
        (3, F(3, 5)), (3, F(1, 2)), (4, F(1, 2)), (3, F(1, 4)),
        (5, F(1, 3)), (6, F(1, 5)), (7, F(1, 10)), (8, F(1, 12)),
        (3, F(3, 100)), (3, F(1, 250)), (3, F(1, 1000)),
    ]
    w_max = F(8)
    ok = True
    exact_t = None
    for n, eps in grid:
        inst = generators.gen_cycle(
            generators.CycleParams(n, w_max, eps), embed=True
        )
        lower = F(n) * w_max / (2 * eps)
        assert lower <= 10**5
        t = engine.convergence_time(
            inst, optimal_matching(inst), oracles.certified_horizon(inst)
        )
        ok = ok and lower - n <= t <= 2 * n * w_max / eps
        if (n, eps) == (3, F(3, 5)):
            exact_t = t
    ok = ok and exact_t == 20
    elapsed = time.perf_counter() - start
    report(3, ok and elapsed < 300.0,
           f"{len(grid)} instances, T(3,8,3/5)={exact_t}, {elapsed:.1f}s")
    assert ok
    assert elapsed < 300.0


def test_criterion_4_engine_matches_tree_oracle():
    start = time.perf_counter()
    rng = random.Random(20240819)
    ok = True
    for _ in range(200):
        n = rng.randint(2, 4)
        inst = Instance(random_rows(rng, n, "dense"))
        for snap in run_to_horizon(inst, 6):
            t = snap.iteration
            for v in range(2 * n):
                expect = trees.oracle_belief(inst, v, t)
                got = (
                    snap.left_belief[v]
                    if v < n
                    else snap.right_belief[v - n]
                )
                ok = ok and got == (None if expect is trees.TIE else expect)
    elapsed = time.perf_counter() - start
    report(4, ok and elapsed < 60.0, f"200 random instances, t<=6, {elapsed:.1f}s")
    assert ok
    assert elapsed < 60.0


def test_criterion_5_embedding_equivalence():
    start = time.perf_counter()
    ok = True
    for n in range(3, 9):
        params = generators.CycleParams(n, F(8), F(1, n))
        bare = generators.gen_cycle(params)
        full = generators.gen_cycle(params, embed=True)
        for a, b in zip(run_to_horizon(bare, 200), run_to_horizon(full, 200)):
            ok = ok and (a.left_belief, a.right_belief) == (b.left_belief, b.right_belief)
    elapsed = time.perf_counter() - start
    report(5, ok and elapsed < 60.0, f"n=3..8, t<=200, {elapsed:.1f}s")
    assert ok
    assert elapsed < 60.0


def _bare_cycle_beliefs(inst, t):
    """Beliefs at iteration t on a bare 2n-cycle, in closed form.

    On a cycle the depth-t computation tree is a path with t edges on each
    side of the root.  A T-matching covers every inner node, so it leaves
    exactly one end leaf uncovered: the root takes its first edge on one
    side, and the matching alternates from there along both sides.  The
    root believes in the side whose alternating edge sum is larger, and is
    Unresolved (None) on a tie.  Returns (left_belief, right_belief) in the
    snapshot layout.
    """
    n = inst.n
    belief = []
    for root in range(2 * n):
        sides = []
        for first, w in node_neighbors(inst, root):
            weights, prev, cur = [w], root, first
            while len(weights) < t:
                [(nxt, w)] = [
                    (v, x) for v, x in node_neighbors(inst, cur) if v != prev
                ]
                weights.append(w)
                prev, cur = cur, nxt
            sides.append((first, weights))
        (a, wa), (b, wb) = sides
        take_a = sum(wa[0::2], F(0)) + sum(wb[1::2], F(0))
        take_b = sum(wb[0::2], F(0)) + sum(wa[1::2], F(0))
        belief.append(None if take_a == take_b else a if take_a > take_b else b)
    left = tuple(None if v is None else v - n for v in belief[:n])
    return left, tuple(belief[n:])


def test_criterion_6_ten_cycle_belief_chronology():
    start = time.perf_counter()
    params = generators.CycleParams(5, F(8), F(1, 2))
    inst = generators.gen_cycle(params, embed=True)
    bare = generators.gen_cycle(params)
    observed = []
    closed_form_ok = True
    for snap in run_to_horizon(inst, 11):
        part = partial_bp_matching(snap)
        observed.append(
            (sorted(part.pairs.pairs), part.uncovered_left, part.uncovered_right)
        )
        if snap.iteration >= 6:
            # Criterion 5 makes bare and embedded beliefs equal.
            closed_form_ok = closed_form_ok and (
                (snap.left_belief, snap.right_belief)
                == _bare_cycle_beliefs(bare, snap.iteration)
            )
    expected_first_five = [
        ([(0, 4), (1, 1), (2, 2), (3, 3)], (4,), (0,)),
        ([(0, 4), (1, 1), (2, 2), (3, 3)], (4,), (0,)),
        ([(0, 4), (1, 0), (2, 2), (4, 3)], (3,), (1,)),
        ([(0, 4), (1, 0), (2, 2), (4, 3)], (3,), (1,)),
        ([(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)], (), ()),
    ]
    first_five_ok = observed[:5] == expected_first_five
    # The paper states that after the all-optimal iteration t=5 the pattern
    # of t=1 repeats at t=6.  The documented BP does not do that: t=6..9
    # hold other partial matchings, t=10 is all-optimal again and t=1 first
    # recurs at t=11 = 1+2n.  The README records the disagreement.
    repeat_at_six = observed[5] == observed[0]
    first_repeat = next(
        (t for t in range(6, 12) if observed[t - 1] == observed[0]), None
    )
    ok = first_five_ok and closed_form_ok and not repeat_at_six and first_repeat == 11
    elapsed = time.perf_counter() - start
    report(
        6,
        ok and elapsed < 1.0,
        f"t=1..5 {'match' if first_five_ok else 'mismatch'} the paper; "
        f"t=6..11 {'match' if closed_form_ok else 'mismatch'} the bare-cycle "
        f"closed form; the paper has t=1 repeat at t=6, BP repeats it first at "
        f"t={first_repeat} (1+2n=11; README, Tests: criterion 6), {elapsed:.2f}s",
    )
    assert first_five_ok
    assert closed_form_ok
    assert not repeat_at_six
    assert first_repeat == 11
    assert elapsed < 1.0


def test_criterion_7_completion_collapse():
    start = time.perf_counter()
    n, w_max, eps, c = 16, F(8), F(1, 100), 2
    inst = generators.gen_multicycle(n, w_max, eps, c=c)
    primes = inst.meta["primes"]
    assert primes == [5, 7]
    window = generators.failure_window(n, c, w_max, eps)
    _, opt = oracles.mwm_hungarian(inst)
    ok = True
    cycle_best = {p: F(-10**9) for p in primes}
    cycle_best_at_one = dict(cycle_best)
    for snap in run_to_horizon(inst, int(window)):
        t = snap.iteration
        res = complete(inst, snap)
        # Count cycles whose block is not perfectly matched within itself.
        failed = 0
        blocks = []
        for cyc in inst.meta["cycles"]:
            off, half = cyc["offset"], cyc["half_length"]
            inside = [
                (i, j) for i, j in res.matching.pairs
                if off <= i < off + half and off <= j < off + half
            ]
            partial_inside = [
                (i, j) for i, j in partial_bp_matching(snap).pairs.pairs
                if off <= i < off + half and off <= j < off + half
            ]
            if len(partial_inside) < half:
                failed += 1
            blocks.append((half, inside))
        ratio = approximation_ratio(inst, res, opt)
        if failed:
            ok = ok and ratio <= 1 - failed * 2 * w_max / opt
        for half, inside in blocks:
            weight = sum((inst.weight(i, j) for i, j in inside), start=F(0))
            cycle_best[half] = max(cycle_best[half], weight)
            if t % half == 1:
                cycle_best_at_one[half] = max(cycle_best_at_one[half], weight)
    for p in primes:
        bound = -2 * w_max + p * w_max / 2
        ok = ok and cycle_best_at_one[p] == bound
        ok = ok and cycle_best[p] == bound
    elapsed = time.perf_counter() - start
    pretty = {p: str(w) for p, w in cycle_best.items()}
    report(7, ok and elapsed < 60.0,
           f"window={window}, best cycle completions {pretty}, {elapsed:.1f}s")
    assert ok
    assert elapsed < 60.0


def test_criterion_8_structural_suites():
    start = time.perf_counter()
    rng = random.Random(20240820)
    ok = True
    # Pseudoforest + completion containment over random runs.
    for _ in range(40):
        n = rng.randint(2, 6)
        inst = Instance(random_rows(rng, n, "dense"))
        for snap in run_to_horizon(inst, 4):
            cg = build_conflict_graph(inst, snap)
            ok = ok and is_pseudoforest(cg)
            res = complete(inst, snap)
            partial = partial_bp_matching(snap)
            ok = ok and res.matching.is_perfect(n)
            ok = ok and partial.pairs.pairs <= res.matching.pairs
            # No conflict edge joins the two arbitrarily-paired leftover
            # sets (belief-respecting leftovers are paired beforehand).
            conflict = set(cg.edges)
            zip_left = {i for i, j in res.greedy_pairs if (i, j) not in conflict}
            zip_right = {j for i, j in res.greedy_pairs if (i, j) not in conflict}
            ok = ok and not any(
                i in zip_left and j in zip_right for i, j in conflict
            )
    # The completion's pointer-graph solver against subset brute force.
    for _ in range(500):
        kept = random_forest(rng)
        ptr, wt = forest_pointers(kept)
        chosen, _ = _solve(ptr, wt)
        ok = ok and sum((wt[u] for _, u in chosen), start=F(0)) == best_matching_weight(kept)
    elapsed = time.perf_counter() - start
    report(8, ok and elapsed < 60.0, f"structural + 500 forests, {elapsed:.1f}s")
    assert ok
    assert elapsed < 60.0


def test_criterion_9_asymptotics_covered_by_instantiations():
    # The asymptotic growth statements are not measurable at desk scale;
    # their finite instantiations are what criteria 2, 3, and 7 check.
    # The bare-cycle law T = n*w_max/(2*eps) + 2 is pinned far past the
    # cap, n up to 101 and eps down to 10^-9, by
    # tests/test_engine.py::test_bare_cycle_time_law_far_past_the_cap.
    # This criterion records that coverage decision.
    report(9, True, "growth-rate claims covered by the finite checks (2, 3, 7)")
    assert True
