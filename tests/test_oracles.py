"""Tests for the matching oracles: the subset DP against n! enumeration,
the DP against Hungarian, gap computation."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import networkx as nx
import pytest

from bpmatching import generators, oracles
from bpmatching.core import (
    Instance,
    Matching,
    OracleCapExceeded,
    ParameterError,
    matching_weight,
)
from bpmatching.oracles import (
    mwm_bruteforce,
    mwm_hungarian,
    optimum_and_gap,
    second_best_weight,
    uniqueness_gap,
)
from reference import (
    count_calls,
    eager_assignment,
    mwm_enumeration,
    optimal_matching,
    random_rows,
)


def random_instance(rng, n, sparse=False):
    rows = random_rows(rng, n, "dense")
    if sparse:
        # Knock out off-diagonal edges but keep one perfect matching alive.
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.3:
                    rows[i][j] = None
    return Instance(rows)


def test_bruteforce_known_optimum():
    inst = Instance([[F(3), F(1)], [F(1), F(3)]])
    m, w = mwm_bruteforce(inst)
    assert w == F(6)
    assert m.sorted_pairs() == [(0, 0), (1, 1)]


def test_bruteforce_lexicographic_tie_break():
    inst = Instance([[F(1), F(1)], [F(1), F(1)]])
    m, w = mwm_bruteforce(inst)
    assert w == F(2)
    assert m.sorted_pairs() == [(0, 0), (1, 1)]


def test_bruteforce_skips_absent_edges():
    inst = Instance([[None, F(9)], [F(9), F(1)]])
    m, w = mwm_bruteforce(inst)
    assert m.sorted_pairs() == [(0, 1), (1, 0)]
    assert w == F(18)


def test_bruteforce_cap():
    inst = Instance([[F(0)] * 11 for _ in range(11)])
    with pytest.raises(OracleCapExceeded):
        mwm_bruteforce(inst)


def test_no_perfect_matching_raises():
    inst = Instance([[None, F(1)], [None, F(2)]])
    with pytest.raises(ParameterError):
        mwm_bruteforce(inst)
    with pytest.raises(ParameterError):
        mwm_hungarian(inst)


def test_subset_dp_matches_enumeration():
    # The same matching (the lexicographically smallest optimal
    # permutation), the same weight and the same ParameterError as n!
    # enumeration, on tied and small rational weights with about 30% of
    # the cells absent.
    rng = random.Random(2025)
    draws = [
        lambda: F(rng.randint(0, 2)),
        lambda: F(rng.randint(-20, 20), rng.randint(1, 6)),
    ]
    tied = unmatchable = 0
    for k in range(480):
        n = 1 + k % 8
        draw = draws[k // 8 % 2]
        rows = [[None if rng.random() < 0.3 else draw() for _ in range(n)] for _ in range(n)]
        inst = Instance(rows)
        try:
            want = mwm_enumeration(inst)
        except ParameterError:
            with pytest.raises(ParameterError):
                mwm_bruteforce(inst)
            unmatchable += 1
            continue
        m, w = mwm_bruteforce(inst)
        assert (m, w) == want
        assert type(w) is F
        try:
            tied += uniqueness_gap(inst) == 0
        except ParameterError:
            pass
    assert tied >= 50 and unmatchable >= 20


def test_hungarian_equals_bruteforce_on_random_instances():
    rng = random.Random(20240817)
    for _ in range(500):
        n = rng.randint(2, 6)
        inst = random_instance(rng, n, sparse=(rng.random() < 0.4))
        try:
            mb, wb = mwm_bruteforce(inst)
        except ParameterError:
            with pytest.raises(ParameterError):
                mwm_hungarian(inst)
            continue
        mh, wh = mwm_hungarian(inst)
        assert wh == wb
        assert matching_weight(inst, mh) == wb


def test_hungarian_equals_bruteforce_larger():
    rng = random.Random(99)
    for _ in range(12):
        n = rng.randint(7, 8)
        inst = random_instance(rng, n)
        _, wb = mwm_bruteforce(inst)
        _, wh = mwm_hungarian(inst)
        assert wh == wb


def test_hungarian_equals_bruteforce_at_the_cap():
    # n = 9 and 10, where the DP visits n * 2^n states instead of n!
    # permutations, on tied weights and with absent edges.
    rng = random.Random(910)
    outcomes = set()
    for k in range(32):
        n = 9 + k % 2
        absent = 0.3 if k % 4 >= 2 else 0.0
        rows = [[None if rng.random() < absent else F(rng.randint(0, 2)) for _ in range(n)]
                for _ in range(n)]
        if k % 8 == 7:  # a column without edges: no perfect matching
            for row in rows:
                row[k % n] = None
        inst = Instance(rows)
        try:
            mb, wb = mwm_bruteforce(inst)
        except ParameterError:
            with pytest.raises(ParameterError):
                mwm_hungarian(inst)
            outcomes.add("unmatchable")
            continue
        mh, wh = mwm_hungarian(inst)
        assert wh == wb == matching_weight(inst, mb)
        assert mb.is_perfect(n) and mh.is_perfect(n)
        outcomes.add("tied" if uniqueness_gap(inst) == 0 else "unique")
    assert outcomes == {"tied", "unique", "unmatchable"}


def test_hungarian_pairs_are_pinned_on_tied_optima():
    # Pins which optimum the Hungarian method returns, not only its weight:
    # 144 of these draws have several optima, 10 have no perfect matching.
    rng = random.Random(29)
    found, tied = [], 0
    for _ in range(300):
        inst = Instance(random_rows(rng, rng.randint(2, 7), "tied"))
        try:
            found.append(mwm_hungarian(inst)[0].sorted_pairs())
        except ParameterError:
            found.append(None)
            continue
        try:
            tied += uniqueness_gap(inst) == 0
        except ParameterError:
            pass
    assert (tied, found.count(None)) == (144, 10)
    digest = hashlib.sha256(json.dumps(found).encode()).hexdigest()
    assert digest == "558a5305547a16ac46f2f952d3d3d7480d310772def3a9d3458789f1abd71c8d"


def test_deferred_shifts_pick_the_eager_columns(monkeypatch):
    # The search defers its dual shifts to the end of each row's search.
    # On every cost matrix ``mwm_hungarian`` builds, sentinel-costed absent
    # cells and ties included, it must return the eager search's columns.
    solve, sizes = oracles._min_cost_assignment, []

    def compared(cost):
        got = solve(cost)
        assert got == eager_assignment(cost), cost
        sizes.append(len(cost))
        return got

    monkeypatch.setattr(oracles, "_min_cost_assignment", compared)
    rng = random.Random(40)
    insts = []
    for k in range(2000):
        n = rng.randint(1, 12)
        low, high = (0, 3) if k % 2 else (-9, 9)
        absent = 0.2 if k % 4 >= 2 else 0.0
        insts.append(Instance([[None if rng.random() < absent else F(rng.randint(low, high))
                                for _ in range(n)] for _ in range(n)]))
    insts += [
        generators.gen_cycle(generators.CycleParams(16, F(8), F(1, 10)), embed=True),
        generators.gen_multicycle(24, F(8), F(1, 1000), c=2),
        generators.gen_multicycle(120, F(8), F(1, 1000), c=3),
    ]
    insts += [Instance([[F(rng.randint(-1000, 1000), rng.randint(1, 12)) for _ in range(40)]
                        for _ in range(40)]) for _ in range(4)]
    unmatchable = 0
    for inst in insts:
        try:
            mwm_hungarian(inst)
        except ParameterError:
            unmatchable += 1
    assert len(sizes) == len(insts) and set(sizes) >= set(range(1, 13)) | {40, 120}
    assert unmatchable > 0


def test_gap_rejects_a_suboptimal_assignment(monkeypatch):
    # A suboptimal "optimum" admits an improving exchange cycle; the gap
    # must say so rather than report a negative gap.
    inst = Instance([[F(3), F(1)], [F(1), F(3)]])
    monkeypatch.setattr(oracles, "_min_cost_assignment", lambda cost: [1, 0])
    with pytest.raises(RuntimeError, match="improving exchange cycle"):
        optimum_and_gap(inst)


def test_gap_check_survives_optimized_mode():
    # Under python -O every assert is stripped; the check must not be one.
    script = (
        "from fractions import Fraction as F\n"
        "from bpmatching import oracles\n"
        "from bpmatching.core import Instance\n"
        "oracles._min_cost_assignment = lambda cost: [1, 0]\n"
        "oracles.optimum_and_gap(Instance([[F(3), F(1)], [F(1), F(3)]]))\n"
    )
    src = Path(oracles.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert proc.returncode != 0
    assert "improving exchange cycle" in proc.stderr


def test_second_best_small_enumeration():
    inst = Instance([[F(3), F(1)], [F(1), F(3)]])
    assert second_best_weight(inst) == F(2)
    assert uniqueness_gap(inst) == F(4)


def test_second_best_forbid_edge_route_matches_enumeration():
    # Padding a 7x7 instance with a heavy diagonal 8th pair and light
    # cross edges keeps the optimum's exchange cycles inside the 7x7 block,
    # so the second-best weight shifts by exactly the heavy weight.
    rng = random.Random(5)
    for _ in range(10):
        inst = random_instance(rng, 7)
        by_enum = second_best_weight(inst)
        rows = [list(r) + [F(-50)] for r in inst.weights]
        rows.append([F(-50)] * 7 + [F(100)])
        padded = Instance(rows)
        assert second_best_weight(padded) == by_enum + F(100)


def _present_weights_desc(inst):
    """Weights of every perfect matching on present edges, best first."""
    rows = inst.scaled_weights()
    totals = []
    for perm in itertools.permutations(range(inst.n)):
        cells = [rows[i][j] for i, j in enumerate(perm)]
        if None not in cells:
            totals.append(F(sum(cells), inst.scale))
    return sorted(totals, reverse=True)


def test_second_best_matches_full_enumeration():
    rng = random.Random(314)
    draws = [
        lambda: F(rng.randint(-9, 9)),  # dense
        lambda: F(rng.randint(-9, 9)) if rng.random() < 0.6 else None,  # sparse
        lambda: F(rng.randint(0, 2)),  # small-integer ties
        lambda: F(rng.randint(-200, 200), rng.randint(1, 9)),  # rational
    ]
    ties = 0
    for k in range(300):
        n = 2 + k % 6
        draw = draws[k % len(draws)]
        inst = Instance([[draw() for _ in range(n)] for _ in range(n)])
        weights = _present_weights_desc(inst)
        if not weights:
            with pytest.raises(ParameterError):
                uniqueness_gap(inst)
        elif len(weights) == 1:
            with pytest.raises(ParameterError):
                second_best_weight(inst)
            with pytest.raises(ParameterError):
                uniqueness_gap(inst)
        else:
            assert second_best_weight(inst) == weights[1]
            assert uniqueness_gap(inst) == weights[0] - weights[1]
            ties += weights[0] == weights[1]
    assert ties > 0  # the tied draws do reach gap 0


@pytest.mark.parametrize("n, upper", [(7, False), (8, False), (9, True)])
def test_gap_needs_two_perfect_matchings(n, upper):
    # A diagonal or upper-triangular support admits only the identity.
    inst = Instance(
        [
            [F(i - 2 * j) if j == i or (upper and j > i) else None for j in range(n)]
            for i in range(n)
        ]
    )
    with pytest.raises(ParameterError):
        second_best_weight(inst)
    with pytest.raises(ParameterError):
        uniqueness_gap(inst)


@pytest.mark.parametrize("n", [9, 20, 40])
def test_hungarian_matches_networkx(n):
    rng = random.Random(1000 + n)
    inst = Instance(
        [[F(rng.randint(-1000, 1000), rng.randint(1, 12)) for _ in range(n)] for _ in range(n)]
    )
    rows = inst.scaled_weights()
    g = nx.Graph()
    g.add_weighted_edges_from(
        (("a", i), ("b", j), rows[i][j]) for i in range(n) for j in range(n)
    )
    mate = nx.max_weight_matching(g, maxcardinality=True)
    assert len(mate) == n
    total = sum(g.edges[u, v]["weight"] for u, v in mate)
    _, wh = mwm_hungarian(inst)
    assert wh == F(total, inst.scale)


def test_uniqueness_gap_on_cycle_family():
    inst = generators.gen_cycle(
        generators.CycleParams(5, F(8), F(1, 2)), embed=True
    )
    assert uniqueness_gap(inst) == F(1, 2)


def test_certified_horizon_without_an_eps_solves_once(monkeypatch):
    # The embedded n=16 cycle (converge-dense): the optimum solved for the
    # gap keeps to the bare view, so the view's gap is the exchange-cycle
    # pass around it, with no second Hungarian solve.
    inst = generators.gen_cycle(generators.CycleParams(16, F(8), F(1, 10)), embed=True)
    calls = count_calls(monkeypatch, oracles, "mwm_hungarian")
    assert oracles.certified_horizon(inst) == 2560
    assert len(calls) == 1


def test_uniqueness_gap_on_multicycle_family():
    inst = generators.gen_multicycle(11, F(8), F(1, 4), c=2)
    assert inst.meta["primes"] == [3, 5]
    assert uniqueness_gap(inst) == F(1, 4)


def test_generated_optimum_matches_oracles():
    inst = generators.gen_cycle(
        generators.CycleParams(4, F(8), F(1, 2)), embed=True
    )
    expected = optimal_matching(inst)
    mb, wb = mwm_bruteforce(inst)
    mh, wh = mwm_hungarian(inst)
    assert mb.pairs == expected.pairs
    assert mh.pairs == expected.pairs
    assert wb == wh == F(4) * F(8) / 2
