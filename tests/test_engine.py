"""Tests for the message-passing engine."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpmatching import generators
from bpmatching.core import HorizonExhausted, Instance, Matching, ParameterError
from bpmatching.engine import (
    beliefs,
    certified_horizon,
    convergence_time,
    init_messages,
    partial_bp_matching,
    run_to_horizon,
    step,
)


def small_cycle():
    return generators.gen_cycle(generators.CycleParams(3, F(8), F(1, 2)))


def test_init_messages_zero_and_shape():
    inst = small_cycle()
    state = init_messages(inst)
    assert state.iteration == 0
    assert state.message_to_right(0, 0) == 0
    assert state.message_to_left(1, 0) == 0
    with pytest.raises(ParameterError):
        state.message_to_right(0, 1)  # absent on the bare cycle


def test_first_round_messages_equal_weights():
    # With all-zero inputs every message equals its edge weight.
    inst = small_cycle()
    state = step(inst, init_messages(inst), normalize=False)
    assert state.iteration == 1
    for i in range(3):
        for j in range(3):
            if inst.has_edge(i, j):
                assert state.message_to_right(i, j) == inst.weight(i, j)
                assert state.message_to_left(i, j) == inst.weight(i, j)


def test_belief_sequence_on_small_cycle():
    # Frozen sequence for the 6-cycle with w_max=8, eps=1/2; the root of
    # the depth-4 tree at alpha_1 believes beta_1 while alpha_2 still
    # falsely believes beta_1 (the heavy tail wins).
    inst = small_cycle()
    seq = [(s.left_belief, s.right_belief) for s in run_to_horizon(inst, 5)]
    assert seq == [
        ((2, 1, 2), (0, 1, 0)),
        ((2, 1, 1), (1, 1, 0)),
        ((0, 1, 2), (0, 1, 2)),
        ((0, 0, 2), (0, 2, 2)),
        ((0, 0, 1), (1, 2, 2)),
    ]


def test_exact_tie_detected():
    # At t = 8*3 + 1 the accumulated per-copy disadvantage 8*eps equals
    # the tail advantage w_max/2, so the heavy-edge endpoints tie.
    inst = small_cycle()
    for snap in run_to_horizon(inst, 25):
        pass
    assert snap.left_belief == (None, 1, 2)
    assert snap.right_belief == (0, 1, None)


def test_normalization_is_belief_invariant():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 4)
        rows = [[F(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        inst = Instance(rows)
        raw = init_messages(inst)
        norm = init_messages(inst)
        for _ in range(20):
            raw = step(inst, raw, normalize=False)
            norm = step(inst, norm, normalize=True)
            assert beliefs(inst, raw) == beliefs(inst, norm)


def test_normalized_messages_stay_bounded():
    inst = generators.gen_cycle(
        generators.CycleParams(3, F(8), F(1, 2)), embed=True
    )
    bound = 8 * inst.scale * inst.n * 8  # generous fixed bound
    state = init_messages(inst)
    for _ in range(300):
        state = step(inst, state)
        values = [v for row in state.to_right + state.to_left for v in row]
        assert all(abs(v) <= bound for v in values)


def test_partial_bp_matching_mutuality():
    inst = generators.gen_cycle(
        generators.CycleParams(5, F(8), F(1, 2)), embed=True
    )
    snap = next(iter(run_to_horizon(inst, 1)))
    part = partial_bp_matching(snap)
    assert sorted(part.pairs.pairs) == [(0, 4), (1, 1), (2, 2), (3, 3)]
    assert part.uncovered_left == (4,)
    assert part.uncovered_right == (0,)


def test_encodes_requires_full_mutual_agreement():
    inst = small_cycle()
    reference = generators.optimal_matching(inst)
    snaps = list(run_to_horizon(inst, 4))
    assert not snaps[0].encodes(reference)
    # At t=4 most nodes already agree with the reference, but alpha_2
    # still believes beta_1, so the snapshot must not count as encoded.
    assert not snaps[3].encodes(reference)


def test_convergence_time_exact():
    inst = generators.gen_cycle(generators.CycleParams(3, F(8), F(3, 5)))
    reference = generators.optimal_matching(inst)
    assert convergence_time(inst, reference, certified_horizon(inst)) == 20


def test_convergence_time_horizon_exhausted():
    inst = generators.gen_cycle(generators.CycleParams(3, F(8), F(3, 5)))
    reference = generators.optimal_matching(inst)
    with pytest.raises(HorizonExhausted):
        convergence_time(inst, reference, 10)
    # A wrong reference never settles either.
    wrong = Matching.of([(0, 1), (1, 0), (2, 2)])
    with pytest.raises(HorizonExhausted):
        convergence_time(inst, wrong, 100)


def test_certified_horizon():
    inst = generators.gen_cycle(generators.CycleParams(3, F(8), F(3, 5)))
    assert certified_horizon(inst) == 80  # 2*3*8 / (3/5)
    with pytest.raises(ParameterError):
        certified_horizon(Instance([[F(1)]]))


def test_run_to_horizon_validation():
    inst = small_cycle()
    with pytest.raises(ParameterError):
        list(run_to_horizon(inst, 0))


def test_ten_cycle_beliefs_repeat_with_period_2n():
    # Pre-convergence beliefs on the 10-cycle repeat with period 2n = 10
    # (t=11 reproduces t=1), not n+1; the depth-6 tree genuinely favors
    # the all-optimal pattern, as the independent tree oracle confirms.
    from bpmatching.trees import TIE, oracle_belief

    inst = generators.gen_cycle(generators.CycleParams(5, F(8), F(1, 2)))
    snaps = {s.iteration: s for s in run_to_horizon(inst, 11)}
    assert snaps[11].left_belief == snaps[1].left_belief
    assert snaps[11].right_belief == snaps[1].right_belief
    assert snaps[6].left_belief != snaps[1].left_belief
    for v in range(10):
        expect = oracle_belief(inst, v, 6)
        got = snaps[6].left_belief[v] if v < 5 else snaps[6].right_belief[v - 5]
        assert got == (None if expect is TIE else expect)


def test_step_rejects_foreign_state():
    inst = small_cycle()
    other = Instance([[F(1, 7), F(0), F(0)]] + [[F(0)] * 3] * 2)
    state = init_messages(other)
    with pytest.raises(ParameterError):
        step(inst, state)


def test_instance_without_edges_is_rejected():
    inst = Instance([[None, None], [None, None]])
    with pytest.raises(ParameterError):
        init_messages(inst)
    with pytest.raises(ParameterError):
        list(run_to_horizon(inst, 1))


# -- formula-level reference: the update rule, literally, on n x n tables --


def reference_step(w, to_right, to_left, normalize):
    """m[alpha_i -> beta_j] = w_ij - max_{l != j} m[beta_l -> alpha_i], and
    m[beta_j -> alpha_i] = w_ij - max_{k != i} m[alpha_k -> beta_j]; the
    maximum over an empty set is 0.  ``to_right[i][j]`` is alpha_i -> beta_j,
    ``to_left[i][j]`` is beta_j -> alpha_i, ``None`` on absent edges."""
    n = len(w)
    new_right = [[None] * n for _ in range(n)]
    new_left = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if w[i][j] is None:
                continue
            new_right[i][j] = w[i][j] - max(
                (to_left[i][l] for l in range(n) if l != j and w[i][l] is not None),
                default=0,
            )
            new_left[i][j] = w[i][j] - max(
                (to_right[k][j] for k in range(n) if k != i and w[k][j] is not None),
                default=0,
            )
    if normalize:
        for table in (new_right, new_left):
            z = max(v for row in table for v in row if v is not None)
            for row in table:
                row[:] = [None if v is None else v - z for v in row]
    return new_right, new_left


def reference_belief(values):
    """Index of the unique maximum of the present values, else None."""
    present = [v for v in values if v is not None]
    if not present or present.count(max(present)) > 1:
        return None
    return values.index(max(present))


@st.composite
def weight_tables(draw):
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["dense", "sparse", "tied", "rational"]))
    cell = {
        "dense": st.integers(-9, 9).map(F),
        "sparse": st.one_of(st.none(), st.integers(-9, 9).map(F)),
        "tied": st.integers(0, 2).map(F),
        "rational": st.builds(F, st.integers(-20, 20), st.integers(1, 6)),
    }[kind]
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    if all(w is None for row in rows for w in row):
        rows[0][0] = F(1)
    return rows


@settings(max_examples=150, deadline=None)
@given(weight_tables())
# alpha_1 and beta_1 have degree 0, alpha_3 and beta_3 degree 1.
@example([[None, None, None], [None, F(2), F(-1)], [None, F(5), None]])
# Negative weights on degree-1 nodes: their only message must not be
# shifted by their incoming maximum.
@example([[F(-3), None], [None, F(-7)]])
def test_step_and_beliefs_match_formula_reference(rows):
    inst = Instance(rows)
    n = inst.n
    for normalize in (True, False):
        state = init_messages(inst)
        ref_right = [[None if w is None else F(0) for w in row] for row in rows]
        ref_left = [list(row) for row in ref_right]
        for t in range(1, 31):
            state = step(inst, state, normalize=normalize)
            ref_right, ref_left = reference_step(rows, ref_right, ref_left, normalize)
            for i in range(n):
                for j in range(n):
                    if rows[i][j] is None:
                        continue
                    assert state.message_to_right(i, j) == ref_right[i][j]
                    assert state.message_to_left(i, j) == ref_left[i][j]
            snap = beliefs(inst, state)
            assert snap.iteration == t
            assert snap.left_belief == tuple(reference_belief(row) for row in ref_left)
            assert snap.right_belief == tuple(
                reference_belief([ref_right[i][j] for i in range(n)]) for j in range(n)
            )
