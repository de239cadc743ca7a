"""Tests for the adversarial instance generators."""

from fractions import Fraction as F

import pytest
from sympy import primerange

from bpmatching import generators
from bpmatching.core import ParameterError, matching_weight
from bpmatching.generators import (
    CycleParams,
    default_cycle_count,
    failure_window,
    gen_cycle,
    gen_multicycle,
    select_primes,
)
from bpmatching.oracles import mwm_hungarian
from reference import optimal_matching, suboptimal_matching


def test_cycle_params_validation():
    with pytest.raises(ParameterError):
        CycleParams(2, F(8), F(1, 100))
    with pytest.raises(ParameterError):
        CycleParams(3, F(0), F(1, 100))
    with pytest.raises(ParameterError):
        CycleParams(3, F(8), F(0))
    with pytest.raises(ParameterError):
        CycleParams(3, F(8), F(2))  # eps >= w_max/(4(n-2))
    CycleParams(3, F(8), F(199, 100))  # just inside


def test_cycle_weight_identities():
    for n in range(3, 11):
        for w_max in (F(8), F(5, 2)):
            for eps in (w_max / 33, w_max / 64, w_max / 1000):
                params = CycleParams(n, w_max, eps)
                inst = gen_cycle(params, embed=True)
                w_opt = matching_weight(inst, optimal_matching(inst))
                w_sub = matching_weight(inst, suboptimal_matching(inst))
                assert w_opt == n * w_max / 2
                assert w_sub == w_opt - eps


def test_bare_cycle_has_only_cycle_edges():
    inst = gen_cycle(CycleParams(4, F(8), F(1, 2)))
    present = sum(1 for row in inst.weights for w in row if w is not None)
    assert present == 2 * 4
    assert any(None in row for row in inst.scaled_weights())


def test_embedded_cycle_light_edges():
    inst = gen_cycle(CycleParams(4, F(8), F(1, 2)), embed=True)
    assert all(None not in row for row in inst.scaled_weights())
    assert inst.weights[0][1] == F(-16)
    assert inst.weights[0][3] == F(8)  # the heavy edge
    assert inst.weights[0][0] == F(4)


def test_select_primes_known_windows():
    assert select_primes(16, 2) == (5, 7)
    assert select_primes(30, 2) == (11, 13)
    assert select_primes(11, 2) == (3, 5)


def test_select_primes_open_interval_and_shortage():
    # Endpoints are excluded: for n=10, c=1 the interval is (5, 10).
    assert select_primes(10, 1) == (7,)
    with pytest.raises(ParameterError):
        select_primes(9, 3)
    with pytest.raises(ParameterError):
        select_primes(0, 1)


def test_select_primes_matches_sympy():
    # Trial division against sympy's primes, shortages (ParameterError) included.
    shortages = 0
    for n in range(1, 300):
        for c in range(1, 7):
            lo, hi = F(n, 2 * c), F(n, c)
            want = [p for p in primerange(1, n + 1) if lo < p < hi]
            if len(want) < c:
                shortages += 1
                with pytest.raises(ParameterError):
                    select_primes(n, c)
            else:
                assert select_primes(n, c) == tuple(want[:c])
    assert shortages


def test_default_cycle_count():
    assert default_cycle_count(16) == 1
    assert default_cycle_count(400) == 4
    with pytest.raises(ParameterError):
        default_cycle_count(2)


def test_multicycle_structure():
    inst = gen_multicycle(16, F(8), F(1, 100), c=2)
    meta = inst.meta
    assert meta["primes"] == [5, 7]
    assert meta["cycles"] == [
        {"offset": 0, "half_length": 5},
        {"offset": 5, "half_length": 7},
    ]
    # Pads occupy the remaining 4 diagonal slots at weight w_max/2.
    assert [tuple(e) for e in meta["edges"]["pad"]] == [
        (12, 12), (13, 13), (14, 14), (15, 15)
    ]
    assert inst.weights[12][12] == F(4)
    assert all(None not in row for row in inst.scaled_weights())
    # Off-block entries are light.
    assert inst.weights[0][10] == F(-16)


def test_multicycle_optimum_weight():
    inst = gen_multicycle(16, F(8), F(1, 100), c=2)
    m, w = mwm_hungarian(inst)
    assert w == 16 * F(8) / 2
    assert m.pairs == optimal_matching(inst).pairs


def test_multicycle_eps_constraint_uses_largest_prime():
    # Largest prime 7 requires eps < 8/20.
    gen_multicycle(16, F(8), F(39, 100), c=2)
    with pytest.raises(ParameterError):
        gen_multicycle(16, F(8), F(2, 5), c=2)


def test_failure_window_values():
    assert failure_window(16, 2, F(8), F(1, 100)) == 4
    # The eps side can be the minimum instead.
    assert failure_window(16, 2, F(8), F(1, 2)) == 1
    # floor((30/4)^1) = 7 for c=2 at n=30.
    assert failure_window(30, 2, F(8), F(1, 10**6)) == 7
    with pytest.raises(ParameterError):
        failure_window(16, 2, F(8), F(0))
