"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py              # or: python3 -m pytest bench/smoke.py

They check that every workload runs and passes its checks, that metric
names agree with BENCHMARK.json, that a wrong expected value or a failing
call is counted as a failed operation rather than crashing the run, and
that the benchmark refuses to run without the program's sources.
"""

import argparse
import copy
import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_program()
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_HORIZON = workloads.certified_horizon(
    workloads.TINY["converge-dense"]["n"], workloads.TINY["converge-dense"]["eps"]
)


SMOKE = run.OUT / "smoke"


def _work(name):
    path = SMOKE / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _tiny(name, seed=1, expected=None):
    tally = workloads.Tally()
    units = workloads.build(name, seed, _work(name), tally, sizes=workloads.TINY,
                            expected=expected)
    times, rounds = run.measure(units, 0, tally)
    return tally, units, times, rounds


def test_every_workload_runs_clean_at_tiny_size():
    for name in run.WORKLOADS:
        tally, units, times, rounds = _tiny(name)
        assert tally.failed == 0, (name, tally.messages)
        assert tally.attempted >= rounds * len(units)
        assert all(len(ts) == rounds and min(ts) > 0 for ts in times.values()), (name, times)


def test_second_seed_runs_clean_and_seed_fixes_inputs():
    for seed in (1, 2):
        tally, *_ = _tiny("oracle-check", seed=seed)
        assert tally.failed == 0, (seed, tally.messages)

    def inputs(seed):
        work = _work(f"inputs-{seed}")
        workloads.build("oracle-check", seed, work, workloads.Tally(), sizes=workloads.TINY)
        return [(work / f"{group}.json").read_bytes() for group in ("tied", "rational", "dense")]

    assert inputs(3) == inputs(3) != inputs(4)


def test_metric_names_match_benchmark_json():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == tracer.layer_metric_units()
    for name in [*end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def test_wrong_expected_value_counts_as_failed():
    expected = copy.deepcopy(workloads.EXPECTED)
    key = workloads.cycle_key(workloads.TINY["converge-dense"]["n"],
                              workloads.TINY["converge-dense"]["eps"], embed=True)
    expected[key]["T"] += 1
    tally, _, times, rounds = _tiny("converge-dense", expected=expected)
    assert tally.failed == rounds
    assert times == {"bp-converge": []}


def test_raising_call_and_nonzero_exit_count_as_failed():
    tally = workloads.Tally()
    missing = SMOKE / "missing.json"
    raising = workloads.Unit(
        "raises", lambda: workloads.run_cli(["bp", "converge", "--instance", str(missing)]),
        lambda result: [])
    refused = workloads.Unit(
        "exit-2", lambda: workloads.run_cli(["exp", "convergence", "--n", "2", "--wmax", "8",
                                             "--eps", "1/10", "-o", str(missing)]),
        workloads._cli_failure)
    assert run.run_unit(raising, tally) is None
    assert run.run_unit(refused, tally) is None
    assert (tally.attempted, tally.failed) == (2, 2)


def test_optimality_certificate_rejects_a_suboptimal_matching():
    from fractions import Fraction

    inst = workloads.core.Instance([[Fraction(w) for w in row]
                                    for row in ([1, 5, 0], [5, 1, 0], [0, 0, 2])])
    identity = workloads.core.Matching.of([(0, 0), (1, 1), (2, 2)])
    swapped = workloads.core.Matching.of([(0, 1), (1, 0), (2, 2)])
    assert not workloads.is_max_weight(inst, identity)
    assert workloads.is_max_weight(inst, swapped)


def test_tracer_wraps_names_bound_by_import_and_restores_them():
    from bpmatching import approx, cli, core, oracles

    def bindings():
        return [cli.complete, cli.approximation_ratio, cli.build_conflict_graph,
                cli.partial_bp_matching, cli.engine_beliefs, approx.partial_bp_matching,
                oracles.matching_weight, core.Instance.__dict__["from_json"].__func__,
                core.Instance.content_hash]

    before = bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(f, "__wrapped__", None) is g for f, g in zip(bindings(), before))
    finally:
        t.uninstall()
    assert bindings() == before


def test_traced_pass_reproduces_hot_spots():
    build = functools.partial(workloads.build, sizes=workloads.TINY)
    expect = {
        "converge-dense": ("engine.step.calls", TINY_HORIZON),
        "approx-curve": ("core.content_hash.calls", workloads.TINY["approx-curve"]["iters"]),
        "oracle-check": ("oracles.mwm_bruteforce.calls", 1),
    }
    for name, (metric, at_least) in expect.items():
        args = argparse.Namespace(workload=name, seed=1, seconds=0)
        tally = workloads.Tally()
        work = _work(name)
        units = build(name, 1, work, tally)
        metrics = run.traced(args, units, tally, work, build)
        assert tally.failed == 0, (name, tally.messages)
        assert set(metrics) == set(tracer.layer_metric_units())
        assert metrics[metric] >= at_least, (name, metric, metrics[metric])
        if name == "converge-dense":
            assert metrics[metric] == TINY_HORIZON
        assert metrics["trace.overhead_frac"] > -1


def test_result_line_of_a_real_run():
    cmd = [sys.executable, "bench/run.py", "--workload", "converge-dense", "--seed", "5",
           "--seconds", "0", "--trace", "0"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources():
    bare = _work("bare")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "converge-dense",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except Exception as exc:  # report every failing test, then exit nonzero
                failed += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"ok   {name}")
    shutil.rmtree(SMOKE, ignore_errors=True)
    sys.exit(1 if failed else 0)
