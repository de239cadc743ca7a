"""Outside-in benchmark of bpmatching: one workload per process.

    python3 bench/run.py --workload converge-dense --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports bpmatching from ``src/``
there and writes only under ``.bench_out/``.  Each workload is a set of
equal units (one user-level call each), repeated round-robin for
``--seconds``; every repeat's output is checked.  The last line of stdout
is one JSON object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  See bench/README.md.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("converge-dense", "sweep-bare", "approx-curve", "oracle-check")
#: Every unit runs at least this often, however short ``--seconds`` is.
MIN_ROUNDS = 3
#: Set-ups timed, each in a fresh process.
SETUP_PROBES = 7
#: Runs of each calibration routine between measured calls, and the
#: seconds the three routines take together at the reference CPU speed
#: (about their median on the 2-vCPU machine where the baseline in
#: bench/README.md was recorded).
CHUNKS = 3
REFERENCE_S = 0.008
END_TO_END_UNITS = {"setup_s": "s", "result_s": "s", "bp_iters_per_s": "1/s",
                    "peak_rss_mib": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time this process's set-up and print it (used for set-up probes)")
    return p.parse_args(argv)


def import_program():
    """Import bpmatching from this checkout's src/, or exit with code 2."""
    if not (SRC / "bpmatching" / "__init__.py").is_file():
        print(f"error: no bpmatching package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bpmatching

    if Path(bpmatching.__file__).resolve().parent != SRC / "bpmatching":
        print(f"error: imported bpmatching from {bpmatching.__file__}", file=sys.stderr)
        sys.exit(2)


def run_unit(unit, tally, span=None):
    """Time one call of ``unit`` and check it; the time, or None if it failed."""
    try:
        with span(unit.name) if span else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = unit.call()
            elapsed = time.perf_counter() - t0
        failures = unit.check(result)
    except Exception:  # a raising unit counts as failed; the run goes on
        failures = [f"{unit.name} raised:\n{traceback.format_exc()}"]
    tally.record(unit.ops, failures)
    return None if failures else elapsed


def _calibration_lists():
    rows = [[(i * 7 + j * 3) % 11 for j in range(30)] for i in range(30)]
    for _ in range(12):
        top = [max(r) for r in rows]
        rows = [[v - top[j] + 1 for j, v in enumerate(r)] for r in rows]


def _calibration_dicts():
    d = {}
    for k in range(6000):
        d[str(k)] = [k, k + 1]
    return sum(len(v) for v in d.values())


def _calibration_fractions():
    s = Fraction(0)
    for k in range(1, 800):
        s += Fraction(1, k % 31 + 1)
    return s


CALIBRATION = (_calibration_lists, _calibration_dicts, _calibration_fractions)


def _calibrate():
    """Times of CHUNKS runs of each calibration routine."""
    out = tuple([] for _ in CALIBRATION)
    for _ in range(CHUNKS):
        for times, routine in zip(out, CALIBRATION):
            t0 = time.perf_counter()
            routine()
            times.append(time.perf_counter() - t0)
    return out


class ScaledClock:
    """Converts measured seconds to seconds at the reference CPU speed.

    The machine's speed drifts by up to 2x within seconds.  Three fixed
    pure-Python routines (nested lists, a dict of short strings, Fraction
    sums: the program's kinds of work) are timed before and after each
    measured call, and the call's time is scaled by REFERENCE_S over the
    sum of their median times around it.
    """

    def __init__(self):
        self._before = _calibrate()

    def scale(self, elapsed):
        after = _calibrate()
        speed = sum(statistics.median(t0 + t1) for t0, t1 in zip(self._before, after))
        self._before = after
        return elapsed * REFERENCE_S / speed


def measure(units, seconds, tally):
    """Repeat the units round-robin for ``seconds``; scaled times of passing calls."""
    times = {u.name: [] for u in units}
    clock = ScaledClock()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for u in units:
            elapsed = run_unit(u, tally)
            scaled = clock.scale(elapsed or 0.0)
            if elapsed is not None:
                times[u.name].append(scaled)
        rounds += 1
    return times, rounds


def unit_seconds(times):
    """Sum over units of each unit's median scaled time (units that passed)."""
    return sum(statistics.median(ts) for ts in times.values() if ts)


def setup_probe(args):
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def end_to_end(args, units, tally):
    setups = []
    for _ in range(SETUP_PROBES):
        clock = ScaledClock()
        setups.append(clock.scale(setup_probe(args)))
    times, rounds = measure(units, args.seconds, tally)
    result_s = unit_seconds(times)
    iters = sum(u.bp_iters for u in units if times[u.name])
    for u in units:
        ts = times[u.name]
        print(f"# {u.name}: median {statistics.median(ts) if ts else math.nan:.6f} s"
              f" of {len(ts)} passing repeats ({rounds} attempted)")
    print(f"# setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    return {
        "setup_s": statistics.median(setups),
        "result_s": result_s,
        "bp_iters_per_s": iters / result_s if result_s else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(args, units, tally, work, build):
    """Per-layer metrics: half the time untraced, half in traced passes.

    A traced pass runs the workload's set-up once more and every unit once,
    all under the tracer.  Span metrics are medians over passes; per-call
    percentiles pool the calls of every pass.  The overhead compares the
    units' median scaled times with and without tracing.  The last pass's
    spans are written to .bench_out/.
    """
    from tracer import Tracer

    half = args.seconds / 2
    untraced, _ = measure(units, half, tally)
    tracer = Tracer()
    tracer.install()
    passes, traced_times = [], {u.name: [] for u in units}
    try:
        deadline = time.perf_counter() + half
        while len(passes) < MIN_ROUNDS or time.perf_counter() < deadline:
            tracer.start_pass()
            with tracer.span("setup"):
                pass_units = build(args.workload, args.seed, work, tally)
            clock = ScaledClock()
            for u in pass_units:
                elapsed = run_unit(u, tally, tracer.span)
                scaled = clock.scale(elapsed or 0.0)
                if elapsed is not None:
                    traced_times[u.name].append(scaled)
            passes.append(tracer.end_pass())
    finally:
        tracer.uninstall()
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics.update(tracer.percentiles_us())
    both = [u.name for u in units if untraced[u.name] and traced_times[u.name]]
    base = unit_seconds({name: untraced[name] for name in both})
    metrics["trace.overhead_frac"] = (
        unit_seconds({name: traced_times[name] for name in both}) / base - 1 if base else 0.0
    )
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(trace_path)
    print(f"# {len(passes)} traced passes; spans in {trace_path.relative_to(ROOT)}")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import workloads

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        tally = workloads.Tally()
        units = workloads.build(args.workload, args.seed, work, tally)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            import tracer

            values = traced(args, units, tally, work, workloads.build)
            units_of = tracer.layer_metric_units()
        else:
            values = end_to_end(args, units, tally)
            units_of = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in tally.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units_of.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
