"""Spans around bpmatching's public functions, installed from outside.

``Tracer.install()`` replaces each traced function by a timing wrapper
wherever a bpmatching module binds it.  Module attributes alone would miss
calls through names bound by ``from ... import``: ``cli`` binds
``complete``, ``approximation_ratio``, ``build_conflict_graph``,
``partial_bp_matching`` and ``engine_beliefs``; ``approx`` binds
``partial_bp_matching``; ``approx`` and ``oracles`` bind ``matching_weight``.
``Instance.content_hash``, ``to_json`` and ``from_json`` are patched on the
class.  No source file changes.

A span is ``[name, parent index, start, end]`` in one in-memory list that
holds one traced pass; the caller writes the last pass out when the run
ends.  A layer's self time is its
span time minus the time its direct child spans cover.  Counters are
updated after a call returns, inside a ``trace.bookkeeping`` span, so that
their cost is excluded from every layer's self time and shows only in the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

BOOKKEEPING = "trace.bookkeeping"


def _count_messages(c: Counter, args: tuple, state) -> None:
    values = [v for table in (state.to_right, state.to_left)
              for row in table for v in row if v is not None]
    c["engine.msg_updates"] += len(values)
    if values:
        bits = max(max(values).bit_length(), min(values).bit_length())
        c["engine.msg_max_bits"] = max(c["engine.msg_max_bits"], bits)


def _count_completion(c: Counter, args: tuple, result) -> None:
    inst, snap = args[0], args[1]
    c["approx.branches"] += len(result.branch_records)
    c["approx.greedy_pairs"] += len(result.greedy_pairs)
    mutual = sum(1 for i, j in enumerate(snap.left_belief)
                 if j is not None and snap.right_belief[j] == i)
    c["approx.bp_covered_nodes"] += 2 * mutual
    c["approx.offered_nodes"] += 2 * inst.n


def _count_perms(c: Counter, args: tuple, result) -> None:
    # mwm_bruteforce enumerates every permutation; it has no early exit.
    c["oracles.mwm_bruteforce.perms"] += math.factorial(args[0].n)


def _count_unrolled(c: Counter, args: tuple, tree) -> None:
    c["trees.unroll.nodes"] += tree.node_count()


def _count_dp_nodes(c: Counter, args: tuple, result) -> None:
    c["trees.dp_nodes"] += args[0].node_count()


#: (span name, module, function, counter hook) for every traced function.
FUNCTIONS = [
    ("engine.step", "bpmatching.engine", "step", _count_messages),
    ("engine.beliefs", "bpmatching.engine", "beliefs", None),
    ("engine.convergence_time", "bpmatching.engine", "convergence_time", None),
    ("engine.partial_bp_matching", "bpmatching.engine", "partial_bp_matching", None),
    ("core.matching_weight", "bpmatching.core", "matching_weight", None),
    ("approx.complete", "bpmatching.approx", "complete", _count_completion),
    ("approx.approximation_ratio", "bpmatching.approx", "approximation_ratio", None),
    ("approx.build_conflict_graph", "bpmatching.approx", "build_conflict_graph", None),
    ("oracles.uniqueness_gap", "bpmatching.oracles", "uniqueness_gap", None),
    ("oracles.second_best_weight", "bpmatching.oracles", "second_best_weight", None),
    ("oracles.mwm_hungarian", "bpmatching.oracles", "mwm_hungarian", None),
    ("oracles.mwm_bruteforce", "bpmatching.oracles", "mwm_bruteforce", _count_perms),
    ("trees.unroll", "bpmatching.trees", "unroll", _count_unrolled),
    ("trees.max_t_matching", "bpmatching.trees", "max_t_matching", _count_dp_nodes),
    ("generators.gen", "bpmatching.generators", "gen_cycle", None),
    ("generators.gen", "bpmatching.generators", "gen_multicycle", None),
    ("cli", "bpmatching.cli", "main", None),
]

#: (span name, method of core.Instance) for the traced methods.
METHODS = [
    ("core.content_hash", "content_hash"),
    ("core.to_json", "to_json"),
    ("core.from_json", "from_json"),
]

#: Per-layer metrics of one traced pass, in report order, with units.
CALLS = ["engine.step", "engine.beliefs", "core.content_hash", "core.matching_weight",
         "approx.complete", "oracles.uniqueness_gap", "oracles.mwm_hungarian",
         "oracles.mwm_bruteforce", "trees.unroll", "trees.max_t_matching"]
SELF = ["engine.step", "engine.beliefs", "engine.convergence_time",
        "engine.partial_bp_matching", "core.content_hash", "core.from_json",
        "core.to_json", "core.matching_weight", "approx.complete",
        "approx.approximation_ratio", "oracles.uniqueness_gap",
        "oracles.second_best_weight", "oracles.mwm_hungarian",
        "oracles.mwm_bruteforce", "trees.unroll", "trees.max_t_matching",
        "generators.gen", "cli"]
PERCENTILES = [("engine.step", 50), ("engine.step", 99), ("engine.beliefs", 50),
               ("approx.complete", 50)]
COUNTS = ["engine.msg_updates", "approx.branches", "approx.greedy_pairs",
          "oracles.mwm_bruteforce.perms", "trees.unroll.nodes"]


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {f"{name}.calls": "count" for name in CALLS}
    units.update({f"{name}.self_s": "s" for name in SELF})
    units.update({f"{name}.p{q}_us": "us" for name, q in PERCENTILES})
    units.update({name: "count" for name in COUNTS})
    units.update({
        "engine.msg_updates_per_s": "1/s",
        "engine.msg_max_bits": "bit",
        "approx.bp_cover_frac": "ratio",
        "trees.dp_nodes_per_s": "1/s",
        "trace.overhead_frac": "ratio",
    })
    return units


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._durations: dict[str, list[float]] = {name: [] for name, _ in PERCENTILES}

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (set-up, one unit)."""
        rec = [name, self._stack[-1], time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count is not None:
                book = [BOOKKEEPING, stack[-1], clock(), 0.0]
                spans.append(book)
                count(self.counters, args, result)
                book[3] = clock()
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and method; ``uninstall`` undoes it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "bpmatching" or key.startswith("bpmatching."))]
        for name, module, attr, count in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        instance = sys.modules["bpmatching.core"].Instance
        for name, attr in METHODS:
            original = instance.__dict__[attr]
            self._restore.append((instance, attr, original))
            if isinstance(original, classmethod):
                setattr(instance, attr, classmethod(self.wrap(name, original.__func__)))
            else:
                setattr(instance, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def start_pass(self) -> None:
        """Drop the previous pass's spans and counters."""
        del self.spans[:]  # in place: the wrappers hold this list
        self.counters.clear()

    def end_pass(self) -> dict[str, float]:
        """Per-layer metrics of the pass just run; keeps its call times."""
        spans, counters = self.spans, self.counters
        covered: defaultdict[int, float] = defaultdict(float)
        for name, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        for k, (name, _, start, end) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - covered[k]
            if name in self._durations:
                self._durations[name].append(end - start)
        out = {f"{name}.calls": float(calls[name]) for name in CALLS}
        out.update({f"{name}.self_s": self_s[name] for name in SELF})
        out.update({name: float(counters[name]) for name in COUNTS})
        step_s, dp_s = self_s["engine.step"], self_s["trees.max_t_matching"]
        offered = counters["approx.offered_nodes"]
        out["engine.msg_updates_per_s"] = counters["engine.msg_updates"] / step_s if step_s else 0.0
        out["engine.msg_max_bits"] = float(counters["engine.msg_max_bits"])
        out["approx.bp_cover_frac"] = counters["approx.bp_covered_nodes"] / offered if offered else 0.0
        out["trees.dp_nodes_per_s"] = counters["trees.dp_nodes"] / dp_s if dp_s else 0.0
        return out

    def percentiles_us(self) -> dict[str, float]:
        """Per-call span-time percentiles over every pass so far."""
        out = {}
        for name, q in PERCENTILES:
            values = self._durations[name]
            if len(values) > 1:
                out[f"{name}.p{q}_us"] = statistics.quantiles(values, n=100)[q - 1] * 1e6
            else:
                out[f"{name}.p{q}_us"] = values[0] * 1e6 if values else 0.0
        return out

    def write(self, path) -> None:
        """Write the current pass's spans as gzipped JSON lines.

        Times are seconds from the first span's start.
        """
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for k, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "parent": parent, "name": name,
                                     "start_s": round(start - t0, 9),
                                     "end_s": round(end - t0, 9)}) + "\n")
