"""Command-line front end: generation, BP runs, and experiment sweeps.

Exit codes: 0 success, 2 precondition violation, 3 horizon exhausted or
an ``exp convergence`` row outside the bound sandwich, 4 oracle cap
exceeded, 141 (128 + SIGPIPE) stdout closed by its reader.  Every output
file (``-o``, ``--csv``, ``--manifest``) is opened before any work, as a
temporary file beside its path (a symlink is written through), so a path
the system refuses, two outputs naming one file, or an output naming the
``--instance`` file, exits 2 with nothing written; the files replace their
paths only when the command returns, all together, else none of them.
Rational flags are 'P/Q' strings.  Results are CSV plus a JSON manifest
(config, instance hashes, bound values) so runs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import tempfile
from csv import DictWriter, writer as csv_writer
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional, TextIO

from .core import (
    HorizonExhausted,
    Instance,
    Matching,
    MissingEdgeError,
    OracleCapExceeded,
    ParameterError,
    format_rational,
    parse_rational,
)
from . import engine, generators, oracles, trees
from .approx import approximation_ratio, build_conflict_graph, complete
from .engine import beliefs as engine_beliefs, partial_bp_matching

TRACE_HEADER = ["t", "pairs", "unresolved", "is_reference",
                "completion_ratio_num", "completion_ratio_den"]

APPROX_HEADER = ["instance", "t", "pairs", "unresolved", "in_window", "failed_cycles",
                 "ratio_num", "ratio_den"]


def _load_instance(path: str) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read instance {path}: {exc}") from exc
    return Instance.from_json(text)


#: The largest certified horizon a run steps through.
_HORIZON_CAP = 10**6


def _horizon(inst: Instance, explicit: Optional[int],
             flag: Optional[str] = None) -> tuple[int, Matching, Fraction]:
    """The explicit horizon, else the certified one if it is at most the cap
    (the error names ``flag``, the command's explicit horizon, if it has one);
    with the optimum matching and its weight, from one Hungarian solve."""
    if explicit is not None:
        if explicit < 1:
            raise ParameterError("horizon must be >= 1")
        return (explicit, *oracles.mwm_hungarian(inst))
    reference, opt_weight, gap = oracles.optimum_and_gap(inst)
    horizon = oracles.certified_horizon(inst, gap, reference)
    if horizon > _HORIZON_CAP:
        hint = f" (an explicit {flag} is not capped)" if flag else ""
        raise HorizonExhausted(
            f"certified horizon {horizon} exceeds the cap {_HORIZON_CAP}{hint}")
    return horizon, reference, opt_weight


def cmd_gen(args: argparse.Namespace, output: TextIO) -> tuple[int, str]:
    w_max = parse_rational(args.wmax)
    eps = parse_rational(args.eps)
    if args.family == "cycle":
        if args.c is not None:
            raise ParameterError("--c applies to --family multicycle only")
        inst = generators.gen_cycle(
            generators.CycleParams(n=args.n, w_max=w_max, eps=eps),
            embed=args.embed,
        )
    else:
        if args.embed:
            raise ParameterError("--embed applies to --family cycle only")
        inst = generators.gen_multicycle(args.n, w_max, eps, c=args.c)
    output.write(inst.to_json() + "\n")
    return 0, f"wrote {args.output} (hash {inst.content_hash()[:16]})"


#: Distinct belief snapshots whose rows ``_trace_rows`` keeps at a time; a
#: belief sequence that cycles through more only costs recomputation.
_ROW_CACHE = 4096


def _trace_rows(
    inst: Instance, horizon: int, reference: Matching, opt_weight: Optional[Fraction],
    cycles: list[tuple[int, int]],
) -> Iterator[tuple[int, tuple]]:
    """(t, row) for t = 1..horizon, where row holds what the beliefs at t
    determine: mutual pairs, unresolved nodes, is_reference, the ``cycles``
    (disjoint index ranges lo..hi-1) that the partial BP matching leaves
    imperfect, and the completion ratio's numerator and denominator (""
    without ``opt_weight``).

    Each distinct snapshot is evaluated once and its row reused.  With
    ``opt_weight`` one ``complete`` call gives the mutual pairs and the
    weight the ratio divides; without it the completion never runs.
    """
    want = engine.reference_beliefs(reference, inst.n)
    owner = [len(cycles)] * inst.n  # each node's cycle index, len(cycles) for none
    for k, (lo, hi) in enumerate(cycles):
        owner[lo:hi] = [k] * (hi - lo)
    seen: dict[tuple, tuple] = {}
    for snap in engine.run_to_horizon(inst, horizon):
        key = (snap.left_belief, snap.right_belief)
        row = seen.get(key)
        if row is None:
            num = den = ""
            if opt_weight is None:
                mutual = partial_bp_matching(snap).pairs.pairs
            else:
                result = complete(inst, snap)
                mutual, ratio = result.mutual_pairs, approximation_ratio(inst, result, opt_weight)
                num, den = ratio.numerator, ratio.denominator
            inside = [0] * (len(cycles) + 1)
            for i, j in mutual:
                if owner[i] == owner[j]:
                    inside[owner[i]] += 1
            if len(seen) == _ROW_CACHE:
                seen.clear()
            row = seen[key] = (
                len(mutual), key[0].count(None) + key[1].count(None), int(key == want),
                sum(c < hi - lo for c, (lo, hi) in zip(inside, cycles)), num, den,
            )
        yield snap.iteration, row


def cmd_trace(args: argparse.Namespace, csv: Optional[TextIO] = None) -> tuple[int, str]:
    """``bp run`` and ``approx``: per-iteration trace CSV, to stdout without
    ``--csv``; ratios for ``approx``."""
    inst = _load_instance(args.instance)
    horizon, reference, opt_weight = _horizon(inst, args.iters, "--iters")
    if not args.with_ratio:
        opt_weight = None
    elif opt_weight <= 0:
        raise ParameterError("approximation ratios need a positive optimum")
    writer = csv_writer(csv or sys.stdout)
    writer.writerow(TRACE_HEADER)
    for t, (pairs, unresolved, is_reference, _, num, den) in _trace_rows(
        inst, horizon, reference, opt_weight, []
    ):
        writer.writerow([t, pairs, unresolved, is_reference, num, den])
    return 0, ""


def cmd_bp_converge(args: argparse.Namespace) -> tuple[int, str]:
    inst = _load_instance(args.instance)
    horizon, reference, _ = _horizon(inst, args.horizon, "--horizon")
    t = engine.convergence_time(inst, reference, horizon)
    return 0, f"converged at t={t} (horizon {horizon})"


def _manifest(out: TextIO, config: dict, hashes: list[str], bounds: dict) -> None:
    doc = {"config": config, "instance_hashes": hashes, "bounds": bounds}
    out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_exp_convergence(args: argparse.Namespace, output: TextIO,
                        manifest: Optional[TextIO] = None) -> tuple[int, str]:
    """Convergence-time sweep over heavy-cycle instances with bound verdicts."""
    w_max = parse_rational(args.wmax)
    rows, hashes = [], []
    for eps in map(parse_rational, args.eps):
        params = generators.CycleParams(n=args.n, w_max=w_max, eps=eps)
        inst = generators.gen_cycle(params, embed=args.embed)
        hashes.append(inst.content_hash())
        lower = Fraction(args.n) * w_max / (2 * eps)
        upper = Fraction(2 * args.n) * w_max / eps
        horizon, reference, _ = _horizon(inst, None)
        t = engine.convergence_time(inst, reference, horizon)
        verdict = (lower - args.n <= t) and (Fraction(t) <= upper)
        rows.append(
            {
                "instance": hashes[-1][:16],
                "n": args.n,
                "w_max": format_rational(w_max),
                "eps": format_rational(eps),
                "T": t,
                "lower_bound": format_rational(lower),
                "upper_bound": format_rational(upper),
                "verdict": "pass" if verdict else "fail",
            }
        )
    writer = DictWriter(output, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    if manifest:
        _manifest(
            manifest,
            {
                "command": "exp convergence",
                "n": args.n,
                "w_max": format_rational(w_max),
                "eps": [r["eps"] for r in rows],
                "embed": args.embed,
            },
            hashes,
            {
                "lower": [r["lower_bound"] for r in rows],
                "upper": [r["upper_bound"] for r in rows],
            },
        )
    failures = sum(r["verdict"] != "pass" for r in rows)
    return 3 if failures else 0, f"{len(rows)} instances, {failures} outside the bound sandwich"


def cmd_exp_approx(args: argparse.Namespace, output: TextIO,
                   manifest: Optional[TextIO] = None) -> tuple[int, str]:
    """Completion-ratio curve on a multi-cycle instance."""
    w_max = parse_rational(args.wmax)
    eps = parse_rational(args.eps)
    inst = generators.gen_multicycle(args.n, w_max, eps, c=args.c)
    meta = inst.meta
    c = meta["c"]
    window = generators.failure_window(args.n, c, w_max, eps)
    if args.iters is None and window < 1:
        raise ParameterError(
            f"failure window {format_rational(window)} is below one iteration; give --iters")
    horizon, reference, opt_weight = _horizon(
        inst, int(window) if args.iters is None else args.iters)
    cycles = [(b["offset"], b["offset"] + b["half_length"]) for b in meta["cycles"]]
    digest = (content_hash := inst.content_hash())[:16]
    writer = csv_writer(output)
    writer.writerow(APPROX_HEADER)
    for t, (pairs, unresolved, _, failed, num, den) in _trace_rows(
        inst, horizon, reference, opt_weight, cycles
    ):
        writer.writerow([digest, t, pairs, unresolved, int(t <= window), failed, num, den])
    if manifest:
        _manifest(
            manifest,
            {
                "command": "exp approx",
                "n": args.n,
                "w_max": format_rational(w_max),
                "eps": format_rational(eps),
                "c": c,
                "primes": meta["primes"],
            },
            [content_hash],
            {"window": format_rational(window), "opt_weight": format_rational(opt_weight)},
        )
    return 0, f"{horizon} iterations written to {args.output}"


def cmd_oracle(args: argparse.Namespace) -> tuple[int, str]:
    if args.oracle_cmd == "mwm":
        inst = _load_instance(args.instance)
        solver = oracles.mwm_bruteforce if args.brute else oracles.mwm_hungarian
        m, w = solver(inst)
        text = "\n".join([f"weight {format_rational(w)}",
                          *(f"  a{i + 1} - b{j + 1}" for i, j in m.sorted_pairs())])
    elif args.oracle_cmd == "tree-belief":
        inst = _load_instance(args.instance)
        names = [f"{side}{k}" for side in "ab" for k in range(1, inst.n + 1)]
        node = args.node.strip().lower()
        if node not in names:
            raise ParameterError(
                f"--node must be a<k> or b<k>, 1 <= k <= {inst.n}: {args.node!r}")
        belief = trees.oracle_belief(inst, names.index(node), args.depth)
        other = "b" if node[0] == "a" else "a"
        text = "tie" if belief is trees.TIE else f"{other}{belief + 1}"
    elif args.oracle_cmd == "nibbling":
        delta = trees.nibbling_delta(
            args.n, parse_rational(args.wmax), parse_rational(args.eps), args.l
        )
        text = format_rational(delta)
    elif args.oracle_cmd == "gap":
        inst = _load_instance(args.instance)
        text = format_rational(oracles.uniqueness_gap(inst))
    return 0, text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command, built once per process."""
    parser = argparse.ArgumentParser(
        prog="bpmatching",
        description="Exact max-sum BP laboratory for the assignment problem",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate an adversarial instance")
    p.add_argument("--family", choices=["cycle", "multicycle"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--wmax", required=True, help="rational P/Q")
    p.add_argument("--eps", required=True, help="rational P/Q")
    p.add_argument("--c", type=int, default=None, help="cycle count (multicycle only)")
    p.add_argument("--embed", action="store_true",
                   help="fill K_{n,n} with -2*w_max edges (cycle only)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    bp = sub.add_parser("bp", help="run BP on an instance")
    bp_sub = bp.add_subparsers(dest="bp_cmd", required=True)
    p = bp_sub.add_parser("run", help="trace summary CSV")
    p.add_argument("--instance", required=True)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_trace, with_ratio=False)
    p = bp_sub.add_parser("converge", help="measure convergence time")
    p.add_argument("--instance", required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_bp_converge)

    p = sub.add_parser("approx", help="per-iteration completion ratios")
    p.add_argument("--instance", required=True)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_trace, with_ratio=True)

    exp = sub.add_parser("exp", help="experiment sweeps")
    exp_sub = exp.add_subparsers(dest="exp_cmd", required=True)
    p = exp_sub.add_parser("convergence", help="convergence-time sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--wmax", required=True)
    p.add_argument("--eps", nargs="+", required=True)
    p.add_argument("--embed", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_exp_convergence)
    p = exp_sub.add_parser("approx", help="completion-ratio curve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--wmax", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_exp_approx)

    orc = sub.add_parser("oracle", help="ad-hoc oracle queries")
    orc_sub = orc.add_subparsers(dest="oracle_cmd", required=True)
    p = orc_sub.add_parser("mwm")
    p.add_argument("--instance", required=True)
    p.add_argument("--brute", action="store_true")
    p = orc_sub.add_parser("tree-belief")
    p.add_argument("--instance", required=True)
    p.add_argument("--node", required=True, help="e.g. a2 or b5")
    p.add_argument("--depth", type=int, required=True)
    p = orc_sub.add_parser("nibbling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--wmax", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--l", type=int, required=True)
    p = orc_sub.add_parser("gap")
    p.add_argument("--instance", required=True)
    for sp in orc_sub.choices.values():
        sp.set_defaults(func=cmd_oracle)

    return parser


@contextlib.contextmanager
def _outputs(args: argparse.Namespace) -> Iterator[dict[str, TextIO]]:
    """Handles, by flag name, on temporary files beside the output paths'
    targets (a symlink's is the file it names; one that ``--instance`` or an
    earlier flag names is refused), each named "." + its target's name less
    9 bytes + 8 random ones, never longer, so the system refuses both alike.
    They replace their targets together, or go if the block raises."""
    os.umask(umask := os.umask(0o022))
    opened: dict[str, tuple[TextIO, bytes, str]] = {}
    instance = getattr(args, "instance", None)
    try:
        for key in ("output", "csv", "manifest"):
            if (path := getattr(args, key, None)) is None:
                continue
            target = os.path.realpath(path)
            if instance is not None and target == os.path.realpath(instance):
                raise ParameterError(f"cannot write {path}: it names the input instance")
            if any(target == t for _, _, t in opened.values()):
                raise ParameterError(f"cannot write {path}: another output names the same file")
            if not os.path.basename(path) or os.path.isdir(target):
                raise ParameterError(f"cannot write {path}: Is a directory")
            head, name = os.path.split(os.fsencode(target))
            try:
                fd, tmp = tempfile.mkstemp(prefix=b"." + name[:-9], dir=head)
            except OSError as exc:
                raise ParameterError(f"cannot write {path}: {exc.strerror}") from exc
            opened[key] = open(fd, "w", newline="", encoding="utf-8"), tmp, target
            os.fchmod(fd, 0o666 & ~umask)  # the mode open() would give, not 0600
        yield {key: fh for key, (fh, _, _) in opened.items()}
        for fh, _, _ in opened.values():
            fh.close()
        while opened:
            _, (_, tmp, target) = opened.popitem()
            os.replace(tmp, target)
    finally:
        for fh, tmp, _ in opened.values():
            fh.close()
            os.remove(tmp)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _outputs(args) as files:
            code, report = args.func(args, **files)
        if report:
            print(report)
        sys.stdout.flush()
        return code
    except (ParameterError, MissingEdgeError, HorizonExhausted, OracleCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The reader is gone: send what stdout still buffers to /dev/null.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13  # SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
