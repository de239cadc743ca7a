"""Command-line front end: generation, BP runs, and experiment sweeps.

Exit codes: 0 success, 2 precondition violation, 3 horizon exhausted,
4 oracle cap exceeded.  Rational flags are 'P/Q' strings.  Results are CSV
plus a JSON manifest (config, instance hashes, bound values) so runs are
byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .core import (
    HorizonExhausted,
    Instance,
    MissingEdgeError,
    OracleCapExceeded,
    ParameterError,
    format_rational,
    parse_rational,
)
from . import engine, generators, oracles, trees
from .approx import approximation_ratio, build_conflict_graph, complete
from .engine import beliefs as engine_beliefs
from .engine import partial_bp_matching

TRACE_HEADER = [
    "t",
    "pairs",
    "unresolved",
    "is_reference",
    "completion_ratio_num",
    "completion_ratio_den",
]


def _load_instance(path: str) -> Instance:
    return Instance.from_json(Path(path).read_text(encoding="utf-8"))


def _reference_matching(inst: Instance):
    meta = inst.meta or {}
    if meta.get("edges"):
        return generators.optimal_matching(inst)
    m, _ = oracles.mwm_hungarian(inst)
    return m


def _horizon(inst: Instance, explicit: Optional[int], cap: int = 10**6) -> int:
    """The explicit horizon, else the certified one if it is at most ``cap``."""
    if explicit is not None:
        if explicit < 1:
            raise ParameterError("horizon must be >= 1")
        return explicit
    horizon = engine.certified_horizon(inst)
    if horizon > cap:
        raise HorizonExhausted(
            f"certified horizon {horizon} exceeds the cap {cap}; "
            "pass an explicit horizon"
        )
    return horizon


def cmd_gen(args: argparse.Namespace) -> int:
    w_max = parse_rational(args.wmax)
    eps = parse_rational(args.eps)
    if args.family == "cycle":
        inst = generators.gen_cycle(
            generators.CycleParams(n=args.n, w_max=w_max, eps=eps),
            embed=args.embed,
        )
    else:
        inst = generators.gen_multicycle(args.n, w_max, eps, c=args.c)
    Path(args.output).write_text(inst.to_json() + "\n", encoding="utf-8")
    print(f"wrote {args.output} (hash {inst.content_hash()[:16]})")
    return 0


def _write_trace(
    inst: Instance,
    horizon: int,
    out,
    with_ratio: bool,
) -> None:
    reference = _reference_matching(inst)
    ratio_den: Optional[Fraction] = None
    if with_ratio:
        _, opt_weight = oracles.mwm_hungarian(inst)
        if opt_weight <= 0:
            raise ParameterError("approximation ratios need a positive optimum")
    writer = csv.writer(out)
    writer.writerow(TRACE_HEADER)
    for snap in engine.run_to_horizon(inst, horizon):
        partial = partial_bp_matching(snap)
        unresolved = sum(1 for b in snap.left_belief if b is None) + sum(
            1 for b in snap.right_belief if b is None
        )
        num = den = ""
        if with_ratio:
            ratio = approximation_ratio(inst, complete(inst, snap), opt_weight)
            num, den = str(ratio.numerator), str(ratio.denominator)
        writer.writerow(
            [
                snap.iteration,
                len(partial.pairs),
                unresolved,
                int(snap.encodes(reference)),
                num,
                den,
            ]
        )


def cmd_trace(args: argparse.Namespace) -> int:
    """``bp run`` and ``approx``: per-iteration trace CSV, ratios for ``approx``."""
    inst = _load_instance(args.instance)
    horizon = _horizon(inst, args.iters)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            _write_trace(inst, horizon, fh, with_ratio=args.with_ratio)
    else:
        _write_trace(inst, horizon, sys.stdout, with_ratio=args.with_ratio)
    return 0


def cmd_bp_converge(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    horizon = _horizon(inst, args.horizon)
    reference = _reference_matching(inst)
    t = engine.convergence_time(inst, reference, horizon)
    print(f"converged at t={t} (horizon {horizon})")
    return 0


def _manifest(path: str, config: dict, instances: list[Instance], bounds: dict) -> None:
    doc = {
        "config": config,
        "instance_hashes": [inst.content_hash() for inst in instances],
        "bounds": bounds,
    }
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def cmd_exp_convergence(args: argparse.Namespace) -> int:
    """Convergence-time sweep over heavy-cycle instances with bound verdicts."""
    w_max = parse_rational(args.wmax)
    rows = []
    instances = []
    for eps_text in args.eps:
        eps = parse_rational(eps_text)
        params = generators.CycleParams(n=args.n, w_max=w_max, eps=eps)
        inst = generators.gen_cycle(params, embed=args.embed)
        instances.append(inst)
        lower = Fraction(args.n) * w_max / (2 * eps)
        upper = Fraction(2 * args.n) * w_max / eps
        horizon = engine.certified_horizon(inst)
        if horizon > args.max_horizon:
            raise HorizonExhausted(
                f"certified horizon {horizon} exceeds --max-horizon {args.max_horizon}"
            )
        t = engine.convergence_time(inst, generators.optimal_matching(inst), horizon)
        verdict = (lower - args.n <= t) and (Fraction(t) <= upper)
        rows.append(
            {
                "instance": inst.content_hash()[:16],
                "n": args.n,
                "w_max": format_rational(w_max),
                "eps": format_rational(eps),
                "T": t,
                "lower_bound": format_rational(lower),
                "upper_bound": format_rational(upper),
                "verdict": "pass" if verdict else "fail",
            }
        )
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    if args.manifest:
        _manifest(
            args.manifest,
            {
                "command": "exp convergence",
                "n": args.n,
                "w_max": format_rational(w_max),
                "eps": [format_rational(parse_rational(e)) for e in args.eps],
                "embed": args.embed,
            },
            instances,
            {
                "lower": [r["lower_bound"] for r in rows],
                "upper": [r["upper_bound"] for r in rows],
            },
        )
    failures = [r for r in rows if r["verdict"] != "pass"]
    print(f"{len(rows)} instances, {len(failures)} outside the bound sandwich")
    return 0 if not failures else 3


def _failed_cycles(inst: Instance, snap) -> int:
    """Cycles whose restriction of the partial BP matching is not perfect."""
    partial = partial_bp_matching(snap)
    pairs = partial.pairs.pairs
    failed = 0
    for cyc in (inst.meta or {}).get("cycles", ()):
        off, half = cyc["offset"], cyc["half_length"]
        covered = {
            i for i, j in pairs if off <= i < off + half and off <= j < off + half
        }
        if len(covered) < half:
            failed += 1
    return failed


def cmd_exp_approx(args: argparse.Namespace) -> int:
    """Completion-ratio curve on a multi-cycle instance."""
    w_max = parse_rational(args.wmax)
    eps = parse_rational(args.eps)
    inst = generators.gen_multicycle(args.n, w_max, eps, c=args.c)
    meta = inst.meta or {}
    c = meta["c"]
    window = generators.failure_window(args.n, c, w_max, eps)
    _, opt_weight = oracles.mwm_hungarian(inst)
    horizon = args.iters if args.iters else int(window)
    rows = []
    for snap in engine.run_to_horizon(inst, horizon):
        partial = partial_bp_matching(snap)
        unresolved = sum(1 for b in snap.left_belief if b is None) + sum(
            1 for b in snap.right_belief if b is None
        )
        ratio = approximation_ratio(inst, complete(inst, snap), opt_weight)
        rows.append(
            {
                "instance": inst.content_hash()[:16],
                "t": snap.iteration,
                "pairs": len(partial.pairs),
                "unresolved": unresolved,
                "in_window": int(snap.iteration <= window),
                "failed_cycles": _failed_cycles(inst, snap),
                "ratio_num": ratio.numerator,
                "ratio_den": ratio.denominator,
            }
        )
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    if args.manifest:
        _manifest(
            args.manifest,
            {
                "command": "exp approx",
                "n": args.n,
                "w_max": format_rational(w_max),
                "eps": format_rational(eps),
                "c": c,
                "primes": meta["primes"],
            },
            [inst],
            {"window": format_rational(window), "opt_weight": format_rational(opt_weight)},
        )
    print(f"{len(rows)} iterations written to {args.output}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.oracle_cmd == "mwm":
        inst = _load_instance(args.instance)
        solver = oracles.mwm_bruteforce if args.brute else oracles.mwm_hungarian
        m, w = solver(inst)
        print(f"weight {format_rational(w)}")
        for i, j in m.sorted_pairs():
            print(f"  a{i + 1} - b{j + 1}")
    elif args.oracle_cmd == "tree-belief":
        inst = _load_instance(args.instance)
        node = args.node.strip().lower()
        side, idx = node[0], int(node[1:]) - 1
        v = idx if side == "a" else inst.n + idx
        belief = trees.oracle_belief(inst, v, args.depth)
        if belief is trees.TIE:
            print("tie")
        else:
            other = "b" if side == "a" else "a"
            print(f"{other}{belief + 1}")
    elif args.oracle_cmd == "nibbling":
        delta = trees.nibbling_delta(
            args.n, parse_rational(args.wmax), parse_rational(args.eps), args.l
        )
        print(format_rational(delta))
    elif args.oracle_cmd == "gap":
        inst = _load_instance(args.instance)
        print(format_rational(oracles.uniqueness_gap(inst)))
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--embed", action="store_true")
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
    p.add_argument("--max-horizon", type=int, default=10**6)
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


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, MissingEdgeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HorizonExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OracleCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
