"""The benchmark's four workloads: set-up, timed units and output checks.

``build(name, seed, work, tally)`` does a workload's set-up (instance
generation, JSON write and load, content-hash checks) and returns its
units.  A unit is one user-level call: a ``bpmatching.cli`` command or a
batch of oracle calls.  Every library call goes through a module attribute
(``cli.main``, ``oracles.mwm_hungarian`` ...) so that the tracer's
wrappers see it; the checks call no library function.

The heavy-cycle and prime multi-cycle families are deterministic, so their
outputs are recorded in ``EXPECTED`` at the commit that introduced the
benchmark.  ``--seed`` draws the random instances of ``oracle-check`` and
the node relabellings of its cycle instances; those results are checked
against an independent route instead of a recorded value.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from bpmatching import cli, core, engine, generators, oracles, trees

W_MAX = 8

SIZES = {
    "converge-dense": {"n": 16, "eps": "1/10"},
    "sweep-bare": {"grid": [(3, "1/500"), (5, "1/200"), (8, "1/100"), (12, "1/50")]},
    "approx-curve": {"n": 24, "c": 2, "eps": "1/1000", "iters": 300},
    "oracle-check": {
        "gap_ns": [8, 14, 20],
        "gap_eps": "1/10",
        "tied_n": 7,
        "tied_count": 4,
        "rational_n": 40,
        "rational_count": 4,
        "dense_ns": [2, 3, 4],
        "dense_count": 3,
        "dense_t": 6,
        "cycle_n": 7,
        "cycle_eps": "1/10",
        "cycle_t": 80,
    },
}

#: Small sizes of the same workloads, for the smoke tests.
TINY = {
    "converge-dense": {"n": 4, "eps": "1/10"},
    "sweep-bare": {"grid": [(3, "1/10"), (4, "1/20")]},
    "approx-curve": {"n": 16, "c": 2, "eps": "1/100", "iters": 20},
    "oracle-check": {
        "gap_ns": [5, 11],
        "gap_eps": "1/10",
        "tied_n": 4,
        "tied_count": 2,
        "rational_n": 6,
        "rational_count": 2,
        "dense_ns": [2, 3],
        "dense_count": 1,
        "dense_t": 3,
        "cycle_n": 3,
        "cycle_eps": "1/10",
        "cycle_t": 10,
    },
}

#: Outputs recorded at the commit that introduced the benchmark.  A change
#: that alters any of them changes what the lab reports, not only its speed.
EXPECTED = {
    "cycle n=16 eps=1/10 embedded": {
        "content_hash": "4921b1ba079bd69f9a2c5a5f0bc31cd052c8ee90eee64e5d5c416415cec90018",
        "T": 642,
    },
    "cycle n=3 eps=1/500 bare": {
        "content_hash": "662e1bc9ee3a3f4439c06d2df337923abf40e279c838640228ca4764268f8baf",
        "T": 6002,
    },
    "cycle n=5 eps=1/200 bare": {
        "content_hash": "6bffabe3a5ea879a483f04ec1492e75a27f5c9b645c2d77732865101e70d63f1",
        "T": 4002,
    },
    "cycle n=8 eps=1/100 bare": {
        "content_hash": "26965a3381722b85c9dc74aa02306edd44e39d9907d5d100f2257eeda5f4f627",
        "T": 3202,
    },
    "cycle n=12 eps=1/50 bare": {
        "content_hash": "a5b53327f2fb375440e23da4b0180a28b0b3a35bb46dd92b487b44b638c089fd",
        "T": 2402,
    },
    "multicycle n=24 c=2 eps=1/1000 iters=300": {
        "content_hash": "c34e8322900ac0311350d7d6f7ecf60c0c0d2208b94013154905ca57800eb837",
        "csv_sha256": "99fe749fe062ef6bd20e6ad74626958eb8b7b03bb4472127b2638e6feb518585",
    },
    "cycle n=8 eps=1/10 embedded": {
        "content_hash": "8efe705ad1d767ed8180c43b0d8b0b44e799361748bcf0b6f589827d70b4451d",
    },
    "cycle n=14 eps=1/10 embedded": {
        "content_hash": "348a6d154733579fd2cbf0cd8cd3aa78c2a3e3c003cb19afae7004c69bb682f1",
    },
    "cycle n=20 eps=1/10 embedded": {
        "content_hash": "efe66fd3a4f08c6eba12e2246ad1225efa2170159051a3313cf972b5e09656e9",
    },
    "cycle n=7 eps=1/10 bare": {
        "content_hash": "2e0f6859769ebf4ae6ec7c3dc1252184738440ca9a9ddc6d416b58b7fad9a2d3",
    },
    # Smoke-test sizes.
    "cycle n=4 eps=1/10 embedded": {
        "content_hash": "1f1b14f35b549738c463c10fa50fd70a23648971a00441eafeea98b7b2d17133",
        "T": 162,
    },
    "cycle n=3 eps=1/10 bare": {
        "content_hash": "e66f29cc7dedf0c018f8145d52e4a4511089995a5e3932d6e613d65239e7c9bb",
        "T": 122,
    },
    "cycle n=4 eps=1/20 bare": {
        "content_hash": "3588958d6eb135b784647dd2b2ffa7675f3434bf0744a0f1123880df8b60917b",
        "T": 322,
    },
    "multicycle n=16 c=2 eps=1/100 iters=20": {
        "content_hash": "5be62d94f0b93b78ad8931a6e3b592bdf400f8f8c214cbb6089e05e5b6567ac1",
        "csv_sha256": "75c1bbd912a7c44d28333360a0473aa931babb0dec1cadeb100764fbe76c95ad",
    },
    "cycle n=5 eps=1/10 embedded": {
        "content_hash": "70c348bd9eb57b37df2bf1b07ec8a6c3d8cf0e9ff8b2e5be4f9cbd9b25ae2ee2",
    },
    "cycle n=11 eps=1/10 embedded": {
        "content_hash": "2d2a1a71fc7ad2277a0db26eb3cd57a89144e8ccfee7443b9353c426ff491c1d",
    },
}


@dataclass
class Unit:
    """One user-level call, timed as a whole, and the check of its output.

    ``check`` returns one message per failed operation, out of ``ops``.
    ``bp_iters`` is the number of synchronous BP steps the call makes.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    ops: int = 1
    bp_iters: int = 0


@dataclass
class Tally:
    """Operations attempted and failed, with the first message of each kind."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, ops: int, failures: list[str]) -> None:
        self.attempted += ops
        self.failed += min(len(failures), ops)
        if failures and len(self.messages) < 20:
            self.messages.append(failures[0])


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` with stdout and stderr captured.

    argparse rejects bad arguments with SystemExit; that becomes the code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def cycle_key(n: int, eps: str, embed: bool) -> str:
    return f"cycle n={n} eps={eps} {'embedded' if embed else 'bare'}"


def certified_horizon(n: int, eps: str) -> int:
    """ceil(2n*w_max/eps), the horizon the CLI runs a cycle instance to."""
    return math.ceil(Fraction(2 * n * W_MAX) / Fraction(eps))


def _hash_check(inst: core.Instance, key: str, expected: dict, tally: Tally) -> None:
    got = inst.content_hash()
    want = expected[key]["content_hash"]
    tally.record(1, [] if got == want else [f"{key}: content_hash {got}, want {want}"])


def _load(path: Path) -> core.Instance:
    return core.Instance.from_json(path.read_text(encoding="utf-8"))


def _cli_failure(result: tuple[int, str, str]) -> list[str]:
    code, _, err = result
    return [] if code == 0 else [f"exit code {code}: {err.strip()[-200:]}"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _converge_dense(seed, work, sizes, expected, tally):
    n, eps = sizes["n"], sizes["eps"]
    key = cycle_key(n, eps, embed=True)
    path = work / "converge.json"
    gen = run_cli(["gen", "--family", "cycle", "--n", str(n), "--wmax", str(W_MAX),
                   "--eps", eps, "--embed", "-o", str(path)])
    tally.record(1, _cli_failure(gen))
    _hash_check(_load(path), key, expected, tally)
    horizon = certified_horizon(n, eps)
    want = f"converged at t={expected[key]['T']} (horizon {horizon})\n"

    def check(result):
        if result[0] != 0:
            return _cli_failure(result)
        return [] if result[1] == want else [f"{key}: output {result[1]!r}, want {want!r}"]

    argv = ["bp", "converge", "--instance", str(path)]
    return [Unit("bp-converge", lambda: run_cli(argv), check, bp_iters=horizon)]


def _sweep_unit(n, eps, work, expected, tally):
    key = cycle_key(n, eps, embed=False)
    inst = generators.gen_cycle(
        generators.CycleParams(n=n, w_max=Fraction(W_MAX), eps=Fraction(eps))
    )
    path = work / f"sweep-{n}.json"
    path.write_text(inst.to_json() + "\n", encoding="utf-8")
    _hash_check(_load(path), key, expected, tally)
    csv_path, manifest = work / f"sweep-{n}.csv", work / f"sweep-{n}.manifest.json"
    want = expected[key]

    def check(result):
        if result[0] != 0:
            return _cli_failure(result)
        rows = csv_path.read_text(encoding="utf-8").splitlines()
        fields = dict(zip(rows[0].split(","), rows[1].split(","))) if len(rows) == 2 else {}
        hashes = json.loads(manifest.read_text(encoding="utf-8"))["instance_hashes"]
        ok = (
            fields.get("T") == str(want["T"])
            and fields.get("verdict") == "pass"
            and fields.get("instance") == want["content_hash"][:16]
            and hashes == [want["content_hash"]]
        )
        return [] if ok else [f"{key}: row {fields}, want T={want['T']} verdict=pass"]

    argv = ["exp", "convergence", "--n", str(n), "--wmax", str(W_MAX), "--eps", eps,
            "-o", str(csv_path), "--manifest", str(manifest)]
    return Unit(f"exp-convergence-n{n}", lambda: run_cli(argv), check,
                bp_iters=certified_horizon(n, eps))


def _sweep_bare(seed, work, sizes, expected, tally):
    return [_sweep_unit(n, eps, work, expected, tally) for n, eps in sizes["grid"]]


def _approx_curve(seed, work, sizes, expected, tally):
    n, c, eps, iters = sizes["n"], sizes["c"], sizes["eps"], sizes["iters"]
    key = f"multicycle n={n} c={c} eps={eps} iters={iters}"
    path = work / "multicycle.json"
    # The first gen_multicycle call pays the lazy sympy import.
    gen = run_cli(["gen", "--family", "multicycle", "--n", str(n), "--wmax", str(W_MAX),
                   "--eps", eps, "--c", str(c), "-o", str(path)])
    tally.record(1, _cli_failure(gen))
    _hash_check(_load(path), key, expected, tally)
    csv_path, manifest = work / "approx.csv", work / "approx.manifest.json"
    want = expected[key]

    def check(result):
        if result[0] != 0:
            return _cli_failure(result)
        got = _sha256(csv_path)
        hashes = json.loads(manifest.read_text(encoding="utf-8"))["instance_hashes"]
        ok = got == want["csv_sha256"] and hashes == [want["content_hash"]]
        return [] if ok else [f"{key}: csv sha256 {got}, want {want['csv_sha256']}"]

    argv = ["exp", "approx", "--n", str(n), "--wmax", str(W_MAX), "--eps", eps,
            "--c", str(c), "--iters", str(iters), "-o", str(csv_path),
            "--manifest", str(manifest)]
    return [Unit("exp-approx", lambda: run_cli(argv), check, bp_iters=iters)]


# -- oracle-check -----------------------------------------------------------


def _relabelled(inst: core.Instance, rng: random.Random) -> core.Instance:
    n = inst.n
    return core.relabel(inst, rng.sample(range(n), n), rng.sample(range(n), n))


def _random_instance(n: int, draw: Callable[[], Fraction]) -> core.Instance:
    return core.Instance([[draw() for _ in range(n)] for _ in range(n)])


def _round_trip(insts: list[core.Instance], path: Path, tally: Tally) -> list[core.Instance]:
    """Write instances as JSON, load them back and check nothing changed."""
    path.write_text(json.dumps([inst.to_json() for inst in insts]), encoding="utf-8")
    loaded = [core.Instance.from_json(text)
              for text in json.loads(path.read_text(encoding="utf-8"))]
    bad = [f"{path.name}: JSON round trip changed instance {k}"
           for k, (a, b) in enumerate(zip(insts, loaded)) if a.weights != b.weights]
    tally.record(len(insts), bad)
    return loaded


def _matching_weight(inst: core.Instance, m: core.Matching) -> Fraction:
    return sum((inst.weights[i][j] for i, j in m.pairs), start=Fraction(0))


def is_max_weight(inst: core.Instance, m: core.Matching) -> bool:
    """Exact optimality certificate for a perfect matching of a dense instance.

    M is maximum iff no cyclic exchange of partners gains weight, i.e. the
    graph on rows with cost(i -> k) = w[i][M(i)] - w[i][M(k)] has no negative
    cycle.  Bellman-Ford on integer weights scaled to a common denominator.
    """
    n = inst.n
    col = m.partner_of_left()
    if len(col) != n or len(set(col.values())) != n:
        return False
    scale = math.lcm(*(w.denominator for row in inst.weights for w in row))
    w = [[int(x * scale) for x in row] for row in inst.weights]
    dist = [0] * n
    for _ in range(n):
        changed = False
        for i in range(n):
            base = dist[i] + w[i][col[i]]
            wi = w[i]
            for k in range(n):
                d = base - wi[col[k]]
                if d < dist[k]:
                    dist[k] = d
                    changed = True
        if not changed:
            return True
    return False


def _belief_unit(name, insts, t_max):
    """Engine beliefs against the computation-tree oracle at t = 1..t_max."""

    def call():
        out = []
        for inst in insts:
            snaps = list(engine.run_to_horizon(inst, t_max))
            tree = [[trees.oracle_belief(inst, v, t) for v in range(2 * inst.n)]
                    for t in range(1, t_max + 1)]
            out.append((inst.n, snaps, tree))
        return out

    def check(result):
        bad = []
        for n, snaps, tree in result:
            for snap, row in zip(snaps, tree):
                engine_row = snap.left_belief + snap.right_belief
                for v, (b, o) in enumerate(zip(engine_row, row)):
                    if (o is trees.TIE and b is not None) or (o is not trees.TIE and o != b):
                        bad.append(f"{name}: n={n} t={snap.iteration} node {v}: "
                                   f"engine {b}, tree oracle {o}")
        return bad

    ops = sum(2 * inst.n * t_max for inst in insts)
    return Unit(name, call, check, ops=ops, bp_iters=len(insts) * t_max)


def _oracle_check(seed, work, sizes, expected, tally):
    rng = random.Random(seed)
    eps = Fraction(sizes["gap_eps"])
    gap_insts = []
    for n in sizes["gap_ns"]:
        inst = generators.gen_cycle(
            generators.CycleParams(n=n, w_max=Fraction(W_MAX), eps=eps), embed=True
        )
        _hash_check(inst, cycle_key(n, sizes["gap_eps"], embed=True), expected, tally)
        gap_insts.append(_relabelled(inst, rng))
    tied = [_random_instance(sizes["tied_n"], lambda: Fraction(rng.randint(0, 3)))
            for _ in range(sizes["tied_count"])]
    rational = [_random_instance(sizes["rational_n"],
                                 lambda: Fraction(rng.randint(-1000, 1000), rng.randint(1, 12)))
                for _ in range(sizes["rational_count"])]
    dense = [_random_instance(n, lambda: Fraction(rng.randint(-3, 3)))
             for n in sizes["dense_ns"] for _ in range(sizes["dense_count"])]
    cycle_n, cycle_eps = sizes["cycle_n"], sizes["cycle_eps"]
    cycle = generators.gen_cycle(
        generators.CycleParams(n=cycle_n, w_max=Fraction(W_MAX), eps=Fraction(cycle_eps))
    )
    _hash_check(cycle, cycle_key(cycle_n, cycle_eps, embed=False), expected, tally)
    cycle = _relabelled(cycle, rng)

    gap_insts = _round_trip(gap_insts, work / "gap.json", tally)
    tied = _round_trip(tied, work / "tied.json", tally)
    rational = _round_trip(rational, work / "rational.json", tally)
    dense = _round_trip(dense, work / "dense.json", tally)
    (cycle,) = _round_trip([cycle], work / "cycle.json", tally)

    def gap_check(gaps):
        return [f"uniqueness_gap n={inst.n}: {g}, want {eps}"
                for inst, g in zip(gap_insts, gaps) if g != eps]

    def tied_call():
        return [(oracles.mwm_hungarian(x)[1], oracles.mwm_bruteforce(x)[1]) for x in tied]

    def tied_check(pairs):
        return [f"tied n={sizes['tied_n']} #{k}: Hungarian {h}, brute force {b}"
                for k, (h, b) in enumerate(pairs) if h != b]

    def rational_check(results):
        return [f"rational n={inst.n} #{k}: Hungarian result not certified optimal"
                for k, (inst, (m, w)) in enumerate(zip(rational, results))
                if w != _matching_weight(inst, m) or not is_max_weight(inst, m)]

    return [
        Unit("uniqueness-gap", lambda: [oracles.uniqueness_gap(x) for x in gap_insts],
             gap_check, ops=len(gap_insts)),
        Unit("hungarian-vs-bruteforce", tied_call, tied_check, ops=len(tied)),
        Unit("hungarian-rational", lambda: [oracles.mwm_hungarian(x) for x in rational],
             rational_check, ops=len(rational)),
        _belief_unit("beliefs-dense", dense, sizes["dense_t"]),
        _belief_unit("beliefs-cycle", [cycle], sizes["cycle_t"]),
    ]


BUILDERS = {
    "converge-dense": _converge_dense,
    "sweep-bare": _sweep_bare,
    "approx-curve": _approx_curve,
    "oracle-check": _oracle_check,
}


def build(name: str, seed: int, work: Path, tally: Tally,
          sizes: dict | None = None, expected: dict | None = None) -> list[Unit]:
    """Set up workload ``name`` in directory ``work`` and return its units.

    Set-up checks (generator exit codes, content hashes, JSON round trips)
    are recorded in ``tally`` as operations.
    """
    return BUILDERS[name](seed, work, (sizes or SIZES)[name], expected or EXPECTED, tally)
