"""Tests for the command-line interface."""

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from bpmatching import approx, cli, engine, generators, oracles
from bpmatching.approx import complete
from bpmatching.cli import main
from bpmatching.core import Instance, MissingEdgeError, ParameterError, matching_weight
from bpmatching.engine import partial_bp_matching
from reference import count_calls, encodes, full_graph_snapshots


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_cycle_file(tmp_path, capsys, n=3, wmax="8", eps="3/5", embed=True):
    path = tmp_path / "inst.json"
    argv = [
        "gen", "--family", "cycle", "--n", str(n),
        "--wmax", wmax, "--eps", eps, "-o", str(path),
    ]
    if embed:
        argv.append("--embed")
    assert main(argv) == 0
    capsys.readouterr()  # drain the gen confirmation line
    return path


def test_gen_writes_loadable_instance(tmp_path, capsys):
    path = gen_cycle_file(tmp_path, capsys)
    inst = Instance.from_json(path.read_text())
    assert inst.n == 3
    assert inst.meta["family"] == "cycle"
    assert all(None not in row for row in inst.scaled_weights())


def test_loading_reduces_a_common_factor_of_scale_and_weights(tmp_path, capsys):
    # The embedded n=3 cycle with its scale and every weight times 10 loads
    # as the canonical file: the reduced scale, the same bytes and hash.
    text = gen_cycle_file(tmp_path, capsys).read_text().rstrip("\n")
    doc = json.loads(text)
    doc["scale"] *= 10
    doc["weights"] = [[None if w is None else 10 * w for w in row] for row in doc["weights"]]
    inst = Instance.from_json(json.dumps(doc))
    assert inst.scale == json.loads(text)["scale"] == 10
    assert inst.to_json() == text
    assert inst.content_hash() == Instance.from_json(text).content_hash()


def test_gen_cycle_rejects_a_cycle_count(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, _, err = run(
        ["gen", "--family", "cycle", "--n", "5", "--wmax", "8",
         "--eps", "1/10", "--c", "2", "-o", str(out)],
        capsys,
    )
    assert code == 2
    assert "--c" in err
    assert not out.exists()


def test_gen_multicycle_rejects_embed(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, _, err = run(
        ["gen", "--family", "multicycle", "--n", "16", "--wmax", "8",
         "--eps", "1/100", "--embed", "-o", str(out)],
        capsys,
    )
    assert code == 2
    assert "--embed" in err
    assert not out.exists()


def test_gen_multicycle_writes_the_generated_instance(tmp_path, capsys):
    out = tmp_path / "multi.json"
    code, stdout, _ = run(
        ["gen", "--family", "multicycle", "--n", "16", "--wmax", "8",
         "--eps", "1/100", "--c", "2", "-o", str(out)],
        capsys,
    )
    want = generators.gen_multicycle(16, F(8), F(1, 100), c=2).content_hash()
    assert code == 0
    assert Instance.from_json(out.read_text()).content_hash() == want
    assert stdout == f"wrote {out} (hash {want[:16]})\n"


def test_gen_rejects_bad_parameters(tmp_path, capsys):
    code, _, err = run(
        ["gen", "--family", "cycle", "--n", "3", "--wmax", "8",
         "--eps", "5", "-o", str(tmp_path / "x.json")],
        capsys,
    )
    assert code == 2
    assert "eps" in err


def test_bp_run_trace(tmp_path, capsys):
    path = gen_cycle_file(tmp_path, capsys)
    out_csv = tmp_path / "trace.csv"
    code, _, _ = run(
        ["bp", "run", "--instance", str(path), "--iters", "25",
         "--csv", str(out_csv)],
        capsys,
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    assert rows[0]["t"] == "1"
    # Convergence to the reference happens at t=20 and stays.
    assert [r["is_reference"] for r in rows[18:]] == ["0"] + ["1"] * 6


def test_bp_converge(tmp_path, capsys):
    path = gen_cycle_file(tmp_path, capsys)
    code, out, _ = run(["bp", "converge", "--instance", str(path)], capsys)
    assert code == 0
    assert "t=20" in out


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main builds the parser once; each call still parses its own command,
    # and an option given in one call is not a default in the next.
    path = gen_cycle_file(tmp_path, capsys)
    assert cli.build_parser() is cli.build_parser()
    for argv, want in [
        (["bp", "converge", "--instance", str(path), "--horizon", "40"],
         "converged at t=20 (horizon 40)\n"),
        (["oracle", "gap", "--instance", str(path)], "3/5\n"),
        (["bp", "converge", "--instance", str(path)], "converged at t=20 (horizon 80)\n"),
    ]:
        assert run(argv, capsys) == (0, want, "")


def test_bp_converge_horizon_exhausted(tmp_path, capsys):
    path = gen_cycle_file(tmp_path, capsys)
    code, _, err = run(
        ["bp", "converge", "--instance", str(path), "--horizon", "10"],
        capsys,
    )
    assert code == 3
    assert "horizon" in err


@pytest.mark.parametrize("command", [
    ["bp", "converge", "--instance", "{inst}"],
    ["bp", "run", "--instance", "{inst}", "--csv", "{out}"],
    ["exp", "convergence", "--n", "3", "--wmax", "8", "--eps", "1/100000",
     "-o", "{out}"],
    ["approx", "--instance", "{inst}", "--csv", "{out}"],
])
def test_certified_horizon_above_cap_exits_before_any_step(
    tmp_path, capsys, monkeypatch, command
):
    # 2n * w_max / eps = 2 * 3 * 8 * 10^5 = 4.8 * 10^6 steps, above the cap.
    path = gen_cycle_file(tmp_path, capsys, eps="1/100000")
    out_csv = tmp_path / "sweep.csv"

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(engine, "step", no_step)
    argv = [a.format(inst=path, out=out_csv) for a in command]
    code, out, err = run(argv, capsys)
    assert code == 3
    # The hint names the command's own explicit-horizon flag, if it has one.
    name = " ".join(a for a in command[:2] if not a.startswith("-"))
    flag = {"bp converge": "--horizon", "bp run": "--iters", "approx": "--iters"}.get(name)
    hint = f" (an explicit {flag} is not capped)" if flag else ""
    assert err == f"error: certified horizon 4800000 exceeds the cap 1000000{hint}\n"
    assert "converged" not in out
    assert not out_csv.exists()


def test_malformed_instance_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "scale": 1, "weights": [[1.7]]}')
    code, _, err = run(["bp", "converge", "--instance", str(path)], capsys)
    assert code == 2
    assert "integers" in err


def test_unreadable_instance_file_exit_code(tmp_path, capsys):
    undecodable = tmp_path / "utf16.json"
    undecodable.write_bytes(b"\xff\xfe{\x00}\x00")
    for path in tmp_path / "missing.json", undecodable:
        code, out, err = run(["bp", "converge", "--instance", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read instance {path}")


@pytest.mark.parametrize(
    "bad", ["{tmp}/missing/out", "{tmp}", "{tmp}/out/", "{tmp}/" + "x" * 300],
    ids=["no-dir", "is-dir", "dir-name", "too-long"])
@pytest.mark.parametrize("command", [
    ["gen", "--family", "cycle", "--n", "3", "--wmax", "8", "--eps", "3/5", "-o", "{bad}"],
    ["bp", "run", "--instance", "{inst}", "--csv", "{bad}"],
    ["approx", "--instance", "{inst}", "--csv", "{bad}"],
    ["exp", "convergence", "--n", "3", "--wmax", "8", "--eps", "3/5",
     "-o", "{tmp}/sweep.csv", "--manifest", "{bad}"],
    ["exp", "approx", "--n", "16", "--wmax", "8", "--eps", "1/100", "--c", "2",
     "-o", "{bad}"],
], ids=["gen", "bp-run", "approx", "exp-convergence", "exp-approx"])
def test_unwritable_output_exits_before_any_work(tmp_path, capsys, command, bad):
    path = gen_cycle_file(tmp_path, capsys)
    bad = bad.format(tmp=tmp_path)
    argv = [a.format(inst=path, tmp=tmp_path, bad=bad) for a in command]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {bad}")
    assert [p.name for p in tmp_path.iterdir()] == ["inst.json"]


def test_output_names_up_to_the_system_limit_are_written(tmp_path, capsys):
    # The temporary file is named no longer than its path, so a name of the
    # longest length the directory takes is written, with the mode open()
    # would give it, and no temporary file stays.
    path, name = gen_cycle_file(tmp_path, capsys), "x" * os.pathconf(tmp_path, "PC_NAME_MAX")
    code, _, _ = run(["bp", "run", "--instance", str(path), "--iters", "3",
                      "--csv", str(tmp_path / name)], capsys)
    assert code == 0
    with open(tmp_path / "by-open", "w"):
        pass
    assert sorted(p.name for p in tmp_path.iterdir()) == ["by-open", "inst.json", name]
    assert (tmp_path / name).stat().st_mode == (tmp_path / "by-open").stat().st_mode


def write_meta(path, meta):
    """Merges ``meta`` into the file's metadata, or replaces it by a non-dict."""
    doc = json.loads(path.read_text())
    doc["meta"] = {**doc["meta"], **meta} if isinstance(meta, dict) else meta
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("command, meta", [
    ("converge", {"w_max": "abc"}),
    ("converge", {"w_max": [1]}),
    ("converge", {"eps": "0"}),
    ("run", [1, 2]),
])
def test_malformed_metadata_exit_code(tmp_path, capsys, command, meta):
    # A meta that is not an object is a malformed document (exit 2).  The
    # horizon never reads meta's w_max or eps, so a bad value of either
    # leaves the weights' horizon 2*3*8 / (3/5) = 80.
    path = gen_cycle_file(tmp_path, capsys)
    write_meta(path, meta)
    code, out, err = run(["bp", command, "--instance", str(path)], capsys)
    if command == "run":
        assert code == 2
        assert out == ""
        assert err.startswith("error: meta")
    else:
        assert (code, out, err) == (0, "converged at t=20 (horizon 80)\n", "")


@pytest.mark.parametrize("meta", [{"w_max": "1"}, {"eps": "8"}, None],
                         ids=["w_max-1", "eps-8", "no-meta"])
def test_bp_converge_takes_the_horizon_from_the_weights(tmp_path, capsys, meta):
    # Metadata that understates w_max or overstates eps would certify a
    # horizon before T = 20; without metadata there is a horizon all the same.
    path = gen_cycle_file(tmp_path, capsys)
    write_meta(path, meta)
    code, out, err = run(["bp", "converge", "--instance", str(path)], capsys)
    assert (code, out, err) == (0, "converged at t=20 (horizon 80)\n", "")


@pytest.mark.parametrize("rows, message", [
    ([[F(1), F(1)], [F(1), F(1)]], "tied optimum"),
    ([[F(3), None], [F(1), F(3)]], "fewer than two perfect matchings"),
    ([[F(-1), F(2), None], [F(3), F(1), None], [None, None, F(5)]], "node of one edge"),
], ids=["tied", "one-perfect-matching", "negative-with-a-leaf"])
def test_no_certified_horizon_exit_code(tmp_path, capsys, rows, message):
    path = tmp_path / "inst.json"
    path.write_text(Instance(rows).to_json())
    code, out, err = run(["bp", "converge", "--instance", str(path)], capsys)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("shift", [F(-37, 5), F(-1), F(3)])
def test_bp_converge_certifies_a_shifted_instance(tmp_path, capsys, shift):
    # A common shift of the weights changes no belief, so T stays 20.  Its
    # negative weights are no -2*w_max fillers, so the bound takes the
    # spread 8 - (-16) = 24: 2*3*24 / (3/5) = 240.  The largest weight alone
    # would certify 6 at a shift of -37/5, where it is 3/5.
    base = Instance.from_json(gen_cycle_file(tmp_path, capsys).read_text())
    path = tmp_path / "shifted.json"
    path.write_text(Instance([[w + shift for w in row] for row in base.weights]).to_json())
    code, out, err = run(["bp", "converge", "--instance", str(path)], capsys)
    assert (code, out, err) == (0, "converged at t=20 (horizon 240)\n", "")


@pytest.mark.parametrize("embed", [False, True], ids=["bare", "embedded"])
def test_bp_converge_solves_the_hungarian_oracle_once_per_instance(
    tmp_path, capsys, monkeypatch, embed
):
    # One solve gives the reference and the gap; an embedded instance's
    # optimum keeps to its bare view, so the view's gap is the exchange-cycle
    # pass around that optimum, with no solve of its own.
    path = gen_cycle_file(tmp_path, capsys, embed=embed)
    calls = count_calls(monkeypatch, oracles, "mwm_hungarian")
    code, out, err = run(["bp", "converge", "--instance", str(path)], capsys)
    assert (code, out, err) == (0, "converged at t=20 (horizon 80)\n", "")
    assert len(calls) == 1


def test_bp_converge_ignores_wrong_optimum_in_metadata(tmp_path, capsys):
    # The metadata names the suboptimal edges as the optimum; the reference
    # is the Hungarian optimum, so BP still converges at t=20.
    path = gen_cycle_file(tmp_path, capsys)
    doc = json.loads(path.read_text())
    edges = doc["meta"]["edges"]
    edges["opt"], edges["sub"], edges["heavy"] = (
        edges["sub"] + edges["heavy"], edges["opt"][1:], edges["opt"][:1])
    path.write_text(json.dumps(doc))
    code, out, err = run(["bp", "converge", "--instance", str(path)], capsys)
    assert code == 0, err
    assert "t=20" in out


def test_bp_run_solves_the_hungarian_oracle_once(tmp_path, capsys, monkeypatch):
    path = gen_cycle_file(tmp_path, capsys)
    calls = count_calls(monkeypatch, oracles, "mwm_hungarian")
    code, _, err = run(["bp", "run", "--instance", str(path), "--iters", "30"], capsys)
    assert code == 0, err
    assert len(calls) == 1


def test_approx_trace_ratios_are_exact(tmp_path, capsys):
    path = gen_cycle_file(tmp_path, capsys, n=5, wmax="8", eps="1/2")
    out_csv = tmp_path / "ratios.csv"
    code, _, _ = run(
        ["approx", "--instance", str(path), "--iters", "5",
         "--csv", str(out_csv)],
        capsys,
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ratios = [F(int(r["completion_ratio_num"]), int(r["completion_ratio_den"])) for r in rows]
    assert ratios[4] == 1  # all-optimal beliefs at t=5
    assert all(r <= 1 for r in ratios)


def test_exp_convergence_sweep(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    manifest = tmp_path / "sweep.manifest.json"
    argv = [
        "exp", "convergence", "--n", "3", "--wmax", "8",
        "--eps", "3/5", "1/2", "--embed",
        "-o", str(out_csv), "--manifest", str(manifest),
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["verdict"] for r in rows] == ["pass", "pass"]
    assert rows[0]["T"] == "20"
    assert rows[0]["lower_bound"] == "20"
    assert rows[0]["upper_bound"] == "80"
    doc = json.loads(manifest.read_text())
    assert len(doc["instance_hashes"]) == 2


def test_exp_convergence_is_byte_reproducible(tmp_path, capsys):
    outputs = []
    for tag in ("a", "b"):
        out_csv = tmp_path / f"{tag}.csv"
        manifest = tmp_path / f"{tag}.manifest.json"
        code, _, _ = run(
            ["exp", "convergence", "--n", "3", "--wmax", "8",
             "--eps", "3/5", "--embed", "-o", str(out_csv),
             "--manifest", str(manifest)],
            capsys,
        )
        assert code == 0
        outputs.append((out_csv.read_bytes(), manifest.read_bytes()))
    assert outputs[0] == outputs[1]


def test_exp_approx_curve(tmp_path, capsys):
    out_csv = tmp_path / "curve.csv"
    code, _, _ = run(
        ["exp", "approx", "--n", "16", "--wmax", "8", "--eps", "1/100",
         "--c", "2", "-o", str(out_csv)],
        capsys,
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # default horizon is the failure window
    for r in rows:
        assert r["in_window"] == "1"
        assert int(r["failed_cycles"]) >= 1  # at least c/2 cycles fail
    assert (rows[0]["ratio_num"], rows[0]["ratio_den"]) == ("1", "2")


def test_exp_approx_curve_bytes_are_pinned(tmp_path, capsys):
    # The n=24 multi-cycle curve as the Fraction-based completion wrote it.
    # No snapshot of it has a conflict edge, so the mutual pairs and the
    # greedy order make these bytes.
    out_csv = tmp_path / "curve.csv"
    code, _, _ = run(
        ["exp", "approx", "--n", "24", "--wmax", "8", "--eps", "1/1000",
         "--c", "2", "--iters", "300", "-o", str(out_csv)],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
        "99fe749fe062ef6bd20e6ad74626958eb8b7b03bb4472127b2638e6feb518585"
    )


def test_exp_approx_default_cycle_count_manifest(tmp_path, capsys):
    # Without --c, n=30 takes floor(sqrt(30/ln 30)/2) = 1 cycle of the
    # smallest prime in (15, 30); the window is min(8/(8/100), isqrt(15)) = 3.
    out_csv, manifest = tmp_path / "curve.csv", tmp_path / "curve.manifest.json"
    code, out, _ = run(
        ["exp", "approx", "--n", "30", "--wmax", "8", "--eps", "1/100",
         "-o", str(out_csv), "--manifest", str(manifest)],
        capsys,
    )
    assert (code, out) == (0, f"3 iterations written to {out_csv}\n")
    doc = json.loads(manifest.read_text())
    assert doc["config"]["c"] == generators.default_cycle_count(30) == 1
    assert doc["config"]["primes"] == [17]
    assert doc["instance_hashes"] == [
        generators.gen_multicycle(30, F(8), F(1, 100)).content_hash()]
    assert doc["bounds"] == {"window": "3", "opt_weight": "120"}


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_exp_approx_rejects_nonpositive_iters(tmp_path, capsys, iters):
    out_csv = tmp_path / "curve.csv"
    code, _, err = run(
        ["exp", "approx", "--n", "24", "--wmax", "8", "--eps", "1/1000",
         "--c", "2", "--iters", iters, "-o", str(out_csv)],
        capsys,
    )
    assert code == 2
    assert "horizon must be >= 1" in err
    assert not out_csv.exists()


def test_exp_approx_window_below_one_iteration_needs_iters(tmp_path, capsys):
    # n=4, c=1, eps 3/2: the failure window is 2/3, so without --iters there
    # is no iteration to write.
    out_csv = tmp_path / "curve.csv"
    code, _, err = run(
        ["exp", "approx", "--n", "4", "--wmax", "8", "--eps", "3/2", "--c", "1",
         "-o", str(out_csv)],
        capsys,
    )
    assert code == 2
    assert err == "error: failure window 2/3 is below one iteration; give --iters\n"
    assert not out_csv.exists()


# -- trace rows against the loop that evaluates every iteration --


def reference_row(inst, snap, opt_weight):
    """(mutual pairs, unresolved nodes, completion ratio) of ``snap``,
    computed from scratch; the ratio prices its completion through
    ``core.matching_weight``; without ``opt_weight`` it is None, and the
    completion does not run."""
    unresolved = snap.left_belief.count(None) + snap.right_belief.count(None)
    ratio = None
    if opt_weight is not None:
        ratio = matching_weight(inst, complete(inst, snap).matching) / opt_weight
    return len(partial_bp_matching(snap).pairs), unresolved, ratio


def reference_trace(inst, horizon, with_ratio):
    """``bp run`` / ``approx`` CSV text, every row computed from scratch."""
    reference, opt_weight = oracles.mwm_hungarian(inst)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(cli.TRACE_HEADER)
    for snap in full_graph_snapshots(inst, horizon):
        pairs, unresolved, ratio = reference_row(inst, snap, opt_weight if with_ratio else None)
        num, den = (ratio.numerator, ratio.denominator) if with_ratio else ("", "")
        writer.writerow([snap.iteration, pairs, unresolved, int(encodes(snap, reference)),
                         num, den])
    return out.getvalue()


def reference_failed_cycles(inst, snap):
    pairs = partial_bp_matching(snap).pairs.pairs
    failed = 0
    for cyc in (inst.meta or {}).get("cycles", ()):
        off, half = cyc["offset"], cyc["half_length"]
        covered = {
            i for i, j in pairs if off <= i < off + half and off <= j < off + half
        }
        if len(covered) < half:
            failed += 1
    return failed


def reference_exp_approx(inst, horizon):
    """``exp approx`` CSV text, every row computed from scratch."""
    meta = inst.meta
    window = generators.failure_window(meta["n"], meta["c"], F(meta["w_max"]),
                                       F(meta["eps"]))
    _, opt_weight = oracles.mwm_hungarian(inst)
    rows = []
    for snap in full_graph_snapshots(inst, horizon):
        pairs, unresolved, ratio = reference_row(inst, snap, opt_weight)
        rows.append({
            "instance": inst.content_hash()[:16],
            "t": snap.iteration,
            "pairs": pairs,
            "unresolved": unresolved,
            "in_window": int(snap.iteration <= window),
            "failed_cycles": reference_failed_cycles(inst, snap),
            "ratio_num": ratio.numerator,
            "ratio_den": ratio.denominator,
        })
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def random_dense_instance(seed, n):
    rng = random.Random(seed)
    return Instance([[F(rng.randint(0, 9), rng.choice([1, 2, 3])) for _ in range(n)]
                     for _ in range(n)])


@pytest.mark.parametrize(
    "case", ["embedded-cycle", "multicycle", "random-dense", "random-dense-branching",
             "bare-cycle"])
def test_trace_csvs_match_per_iteration_reference(tmp_path, capsys, case):
    # (instance, iterations, branch records over its snapshots): the
    # branching case reaches a cyclic conflict component, so its rows
    # branch.  The bare cycle lacks the edges its completions need, so it
    # runs through ``bp run`` only, which must never complete a snapshot.
    inst, iters, branches = {
        "embedded-cycle": (generators.gen_cycle(
            generators.CycleParams(5, F(8), F(1, 2)), embed=True), 60, 0),
        "multicycle": (generators.gen_multicycle(16, F(8), F(1, 100), c=2), 80, 0),
        "random-dense": (random_dense_instance(11, 6), 60, 0),
        "random-dense-branching": (random_dense_instance(52, 4), 40, 5),
        "bare-cycle": (generators.gen_cycle(generators.CycleParams(4, F(8), F(1, 3))), 100, None),
    }[case]
    commands = [(["bp", "run"], False)]
    if branches is None:
        with pytest.raises(MissingEdgeError):
            for snap in full_graph_snapshots(inst, iters):
                complete(inst, snap)
    else:
        assert sum(len(complete(inst, snap).branch_records)
                   for snap in full_graph_snapshots(inst, iters)) == branches
        commands.append((["approx"], True))
    path = tmp_path / "inst.json"
    path.write_text(inst.to_json())
    for command, with_ratio in commands:
        out_csv = tmp_path / "trace.csv"
        code, _, err = run(command + ["--instance", str(path), "--iters", str(iters),
                                      "--csv", str(out_csv)], capsys)
        assert code == 0, err
        loaded = Instance.from_json(path.read_text())
        assert out_csv.read_bytes() == reference_trace(loaded, iters, with_ratio).encode()


def test_approx_solves_the_hungarian_oracle_once(tmp_path, capsys, monkeypatch):
    # Without generator metadata the reference matching and the optimum
    # weight come from one Hungarian solve.
    inst = random_dense_instance(5, 5)
    path = tmp_path / "inst.json"
    path.write_text(inst.to_json())
    calls = count_calls(monkeypatch, oracles, "mwm_hungarian")
    out_csv = tmp_path / "trace.csv"
    code, _, err = run(["approx", "--instance", str(path), "--iters", "40",
                        "--csv", str(out_csv)], capsys)
    assert code == 0, err
    assert len(calls) == 1
    monkeypatch.undo()
    assert out_csv.read_bytes() == reference_trace(inst, 40, True).encode()


def test_full_row_cache_is_emptied_without_changing_rows(tmp_path, capsys, monkeypatch):
    inst = generators.gen_multicycle(16, F(8), F(1, 100), c=2)
    path = tmp_path / "inst.json"
    path.write_text(inst.to_json())
    monkeypatch.setattr(cli, "_ROW_CACHE", 3)
    out_csv = tmp_path / "trace.csv"
    code, _, _ = run(["approx", "--instance", str(path), "--iters", "80",
                      "--csv", str(out_csv)], capsys)
    assert code == 0
    assert out_csv.read_bytes() == reference_trace(inst, 80, True).encode()


def test_exp_approx_evaluates_each_distinct_snapshot_once(tmp_path, capsys, monkeypatch):
    inst = generators.gen_multicycle(16, F(8), F(1, 100), c=2)
    iters = 80
    calls, partials = [], []

    def counted(inst, snap):
        calls.append((snap.left_belief, snap.right_belief))
        return complete(inst, snap)

    def counted_partial(snap):
        partials.append((snap.left_belief, snap.right_belief))
        return partial_bp_matching(snap)

    monkeypatch.setattr(cli, "complete", counted)
    for module in (cli, approx):
        monkeypatch.setattr(module, "partial_bp_matching", counted_partial)
    out_csv = tmp_path / "curve.csv"
    code, _, _ = run(
        ["exp", "approx", "--n", "16", "--wmax", "8", "--eps", "1/100",
         "--c", "2", "--iters", str(iters), "-o", str(out_csv)],
        capsys,
    )
    assert code == 0
    distinct = {(s.left_belief, s.right_belief)
                for s in engine.run_to_horizon(inst, iters)}
    assert len(calls) == len(set(calls)) == len(distinct) < iters
    assert len(partials) == len(set(partials)) <= len(distinct)
    monkeypatch.undo()
    assert out_csv.read_bytes() == reference_exp_approx(inst, iters).encode()


def test_approx_needs_a_positive_optimum(tmp_path, capsys):
    path, out_csv = tmp_path / "inst.json", tmp_path / "ratios.csv"
    path.write_text(Instance([[F(-1), F(-2)], [F(-2), F(-1)]]).to_json())
    code, out, err = run(
        ["approx", "--instance", str(path), "--iters", "5", "--csv", str(out_csv)],
        capsys,
    )
    assert (code, out) == (2, "")
    assert "positive optimum" in err
    assert not out_csv.exists()


def test_approx_on_bare_cycle_needs_dense_instance(tmp_path, capsys):
    path = gen_cycle_file(tmp_path, capsys, n=4, wmax="8", eps="1/3", embed=False)
    code, _, err = run(
        ["approx", "--instance", str(path), "--iters", "100",
         "--csv", str(tmp_path / "ratios.csv")],
        capsys,
    )
    assert code == 2
    assert err == ("error: greedy completion needs the full K_{n,n}; "
                   "edge (3,0) is absent\n")


def test_failed_approx_leaves_the_csv_path_as_it_was(tmp_path, capsys):
    # The t=1 row is written before the t=2 completion meets the absent
    # edge (2,1); the earlier file at the path keeps its bytes.
    path, out_csv = tmp_path / "inst.json", tmp_path / "o.csv"
    path.write_text('{"n":4,"scale":1,"weights":[[5,8,null,1],[1,5,6,null],'
                    '[-1,null,6,5],[null,null,5,5]],"meta":null}')
    out_csv.write_bytes(b"earlier\r\n")
    code, out, err = run(
        ["approx", "--instance", str(path), "--iters", "2", "--csv", str(out_csv)], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: greedy completion needs the full K_{n,n}; "
                   "edge (2,1) is absent\n")
    assert out_csv.read_bytes() == b"earlier\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json", "o.csv"]


@pytest.mark.parametrize("command", [
    ["bp", "run", "--instance", "{inst}", "--iters", "30", "--csv", "{out}"],
    ["exp", "approx", "--n", "16", "--wmax", "8", "--eps", "1/100", "--c", "2",
     "--iters", "30", "-o", "{out}"],
], ids=["bp-run", "exp-approx"])
def test_interrupted_csv_leaves_no_partial_file(tmp_path, capsys, monkeypatch, command):
    # Interrupted after ten rows: no CSV appears, and no temporary file stays.
    path, out_csv = gen_cycle_file(tmp_path, capsys), tmp_path / "out.csv"
    run_to_horizon = engine.run_to_horizon

    def interrupted(inst, horizon):
        for snap in run_to_horizon(inst, horizon):
            if snap.iteration > 10:
                raise KeyboardInterrupt
            yield snap

    monkeypatch.setattr(engine, "run_to_horizon", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main([a.format(inst=path, out=out_csv) for a in command])
    assert [p.name for p in tmp_path.iterdir()] == ["inst.json"]
    monkeypatch.undo()
    assert main([a.format(inst=path, out=out_csv) for a in command]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json", "out.csv"]
    assert len(out_csv.read_text().splitlines()) == 31


def test_interrupted_sweep_leaves_the_csv_path_as_it_was(tmp_path, monkeypatch):
    # The sweep's rows are interrupted as they are written: the earlier file
    # at the path keeps its bytes, and no temporary file stays.
    out_csv = tmp_path / "sweep.csv"
    out_csv.write_bytes(b"earlier\r\n")

    def interrupted(self, rows):
        raise KeyboardInterrupt

    monkeypatch.setattr(csv.DictWriter, "writerows", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["exp", "convergence", "--n", "3", "--wmax", "8", "--eps", "3/5",
              "-o", str(out_csv)])
    assert out_csv.read_bytes() == b"earlier\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_symlinked_outputs_replace_the_files_they_link_to(tmp_path, capsys):
    # Each output is written through its link: the links stay, and the
    # files they name get the bytes that plain paths get.
    argv = ["exp", "convergence", "--n", "3", "--wmax", "8", "--eps", "3/5",
            "-o", "{}.csv", "--manifest", "{}.json"]
    for name in "link.csv", "link.json":
        (tmp_path / f"real-{name}").write_bytes(b"earlier\n")
        (tmp_path / name).symlink_to(f"real-{name}")
    for stem in "link", "plain":
        assert run([a.format(tmp_path / stem) for a in argv], capsys)[0] == 0
    for ext in "csv", "json":
        assert (tmp_path / f"link.{ext}").is_symlink()
        assert (tmp_path / f"real-link.{ext}").read_bytes() == (
            tmp_path / f"plain.{ext}").read_bytes()
    assert len(os.listdir(tmp_path)) == 6


EXPERIMENTS = [
    ["exp", "convergence", "--n", "3", "--wmax", "8", "--eps", "3/5", "1/2", "1/3"],
    ["exp", "approx", "--n", "16", "--wmax", "8", "--eps", "1/100", "--c", "2"],
]


@pytest.mark.parametrize("manifest", ["x.csv", "y.json"], ids=["same-path", "symlink"])
@pytest.mark.parametrize("command", EXPERIMENTS, ids=["exp-convergence", "exp-approx"])
def test_two_outputs_naming_one_file_exit_before_any_work(
    tmp_path, capsys, monkeypatch, command, manifest
):
    # The manifest would replace the CSV, or the CSV the manifest: the
    # command is refused before it generates its instances, and the
    # directory keeps its files and their bytes.
    (tmp_path / "x.csv").write_bytes(b"earlier\r\n")
    (tmp_path / "y.json").symlink_to("x.csv")

    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")

    for name in "gen_cycle", "gen_multicycle":
        monkeypatch.setattr(generators, name, no_work)
    bad = tmp_path / manifest
    code, out, err = run(command + ["-o", str(tmp_path / "x.csv"), "--manifest", str(bad)],
                         capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {bad}")
    assert sorted(os.listdir(tmp_path)) == ["x.csv", "y.json"]
    assert (tmp_path / "y.json").is_symlink()
    assert (tmp_path / "x.csv").read_bytes() == b"earlier\r\n"


@pytest.mark.parametrize("out_name", ["inst.json", "link.json"], ids=["same-path", "symlink"])
@pytest.mark.parametrize("command", [["bp", "run"], ["approx"]], ids=["bp-run", "approx"])
def test_an_output_naming_the_instance_exits_before_any_work(tmp_path, capsys, command,
                                                             out_name):
    # The CSV would replace the instance the command reads: the command is
    # refused, and the instance keeps its bytes.
    path = gen_cycle_file(tmp_path, capsys)
    (tmp_path / "link.json").symlink_to("inst.json")
    before, bad = path.read_bytes(), tmp_path / out_name
    code, out, err = run(command + ["--instance", str(path), "--iters", "3",
                                    "--csv", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {bad}")
    assert sorted(os.listdir(tmp_path)) == ["inst.json", "link.json"]
    assert path.read_bytes() == before


@pytest.mark.parametrize("command, hashes", zip(EXPERIMENTS, [3, 1]),
                         ids=["exp-convergence", "exp-approx"])
def test_experiments_hash_each_instance_once(tmp_path, capsys, monkeypatch, command, hashes):
    # One hash per instance serves both the CSV's instance column and the
    # manifest's instance_hashes.
    calls = count_calls(monkeypatch, Instance, "content_hash")
    code, _, err = run(command + ["-o", str(tmp_path / "x.csv"),
                                  "--manifest", str(tmp_path / "m.json")], capsys)
    assert code == 0, err
    assert len(calls) == hashes
    doc = json.loads((tmp_path / "m.json").read_text())
    assert len(doc["instance_hashes"]) == hashes


def test_failed_manifest_leaves_every_output_path_as_it_was(tmp_path, monkeypatch):
    # The sweep's CSV is complete when its manifest fails: the outputs
    # replace their paths together or not at all.
    out_csv, manifest = tmp_path / "s.csv", tmp_path / "m.json"
    out_csv.write_bytes(b"earlier\r\n")
    manifest.write_bytes(b"earlier\n")

    def failed(*args):
        raise ParameterError("manifest failed")

    monkeypatch.setattr(cli, "_manifest", failed)
    assert main(["exp", "convergence", "--n", "3", "--wmax", "8", "--eps", "3/5",
                 "-o", str(out_csv), "--manifest", str(manifest)]) == 2
    assert (out_csv.read_bytes(), manifest.read_bytes()) == (b"earlier\r\n", b"earlier\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "s.csv"]


@pytest.mark.parametrize("command, files", [
    (["exp", "convergence", "--n", "3", "--wmax", "8", "--eps", "3/5",
      "-o", "s.csv", "--manifest", "m.json"], ["m.json", "s.csv"]),
    (["gen", "--family", "cycle", "--n", "3", "--wmax", "8", "--eps", "3/5", "-o", "c.json"],
     ["c.json"]),
    (["bp", "run", "--instance", "{inst}", "--iters", "100000"], []),
], ids=["exp-convergence", "gen", "bp-run"])
def test_closed_stdout_exits_141_after_writing_the_files(
    tmp_path, capsys, monkeypatch, command, files
):
    # The reader of stdout is gone before the command starts: the run ends
    # quietly with 128 + SIGPIPE, and its files are those of a normal run.
    inst = gen_cycle_file(tmp_path, capsys)
    argv = [a.format(inst=inst) for a in command]
    closed, normal = tmp_path / "closed", tmp_path / "normal"
    closed.mkdir()
    normal.mkdir()
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    try:
        proc = subprocess.run([sys.executable, "-m", "bpmatching.cli", *argv], cwd=closed,
                              env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
    monkeypatch.chdir(normal)
    assert main(argv) == 0
    assert sorted(p.name for p in closed.iterdir()) == files
    for name in files:
        assert (closed / name).read_bytes() == (normal / name).read_bytes()


def test_oracle_tree_belief(tmp_path, capsys):
    path = gen_cycle_file(tmp_path, capsys, n=3, wmax="8", eps="1/2", embed=False)
    code, out, _ = run(
        ["oracle", "tree-belief", "--instance", str(path),
         "--node", "a2", "--depth", "4"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "b1"


def test_oracle_tree_belief_tie(tmp_path, capsys):
    # On the all-ones K_{2,2} both depth-1 root edges weigh 1.
    path = tmp_path / "ones.json"
    path.write_text(Instance([[F(1)] * 2] * 2).to_json())
    code, out, _ = run(
        ["oracle", "tree-belief", "--instance", str(path), "--node", "a1", "--depth", "1"],
        capsys,
    )
    assert (code, out) == (0, "tie\n")


@pytest.mark.parametrize("command, message", [
    (["tree-belief", "--instance", "{inst}", "--node", "a1", "--depth", "0"], "depth >= 1"),
    (["nibbling", "--n", "2", "--wmax", "8", "--eps", "1/2", "--l", "1"], "n must be >= 3"),
], ids=["depth-0", "nibbling-n-2"])
def test_oracle_rejects_out_of_range_parameters(tmp_path, capsys, command, message):
    path = gen_cycle_file(tmp_path, capsys)
    code, out, err = run(["oracle"] + [a.format(inst=path) for a in command], capsys)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("node", ["c2", "x", "", "b4", "a0", "a-1", "a 1", "a1b"])
def test_oracle_tree_belief_rejects_bad_node(tmp_path, capsys, node):
    path = gen_cycle_file(tmp_path, capsys, n=3, wmax="8", eps="1/2", embed=False)
    code, out, err = run(
        ["oracle", "tree-belief", "--instance", str(path),
         "--node", node, "--depth", "4"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: --node must be a<k> or b<k>, 1 <= k <= 3")


def test_oracle_mwm(tmp_path, capsys):
    path = gen_cycle_file(tmp_path, capsys)
    code, out, _ = run(["oracle", "mwm", "--instance", str(path)], capsys)
    assert code == 0
    assert "weight 12" in out
    assert "a1 - b1" in out


def test_oracle_nibbling(capsys):
    code, out, _ = run(
        ["oracle", "nibbling", "--n", "3", "--wmax", "8",
         "--eps", "1/2", "--l", "1"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "4"


def test_oracle_gap(tmp_path, capsys):
    path = gen_cycle_file(tmp_path, capsys, eps="3/5")
    code, out, _ = run(["oracle", "gap", "--instance", str(path)], capsys)
    assert code == 0
    assert out.strip() == "3/5"


def test_oracle_gap_single_matching_exit_code(tmp_path, capsys):
    n = 8
    inst = Instance([[F(i + 1) if i == j else None for j in range(n)] for i in range(n)])
    path = tmp_path / "diag.json"
    path.write_text(inst.to_json())
    code, out, err = run(["oracle", "gap", "--instance", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "fewer than two perfect matchings" in err


def test_oracle_cap_exit_code(tmp_path, capsys):
    inst = generators.gen_multicycle(16, F(8), F(1, 100), c=2)
    path = tmp_path / "big.json"
    path.write_text(inst.to_json())
    code, _, err = run(
        ["oracle", "mwm", "--instance", str(path), "--brute"], capsys
    )
    assert code == 4
    assert "brute force" in err
