"""Tests for the command-line interface."""

import csv
import json
from fractions import Fraction as F

from bpmatching import generators
from bpmatching.cli import main
from bpmatching.core import Instance


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
    assert inst.is_dense


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


def test_bp_converge_horizon_exhausted(tmp_path, capsys):
    path = gen_cycle_file(tmp_path, capsys)
    code, _, err = run(
        ["bp", "converge", "--instance", str(path), "--horizon", "10"],
        capsys,
    )
    assert code == 3
    assert "horizon" in err


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


def test_oracle_tree_belief(tmp_path, capsys):
    path = gen_cycle_file(tmp_path, capsys, n=3, wmax="8", eps="1/2", embed=False)
    code, out, _ = run(
        ["oracle", "tree-belief", "--instance", str(path),
         "--node", "a2", "--depth", "4"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "b1"


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
