import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mbloch
from mbloch import cli
from mbloch.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mbloch.__file__)))
SIMULATE = ["simulate", "--x1", "1", "--y1", "1", "--x2", "0", "--y2", "0", "--z", "1"]
WRITES_CSV = ("simulate", "homoclinic", "periodic")


def run_process(args, timeout):
    """Run a fresh interpreter that imports mbloch from this source tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


class TestSimulate:
    def test_equilibrium_run(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, out = run(capsys, [
            "simulate", "--x1", "0", "--y1", "0", "--x2", "0", "--y2", "0",
            "--z", "-1", "--t-end", "10", "--method", "rk4", "--dt", "0.01",
            "--out", str(out_path)])
        assert code == 0
        rep = json.loads(out)
        assert rep["max_abs_dH"] == rep["max_abs_dI"] == rep["max_abs_dC"] == 0.0
        header, rows = read_csv(out_path)
        assert header == ["t", "x1", "y1", "x2", "y2", "z", "H", "I", "C"]
        assert np.array_equal(rows[:, 1:6],
                              np.tile([0, 0, 0, 0, -1.0], (len(rows), 1)))

    def test_homoclinic_start_drift(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, out = run(capsys, [
            "simulate", "--x1", "2", "--y1", "0", "--x2", "0", "--y2", "0",
            "--z", "-1", "--t-end", "3", "--method", "rk45", "--tol", "1e-10",
            "--out", str(out_path)])
        assert code == 0
        rep = json.loads(out)
        assert max(rep["max_abs_dH"], rep["max_abs_dI"], rep["max_abs_dC"]) < 1e-9

    def test_csv_round_trip_bit_exact(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _ = run(capsys, [
            "simulate", "--x1", "1", "--y1", "1", "--x2", "0.5", "--y2",
            "-0.5", "--z", "0.2", "--t-end", "1", "--method", "rk45",
            "--out", str(out_path)])
        assert code == 0
        _, rows = read_csv(out_path)
        from mbloch.integrate import IntegratorConfig, integrate
        traj = integrate([1, 1, 0.5, -0.5, 0.2],
                         IntegratorConfig(method="rk45", t_end=1.0))
        assert np.array_equal(rows[:, 0], traj.times)
        assert np.array_equal(rows[:, 1:6], traj.states)
        assert np.array_equal(rows[:, 6:9], traj.conserved)

    def test_invalid_dt_usage_error(self, capsys, tmp_path):
        code, _ = run(capsys, [
            "simulate", "--x1", "0", "--y1", "0", "--x2", "0", "--y2", "0",
            "--z", "1", "--t-end", "1", "--method", "rk4", "--dt", "-1",
            "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_flag_usage_error(self, capsys, tmp_path):
        code, _ = run(capsys, ["simulate", "--x1", "0"])
        assert code == 2

    def test_overflow_writes_partial_csv(self, capsys, tmp_path):
        # the start triple is finite (H = 5e199); the step to t = 1 overflows
        out_path = tmp_path / "traj.csv"
        code, out = run(capsys, [
            "simulate", "--x1", "1", "--y1", "1", "--x2", "0", "--y2", "0",
            "--z", "1e100", "--t-end", "10", "--method", "rk4", "--dt", "1",
            "--out", str(out_path)])
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "state overflow"
        assert rep["t_reached"] == 1.0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "t,x1,y1,x2,y2,z,H,I,C"
        assert len(lines) == 2
        assert lines[1] == "0.0,1.0,1.0,0.0,0.0,1e+100,5e+199,0.0,1e+100"

    @pytest.mark.parametrize("extra", [["--method", "rk4", "--dt", "1", "--z", "1e100"],
                                       ["--method", "rk45", "--z", "1e60"]])
    def test_overflow_is_silent_on_stderr(self, tmp_path, extra):
        out_path = tmp_path / "traj.csv"
        proc = run_process(["-m", "mbloch.cli", *SIMULATE, "--t-end", "10",
                            "--out", str(out_path), *extra], timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["error"] == "state overflow"
        rows = out_path.read_text().strip().split("\n")[1:]
        assert rows and all("inf" not in r and "nan" not in r for r in rows)


@pytest.mark.parametrize("argv", [
    SIMULATE + ["--t-end", "1", "--stride", "0"],
    SIMULATE + ["--t-end", "nan"],
    SIMULATE + ["--t-end", "inf", "--method", "rk4"],
    SIMULATE + ["--t-end", "1", "--x1", "nan"],
    SIMULATE + ["--t-end", "1", "--method", "rk4", "--dt", "nan"],
    SIMULATE + ["--t-end", "1", "--tol", "nan"],
    SIMULATE + ["--t-end", "1", "--tol", "inf"],
    SIMULATE + ["--t-end", "1", "--z", "1e160"],  # H = z^2/2 overflows
    ["rank", "--point", "1,1,nan,1,1"],
    ["invariant-probe", "--m1", "0,nan,1", "--t-end", "5"],
    ["invariant-probe", "--m1", "1e200,1,1", "--t-end", "5"],
    ["homoclinic", "--c", "inf"],
    ["homoclinic", "--c", "1", "--theta0", "nan"],
    ["homoclinic", "--c", "1", "--dt", "1e-9"],  # 2e10 rows
    ["periodic", "--x1", "1", "--y1", "1", "--x2", "1", "--t-max", "1e9"],
    ["verify", "--seed", "-1"],
])
def test_bad_value_usage_error(capsys, tmp_path, argv):
    out_path = tmp_path / "x.csv"
    if argv[0] in WRITES_CSV:
        argv = argv + ["--out", str(out_path)]
    code, out = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert not out_path.exists()


def test_csv_row_cap_is_inclusive(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_CSV_ROWS", 11)
    argv = ["homoclinic", "--c", "1", "--t-min", "0", "--t-max", "10",
            "--out", str(tmp_path / "h.csv")]
    assert run(capsys, argv + ["--dt", "1"])[0] == 0
    assert len((tmp_path / "h.csv").read_text().strip().split("\n")) == 1 + 11
    assert run(capsys, argv + ["--dt", "0.9"])[0] == 2


class TestClassify:
    def test_positive_leaf(self, capsys):
        code, out = run(capsys, ["classify", "--c", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["kind"] == "focus-focus"
        assert rep["stable"] == "unstable"
        assert len(rep["roots"]) == 4
        assert rep["discriminant"] < 0

    def test_negative_leaf(self, capsys):
        code, out = run(capsys, ["classify", "--c", "-1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["kind"] == "center-center"
        assert rep["stable"] == "stable"

    def test_degenerate_origin_with_certificate(self, capsys):
        code, out = run(capsys, ["classify", "--c", "0"])
        assert code == 0
        rep = json.loads(out)
        assert rep["kind"] == "degenerate"
        assert rep["stable"] == "stable"
        assert rep["certificate"]["unique_solution"] is True


class TestClosedFormCommands:
    def test_homoclinic_export(self, capsys, tmp_path):
        out_path = tmp_path / "hom.csv"
        code, out = run(capsys, [
            "homoclinic", "--c", "1", "--theta0", "0", "--sign", "+",
            "--t-min", "-5", "--t-max", "5", "--dt", "0.01",
            "--out", str(out_path)])
        assert code == 0
        rep = json.loads(out)
        assert rep["passed"] is True
        assert rep["max_ode_residual"] < 1e-10 * 2
        _, rows = read_csv(out_path)
        assert rows[0, 0] == -5.0
        # conserved columns pinned at (c^2/2, 0, c)
        assert np.abs(rows[:, 6] - 0.5).max() < 1e-12
        assert np.abs(rows[:, 8] - 1.0).max() < 1e-12

    def test_homoclinic_negative_c_rejected(self, capsys, tmp_path):
        code, _ = run(capsys, ["homoclinic", "--c", "-1",
                               "--out", str(tmp_path / "h.csv")])
        assert code == 2

    def test_periodic_export_constant_z(self, capsys, tmp_path):
        out_path = tmp_path / "per.csv"
        code, out = run(capsys, [
            "periodic", "--x1", "1", "--y1", "1", "--x2", "1",
            "--out", str(out_path)])
        assert code == 0
        rep = json.loads(out)
        assert rep["passed"] is True
        _, rows = read_csv(out_path)
        assert np.array_equal(rows[:, 5], np.full(len(rows), -1.0))

    def test_periodic_zero_x2_rejected(self, capsys, tmp_path):
        code, _ = run(capsys, ["periodic", "--x1", "1", "--y1", "1",
                               "--x2", "0", "--out", str(tmp_path / "p.csv")])
        assert code == 2


class TestRankAndProbe:
    def test_rank_of_m1_point(self, capsys):
        code, out = run(capsys, ["rank", "--point", "1,1,1,-1,-1"])
        assert code == 0
        assert json.loads(out)["rank"] == 2

    def test_rank_of_generic_point(self, capsys):
        code, out = run(capsys, ["rank", "--point", "1,2,3,4,5"])
        assert code == 0
        assert json.loads(out)["rank"] == 3

    def test_rank_bad_point_usage_error(self, capsys):
        code, _ = run(capsys, ["rank", "--point", "1,2,3"])
        assert code == 2

    def test_probe_matches_prediction(self, capsys):
        code, out = run(capsys, ["invariant-probe", "--m1", "0,1,1",
                                 "--t-end", "20"])
        assert code == 0
        rep = json.loads(out)
        assert rep["puncture_count"] == rep["predicted_punctures"] == 6
        assert rep["max_distance_to_union"] < 1e-6

    def test_probe_with_negative_ratio_terminates(self):
        # x2/y1 < 0: the puncture prediction once looped forever here
        proc = run_process(["-m", "mbloch.cli", "invariant-probe",
                            "--m1", "0.3,-1.2,0.7", "--t-end", "20"], timeout=120)
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["puncture_count"] == rep["predicted_punctures"]

    def test_probe_overflow_is_a_runtime_failure(self, capsys):
        code, out = run(capsys, ["invariant-probe", "--m1=1e120,1e-100,1",
                                 "--t-end", "5"])
        assert code == 1
        assert json.loads(out)["error"] == "state overflow"

    def test_probe_zero_x2_rejected(self, capsys):
        code, _ = run(capsys, ["invariant-probe", "--m1", "1,1,0",
                               "--t-end", "5"])
        assert code == 2


class TestVerify:
    def test_quick_passes(self, capsys):
        code, out = run(capsys, ["verify", "--seed", "42", "--level", "quick"])
        assert code == 0
        rep = json.loads(out)
        assert rep["all_passed"] is True
        assert all(r["passed"] for r in rep["results"])

    def test_seeded_determinism_byte_identical(self, capsys):
        _, out1 = run(capsys, ["verify", "--seed", "42", "--level", "quick"])
        _, out2 = run(capsys, ["verify", "--seed", "42", "--level", "quick"])
        assert out1 == out2

    def test_results_sorted(self, capsys):
        _, out = run(capsys, ["verify", "--seed", "1", "--level", "quick"])
        rep = json.loads(out)
        keys = [(r["suite"], r["name"]) for r in rep["results"]]
        assert keys == sorted(keys)


def test_cli_import_does_not_load_scipy():
    proc = run_process(["-c", "import sys, mbloch.cli; print('scipy' in sys.modules)"],
                       timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
