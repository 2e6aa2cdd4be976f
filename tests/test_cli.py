import argparse
import contextlib
import functools
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mbloch
from mbloch import cli, core, domain, integrate, invariant_sets, solutions, verify
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


def run_captured(argv):
    """(exit code, stdout, stderr) of ``main``; usable inside Hypothesis tests,
    which cannot take the function-scoped ``capsys``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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


def oracle_csv(table):
    """The CSV of a (rows, 9) table with ``repr`` called on every value, row
    by row: the reference that the block writer must match byte for byte."""
    lines = [cli.CSV_HEADER] + [",".join(map(repr, row)) for row in table.tolist()]
    return "".join(line + "\n" for line in lines)


def written_csv(path, table):
    cli._write_csv(path, len(table), lambda i, j: table[i:j])
    with open(path) as fh:
        return fh.read()


BLOCK = cli.CSV_BLOCK_ROWS
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-5, 0.1 + 0.2,
               1e308, -1.5, 2.0 ** 53 + 2]


@pytest.mark.parametrize("rows", [0, 1, BLOCK, 2 * BLOCK + 1])
def test_csv_writer_matches_per_value_repr(tmp_path, rows):
    # repeated values within a block and across blocks, both signed zeros
    # in every 7th row, and values whose shortest repr is long or exponential
    rng = np.random.default_rng(rows)
    pool = np.array(EDGE_VALUES + list(rng.normal(size=5)))
    table = rng.choice(pool, size=(rows, 9))
    table[::7, 3] = -0.0
    table[::7, 4] = 0.0
    assert written_csv(tmp_path / "w.csv", table) == oracle_csv(table)


def test_csv_writer_keeps_signed_zeros_apart(tmp_path):
    table = np.array([[0.0, -0.0, 0.0, -0.0, 1.0, -0.0, 0.0, 0.0, -0.0]])
    text = written_csv(tmp_path / "w.csv", table)
    assert text == oracle_csv(table)
    assert text.split("\n")[1] == "0.0,-0.0,0.0,-0.0,1.0,-0.0,0.0,0.0,-0.0"


@pytest.mark.parametrize("rows", [cli.CSV_SPLIT_ROWS, cli.CSV_SPLIT_ROWS + 1])
def test_trajectory_csv_matches_per_value_repr_at_the_split(tmp_path, rows):
    # a record of CSV_SPLIT_ROWS samples is written row by row with repr,
    # one more goes through the batched writer: both give the oracle's bytes,
    # on both signed zeros, subnormals and 1e+16 (no value whose square
    # overflows: a recorded sample has a finite conserved triple)
    rng = np.random.default_rng(rows)
    pool = np.array([v for v in EDGE_VALUES if v != 1e308] + list(rng.normal(size=5)))
    samples = rng.choice(pool, size=(rows, 6))
    samples[::7, 3] = -0.0
    samples[::5, 5] = 5e-324
    traj = integrate.Trajectory(array("d", samples[:, 0]), array("d", samples[:, 1:].ravel()))
    path = tmp_path / "t.csv"
    cli.write_trajectory_csv(path, traj)
    table = np.column_stack((samples, *core.conserved(samples[:, 1:])))
    # lines, not one string: a mismatch then reports its first row quickly
    assert path.read_text().split("\n") == oracle_csv(table).split("\n")


FINITE_TABLES = arrays(np.float64, st.tuples(st.integers(0, 12), st.just(9)),
                       elements=st.floats(allow_nan=False, allow_infinity=False))


@settings(derandomize=True, deadline=None)
@given(FINITE_TABLES)
def test_csv_writer_any_finite_table(tmp_path_factory, table):
    # blocks of 4 rows, so that a table of up to 12 rows spans several
    path = tmp_path_factory.mktemp("csv") / "w.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CSV_BLOCK_ROWS", 4)
        assert written_csv(path, table) == oracle_csv(table)


def force_split(mp, block, split, cpus):
    """Make ``_write_csv`` split tables of ``split`` rows a range, formatted
    in blocks of ``block`` rows, on ``cpus`` usable CPUs."""
    mp.setattr(cli, "CSV_BLOCK_ROWS", block)
    mp.setattr(cli, "CSV_SPLIT_ROWS", split)
    mp.setattr(cli, "_usable_cpus", lambda: cpus)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# 3 CPUs and 4 rows a range: tables of 8 to 11 rows take 2 ranges, from 12
# rows on 3; with 9 CPUs, 32 rows and more take CSV_MAX_RANGES = 8 ranges
@pytest.mark.parametrize("cpus,rows", [(3, n) for n in range(18)]
                         + [(9, n) for n in (27, 28, 29, 31, 32, 33, 36, 37, 41)])
def test_csv_writer_split_is_byte_identical(tmp_path, monkeypatch, cpus, rows):
    force_split(monkeypatch, 3, 4, cpus)
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    rng = np.random.default_rng(rows)
    pool = np.array(EDGE_VALUES + list(rng.normal(size=5)))
    table = rng.choice(pool, size=(rows, 9))
    assert written_csv(tmp_path / "w.csv", table) == oracle_csv(table)
    assert len(forks) == max(min(cpus, rows // 4, cli.CSV_MAX_RANGES), 1) - 1
    assert_no_child_left()


@settings(derandomize=True, deadline=None)
@given(FINITE_TABLES)
def test_csv_writer_any_finite_table_split(tmp_path_factory, table):
    # ranges of at least 2 rows on 3 CPUs, formatted in blocks of 2 rows
    path = tmp_path_factory.mktemp("csv") / "w.csv"
    with pytest.MonkeyPatch.context() as mp:
        force_split(mp, 2, 2, 3)
        assert written_csv(path, table) == oracle_csv(table)


HOMOCLINIC_11_ROWS = ["homoclinic", "--c", "1", "--t-min", "0", "--t-max", "10",
                      "--dt", "1"]


@pytest.mark.parametrize("how", ["raises", "is killed"])
def test_failing_format_child(capfd, tmp_path, monkeypatch, how):
    # 11 rows on 3 CPUs in ranges [0, 3), [3, 7), [7, 11)
    force_split(monkeypatch, 2, 3, 3)
    full_path, path = tmp_path / "full.csv", tmp_path / "h.csv"
    assert main(HOMOCLINIC_11_ROWS + ["--out", str(full_path)]) == 0
    full = full_path.read_text()
    assert full == oracle_csv(read_csv(full_path)[1])
    capfd.readouterr()
    real_format_rows = cli._format_rows

    def format_rows(fh, table, a, b):
        if a > 0:  # a child's range
            if how == "raises":
                raise RuntimeError("formatting failed")
            os.kill(os.getpid(), signal.SIGKILL)
        real_format_rows(fh, table, a, b)

    monkeypatch.setattr(cli, "_format_rows", format_rows)
    code = main(HOMOCLINIC_11_ROWS + ["--out", str(path)])
    out, err = capfd.readouterr()
    assert code == 1 and err == ""
    assert len(out.splitlines()) == 1
    assert json.loads(out)["error"] == "cannot write CSV"
    # the header and range 0, whole rows as in the full export
    partial = path.read_text()
    assert full.startswith(partial) and partial.count("\n") == 1 + 3
    assert_no_child_left()


@pytest.mark.parametrize("argv", [
    SIMULATE + ["--t-end", "1"],
    HOMOCLINIC_11_ROWS,
    ["periodic", "--x1", "1", "--y1", "1", "--x2", "0.5"],
])
def test_unwritable_out_is_a_runtime_failure(capfd, tmp_path, argv):
    path = tmp_path / "missing" / "x.csv"
    code = main(argv + ["--out", str(path)])
    out, err = capfd.readouterr()
    assert code == 1 and err == ""
    assert len(out.splitlines()) == 1
    rep = json.loads(out)
    assert rep["error"] == "cannot write CSV" and str(path) in rep["reason"]
    assert not path.exists()


@pytest.mark.parametrize("cpus,rows,busy", [
    (1, 3 * cli.CSV_SPLIT_ROWS, False),  # one CPU
    (8, 2 * cli.CSV_SPLIT_ROWS - 1, False),  # one row under two ranges
    (8, 2 * cli.CSV_SPLIT_ROWS, True),  # another Python thread runs
])
def test_export_without_split_never_forks(capsys, tmp_path, monkeypatch, cpus, rows, busy):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)

    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)
    argv = ["homoclinic", "--c", "1", "--t-min", "0", "--t-max", repr((rows - 1) / 1000),
            "--dt", "0.001", "--out", str(tmp_path / "h.csv")]
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if busy:
        thread.start()
    try:
        code, _ = run(capsys, argv)
    finally:
        stop.set()
        if busy:
            thread.join(timeout=10)
    assert code == 0 and not thread.is_alive()
    assert len((tmp_path / "h.csv").read_text().splitlines()) == 1 + rows


# closed-form exports of ``rows`` rows: an argv, its time grid, the orbit, its
# derivative and the conserved level that the command checks against
def homoclinic_export(c, theta0, sign, rows, widths=5.0):
    """A grid over +-``widths`` pulse widths 1/sqrt(c)."""
    half = widths / math.sqrt(c)
    par = solutions.HomoclinicParams(c=c, theta0=theta0, sign=1 if sign == "+" else -1)
    dt = 2 * half / (rows - 1)
    argv = ["homoclinic", f"--c={c!r}", f"--theta0={theta0!r}", f"--sign={sign}",
            f"--t-min={-half!r}", f"--t-max={half!r}", f"--dt={dt!r}"]
    return (argv, cli._sample_times(-half, half, dt),
            lambda t: solutions.homoclinic(par, t),
            lambda t: solutions.homoclinic_derivative(par, t),
            lambda states: [c * c / 2, 0.0, c])  # c ** 2 can round differently


def periodic_export(x1, y1, x2, rows):
    """A grid of unit steps, so of exactly ``rows`` rows."""
    par = invariant_sets.RankTwoPoint(x1, x2, y1 / x2)
    argv = ["periodic", f"--x1={x1!r}", f"--y1={y1!r}", f"--x2={x2!r}",
            f"--t-max={rows - 1}", "--dt=1"]
    return (argv, cli._sample_times(0.0, float(rows - 1), 1.0),
            lambda t: solutions.periodic_solution(par, t),
            lambda t: solutions.periodic_derivative(par, t),
            lambda states: core.conserved(states[0]))


@pytest.mark.parametrize("export", [
    lambda rows: homoclinic_export(1.0, 0.7, "-", rows),
    lambda rows: periodic_export(1.0, 1.0, 0.5, rows),
])
def test_export_memory_is_one_block(capsys, tmp_path, monkeypatch, export):
    # in one process (no fork), the traced peak is the 8-byte time grid and
    # one block; whole-orbit arrays cost about 170 bytes a row
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    sizes, peaks = (2 * 10 ** 4, 2 * 10 ** 5), []
    for rows in sizes:
        path = tmp_path / f"{rows}.csv"
        tracemalloc.start()
        try:
            code = main(export(rows)[0] + [f"--out={path}"])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(capsys.readouterr().out)["passed"] is True
        assert len(path.read_text().splitlines()) == 1 + rows
    assert peaks[1] < 4e6
    assert (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]) < 16


@pytest.mark.parametrize("export", [
    homoclinic_export(1.0, 0.0, "+", 101),
    homoclinic_export(0.3, 2.0, "-", 96, widths=10.0),
    homoclinic_export(2.5, -1.0, "+", 50),
    homoclinic_export(1e100, 0.4, "-", 101),  # a pulse 1e-50 wide
    periodic_export(1.0, 1.0, 0.5, 101),
    periodic_export(-0.3, 2.0, -1.2, 75),
    periodic_export(1e3, -1e-3, 7.0, 64),
])
def test_export_by_blocks_equals_whole_orbit(capsys, tmp_path, monkeypatch, export):
    # blocks of 7 rows in 3 ranges: the rows, residual and level deviation
    # equal those of the whole orbit evaluated as one array, so NumPy's
    # elementwise functions do not depend on where an element sits
    argv, times, orbit, derivative, level = export
    force_split(monkeypatch, 7, 8, 3)
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    path = tmp_path / "x.csv"
    code, out = run(capsys, argv + [f"--out={path}"])
    rep = json.loads(out)
    assert code == (0 if rep["passed"] else 1) and len(forks) == 2
    states = orbit(times)
    cons = np.column_stack(core.conserved(states))
    assert path.read_text() == oracle_csv(np.column_stack((times, states, cons)))
    resid = np.abs(derivative(times) - core.vector_field(states)).max()
    assert rep["max_ode_residual"] == float(resid)
    assert rep["max_conserved_deviation"] == float(np.abs(cons - level(states)).max())
    assert_no_child_left()


def test_export_nan_residual_in_a_later_block_fails(capsys, tmp_path, monkeypatch):
    # a NaN residual after the first block still fails the check
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
    deriv = solutions.homoclinic_derivative

    def nan_after_5(par, t):
        out = deriv(par, t)
        out[t > 5] = np.nan
        return out

    monkeypatch.setattr(solutions, "homoclinic_derivative", nan_after_5)
    code, out = run(capsys, HOMOCLINIC_11_ROWS + ["--out", str(tmp_path / "h.csv")])
    rep = json.loads(out)
    assert code == 1 and rep["passed"] is False
    assert math.isnan(rep["max_ode_residual"])


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
    SIMULATE + ["--t-end", "-1"],
    SIMULATE + ["--t-end", "1", "--tol", "0"],
    SIMULATE + ["--t-end", "1", "--method", "rk45", "--dt", "-1"],
    ["invariant-probe", "--m1", "0,1,1", "--t-end", "0"],
    ["periodic", "--x1", "1", "--y1", "0", "--x2", "1"],
    SIMULATE + ["--t-end", "1", "--method", "rk4", "--dt", "1e-9"],  # 1e9 steps
    SIMULATE + ["--t-end", "1e10", "--method", "rk4", "--dt", "1e-320"],  # inf steps
    # 10^6 steps record 10^6 + 1 samples, one over the cap
    SIMULATE + ["--t-end", "1", "--method", "rk4", "--dt", "1e-6"],
    ["classify", "--c", "1e300"],  # c^2/2 overflows
    ["homoclinic", "--c", "1e200"],  # c^2/2 overflows
    ["invariant-probe", "--m1=1,1,-0.0", "--t-end", "5"],  # no chart parameter w = y1 / x2
    ["homoclinic", "--c", "1", "--dt", "0"],
    ["periodic", "--x1", "1", "--y1", "1", "--x2", "1", "--t-max", "-1"],
    # about 1e300 rk45 steps of dt_max
    ["simulate", "--x1=0", "--y1=0", "--x2=0", "--y2=0", "--z=-1", "--t-end=1e300"],
    ["invariant-probe", "--m1=1,0,1", "--t-end=1e300"],
    # the residual scale of the orbit, x1^2, overflows
    ["periodic", "--x1", "1e200", "--y1", "1", "--x2", "1", "--dt", "1", "--t-max", "10"],
    ["invariant-probe", "--m1", "1,1e100,1e-100", "--t-end", "1"],  # z overflows
    ["invariant-probe", "--m1", "1,1e-320,1", "--t-end", "1"],  # the period overflows
    ["homoclinic", "--c", "1e20"],  # a grid step of 1e8 pulse widths
    # w = y1 / x2 underflows to 0, so the period is infinite
    ["periodic", "--x1=0", "--y1=2.2250738585e-313", "--x2=90071992548.0"],
    ["invariant-probe", "--m1=0,2.2250738585e-313,90071992548.0", "--t-end=1"],
    # z = -w^2 = -1e212, so H = z^2 / 2 overflows
    ["periodic", "--x1=0", "--y1=1", "--x2=9.732720838833749e-107", "--t-max=1"],
    # the phase w t = 2 t_max overflows
    ["periodic", "--x1=0", "--y1=2", "--x2=1", "--t-max=8.98846567431158e+307",
     "--dt=1.797693134862316e+306"],
    # --dt is 0.99 pulse widths, but round(1.48 / 0.99) = 1 step is 1.48
    ["homoclinic", "--c", "1", "--t-min", "-0.74", "--t-max", "0.74", "--dt", "0.99"],
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
    monkeypatch.setattr(domain, "MAX_SAMPLES", 11)
    argv = ["homoclinic", "--c", "1", "--t-min", "0", "--t-max", "10",
            "--out", str(tmp_path / "h.csv")]
    assert run(capsys, argv + ["--dt", "1"])[0] == 0
    assert len((tmp_path / "h.csv").read_text().strip().split("\n")) == 1 + 11
    assert run(capsys, argv + ["--dt", "0.9"])[0] == 2


@pytest.mark.parametrize("argv, t_max", [
    (["homoclinic", "--c", "1", "--t-min", "0", "--t-max", "0.3", "--dt", "1"], 0.3),
    (["periodic", "--x1", "1", "--y1", "1", "--x2", "1", "--dt", "100"], 2 * math.pi),
])
def test_grid_coarser_than_its_span_ends_at_t_max(capsys, tmp_path, argv, t_max):
    # round(span / dt) = 0 steps: the grid takes one, so t_max is a row
    path = tmp_path / "x.csv"
    assert run(capsys, argv + ["--out", str(path)])[0] == 0
    assert read_csv(path)[1][:, 0].tolist() == [0.0, t_max]


def test_rk4_sample_cap_is_inclusive(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(domain, "MAX_SAMPLES", 12)
    argv = SIMULATE + ["--method", "rk4", "--dt", "1", "--out", str(tmp_path / "s.csv")]
    assert run(capsys, argv + ["--t-end", "11"])[0] == 0  # 12 samples
    assert len((tmp_path / "s.csv").read_text().strip().split("\n")) == 1 + 12
    assert run(capsys, argv + ["--t-end", "12"])[0] == 2  # 13 samples


# w = y1 / x2 = 1.3e8: rk45 takes steps of about 1e-9, and t_end / dt_max
# is small, so only the sample cap stops the run
FAST_M1 = (0.05, 1.3300956106059725, 1e-08)
FAST_T_END = 1.3300956106059725


def test_fast_probe_stalls_at_the_sample_cap(monkeypatch):
    monkeypatch.setattr(domain, "MAX_SAMPLES", 1000)
    code, out, err = run_captured(["invariant-probe", "--m1=" + ",".join(map(repr, FAST_M1)),
                                   f"--t-end={FAST_T_END!r}"])
    assert code == 1 and err == ""
    assert len(out.splitlines()) == 1
    rep = json.loads(out)
    assert rep["error"] == "integration stalled"
    assert rep["reason"] == "MAX_SAMPLES = 1000 samples recorded"


def test_fast_simulate_writes_partial_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(domain, "MAX_SAMPLES", 1000)
    x1, y1, x2 = FAST_M1
    p0 = invariant_sets.RankTwoPoint(x1, x2, y1 / x2).state
    out_path = tmp_path / "fast.csv"
    code, out, err = run_captured(
        ["simulate"] + [f"--{n}={v!r}" for n, v in zip(("x1", "y1", "x2", "y2", "z"), p0)]
        + [f"--t-end={FAST_T_END!r}", "--method=rk45", f"--out={out_path}"])
    assert code == 1 and err == ""
    assert json.loads(out)["error"] == "integration stalled"
    header, rows = read_csv(out_path)
    assert ",".join(header) == cli.CSV_HEADER and len(rows) == 1000
    assert rows[0, 0] == 0.0 and np.array_equal(rows[0, 1:6], p0)


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
        bounds = rep["certificate"]["norm_bound_by_eps"]
        assert list(bounds) == ["0.01", "0.0001", "1e-06"]
        assert [round(r, 4) for r in bounds.values()] == [0.5682, 0.1694, 0.0532]


def check_classify(c):
    """classify --c=c: the paper's kind and stability, one JSON object and an
    empty stderr; exit 2 with a usage message where c^2/2 overflows."""
    code, out, err = run_captured(["classify", f"--c={c!r}"])
    if not math.isfinite(0.5 * (c * c)):
        assert (code, out) == (2, "")
        assert err.startswith("usage:") and "Traceback" not in err
        return
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1
    rep = json.loads(out)
    want = (("focus-focus", "unstable") if c > 0 else
            ("center-center", "stable") if c < 0 else ("degenerate", "stable"))
    assert (rep["kind"], rep["stable"]) == want


@settings(derandomize=True, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_classify_any_finite_leaf(c):
    check_classify(c)


@pytest.mark.parametrize("c", [s * c for c in (1e19, 1e30, 1e154, 1.3e154, 1e-200, 5e-324)
                               for s in (1, -1)] + [-1 / 4096, -1.0])
def test_classify_extreme_leaves(c):
    check_classify(c)


def check_report(argv):
    """Any command: exit 0, 1 or 2, one JSON object on stdout and an empty
    stderr, or on exit 2 a usage message and no stdout.  Returns the exit
    code and the report (None on exit 2)."""
    code, out, err = run_captured(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("usage:") and "Traceback" not in err
        return code, None
    assert err == ""
    assert len(out.splitlines()) == 1
    rep = json.loads(out)
    assert isinstance(rep, dict)
    return code, rep


def check_export(path, argv):
    """An export command: the contract of ``check_report``, a CSV on exit 0
    or 1 and none on exit 2."""
    if path.exists():
        path.unlink()
    code, rep = check_report(argv + [f"--out={path}"])
    if rep is None:
        assert not path.exists()
        return
    assert rep["passed"] is (code == 0)
    assert path.read_text().startswith(cli.CSV_HEADER + "\n")


@settings(derandomize=True, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False), st.sampled_from("+-"))
def test_homoclinic_any_finite_leaf(tmp_path_factory, c, theta0, sign):
    # a 51-row grid over +-5 pulse widths 1/sqrt(c)
    width = 1 / math.sqrt(abs(c)) if c else 1.0
    check_export(tmp_path_factory.mktemp("hom") / "h.csv", [
        "homoclinic", f"--c={c!r}", f"--theta0={theta0!r}", f"--sign={sign}",
        f"--t-min={-5 * width!r}", f"--t-max={5 * width!r}", f"--dt={width / 5!r}"])


@settings(derandomize=True, deadline=None)
@given(*[st.floats(allow_nan=False, allow_infinity=False)] * 4)
def test_periodic_any_finite_orbit(tmp_path_factory, x1, y1, x2, t_max):
    # a grid of about 50 steps over [0, t_max]
    check_export(tmp_path_factory.mktemp("per") / "p.csv", [
        "periodic", f"--x1={x1!r}", f"--y1={y1!r}", f"--x2={x2!r}",
        f"--t-max={t_max!r}", f"--dt={t_max / 50!r}"])


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None)
@given(st.lists(FINITE, min_size=5, max_size=5))
def test_rank_any_finite_point(point):
    code, rep = check_report(["rank", "--point=" + ",".join(map(repr, point))])
    assert code == 0 and rep["rank"] in (1, 2, 3)


@settings(derandomize=True, deadline=None)
@given(st.lists(FINITE, min_size=3, max_size=3), FINITE)
def test_invariant_probe_any_finite_start(m1, t_end):
    # a small sample cap keeps every example short
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(domain, "MAX_SAMPLES", 200)
        check_report(["invariant-probe", "--m1=" + ",".join(map(repr, m1)),
                      f"--t-end={t_end!r}"])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.floats(-2, 2), min_size=5, max_size=5)
       | st.lists(FINITE, min_size=5, max_size=5),
       st.sampled_from(["rk4", "rk45"]), st.floats(1e-9, 50), st.integers(1, 5000),
       st.floats(-14, -2).map(lambda e: 10 ** e) | FINITE,
       st.integers(1, 50) | st.integers())
def test_simulate_any_finite_start(tmp_path_factory, p0, method, t_end, n, tol, stride):
    # small caps keep every example short; the start, horizon, step and
    # tolerance are drawn so that runs also finish, and stop in each way
    path = tmp_path_factory.mktemp("sim") / "s.csv"
    argv = ["simulate"] + [f"--{name}={v!r}"
                           for name, v in zip(("x1", "y1", "x2", "y2", "z"), p0)]
    argv += [f"--t-end={t_end!r}", f"--method={method}", f"--dt={t_end / n!r}",
             f"--tol={tol!r}", f"--stride={stride}", f"--out={path}"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(domain, "MAX_SAMPLES", 200)
        mp.setattr(integrate, "MAX_STEPS", 2000)
        code, rep = check_report(argv)
        if rep is None:
            assert not path.exists()
            return
        # the record of the same run in process: the CSV is its per-value repr
        cfg = integrate.IntegratorConfig(method=method, t_end=t_end, dt=t_end / n,
                                         abs_tol=tol, rel_tol=tol, sample_stride=stride)
        try:
            traj = integrate.integrate(p0, cfg)
        except (integrate.IntegrationStalledError, integrate.StateOverflowError) as exc:
            traj = exc.trajectory
    table = np.column_stack((traj.times, traj.states, traj.conserved))
    assert path.read_text() == oracle_csv(table)
    rows = read_csv(path)[1].reshape(-1, 9)
    if code == 0:
        assert rep["samples"] == len(rows)
    else:
        assert np.isfinite(rows).all()
        assert rows[-1, 0] <= rep["t_reached"]


@settings(derandomize=True, deadline=None, max_examples=10)
@given(st.integers())
def test_verify_any_seed(seed):
    code, rep = check_report(["verify", f"--seed={seed}", "--level=quick"])
    if seed < 0:
        assert code == 2
    else:
        assert code == 0 and rep["all_passed"] is True


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

    def test_homoclinic_large_leaf_is_silent(self, capsys, tmp_path):
        # a grid that resolves the pulse (width 1e-10, step 1e-11) and where
        # cosh(sqrt(c) t) still overflows over most of it; sech is then 0
        code = main(["homoclinic", "--c", "1e20", "--t-min=-1e-7", "--t-max", "1e-7",
                     "--dt", "1e-11", "--out", str(tmp_path / "h.csv")])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_homoclinic_large_leaf_residual_is_relative(self, capsys, tmp_path,
                                                       monkeypatch):
        # the field along the orbit scales as c^1.5 = 1e30: a relative
        # derivative error of 1e-6 must fail the residual check
        argv = ["homoclinic", "--c", "1e20", "--t-min=-1e-7", "--t-max", "1e-7",
                "--dt", "1e-11", "--out", str(tmp_path / "h.csv")]
        code, out = run(capsys, argv)
        rep = json.loads(out)
        assert code == 0 and rep["max_ode_residual"] < rep["tolerance"] < 1e19
        deriv = solutions.homoclinic_derivative
        monkeypatch.setattr(solutions, "homoclinic_derivative",
                            lambda par, t: (1 + 1e-6) * deriv(par, t))
        code, out = run(capsys, argv)
        assert code == 1
        assert json.loads(out)["passed"] is False

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

    @pytest.mark.parametrize("point", ["1e200,1,1,1,1", "1.5e10,1,1,1,1"])
    def test_rank_of_point_with_large_coordinate(self, capsys, point):
        # grad I and grad C scale with x1, grad H does not
        code, out = run(capsys, ["rank", "--point", point])
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

    def test_probe_stall_is_a_runtime_failure(self, capsys):
        # |x2| = 2.3e14 makes the flow so fast that rk45's step underflows
        code, out = run(capsys, ["invariant-probe", "--m1=0,1e-12,234952076468580.0",
                                 "--t-end=1"])
        assert code == 1
        assert json.loads(out)["error"] == "integration stalled"

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
    # nor NumPy: the commands import what they run
    proc = run_process(["-c", "import sys, mbloch.cli; "
                              "print('scipy' in sys.modules, 'numpy' in sys.modules)"],
                       timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


@functools.cache
def numpy_import_loads_random():
    """Whether a bare ``import numpy`` loads ``numpy.random``: NumPy 1 imports
    its public submodules with the package, NumPy 2 on first use."""
    proc = run_process(["-c", "import sys, numpy; print('numpy.random' in sys.modules)"],
                       timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def main_in_process(argv):
    """Exit code of ``main(argv)`` in a fresh interpreter, and the names in its
    ``sys.modules`` afterwards."""
    code = ("import json, sys\n"
            "from mbloch.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
            "sys.exit(code)\n")
    proc = run_process(["-c", code, *argv], timeout=120)
    return proc.returncode, json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize("argv, code", [
    (["classify", "--c", "1"], 0),
    (["classify", "--c", "-1"], 0),
    (["classify", "--c", "0"], 0),
    (["--help"], 0),
    (["classify", "--c", "nan"], 2),
])
def test_closed_form_commands_start_without_numpy(argv, code):
    # the closed-form classification needs math.sqrt only; NumPy's import
    # would be most of such a process's time
    got, modules = main_in_process(argv)
    assert got == code
    assert "numpy" not in modules


@pytest.mark.parametrize("argv, code", [
    (SIMULATE + ["--t-end", "1", "--method", "rk4", "--dt", "0.01"], 0),
    (SIMULATE + ["--t-end", "1", "--method", "rk45"], 0),
    (SIMULATE + ["--t-end", "10", "--method", "rk4", "--dt", "1", "--z", "1e100"], 1),
    (SIMULATE + ["--t-end", "10", "--method", "rk45", "--z", "1e60"], 1),
])
def test_short_simulate_starts_without_numpy(tmp_path, argv, code):
    # a run of at most CSV_SPLIT_ROWS samples is integrated, checked, written
    # and reduced on plain floats, finished or stopped
    got, modules = main_in_process(argv + ["--out", str(tmp_path / "s.csv")])
    assert got == code
    assert "numpy" not in modules and "mbloch.core" not in modules


def test_long_simulate_loads_the_batched_writer(tmp_path):
    # 8 200 steps of 1e-3 record 8 201 samples, more than CSV_SPLIT_ROWS
    steps = cli.CSV_SPLIT_ROWS + 8
    path = tmp_path / "s.csv"
    got, modules = main_in_process(SIMULATE + ["--t-end", repr(steps / 1000), "--method",
                                               "rk4", "--dt", "0.001", "--out", str(path)])
    assert got == 0
    assert "numpy" in modules and "mbloch.shortest" in modules
    assert len(path.read_text().splitlines()) == 1 + steps + 1


@pytest.mark.parametrize("argv, loaded", [
    (SIMULATE + ["--t-end", "0.1"], ["cli", "domain", "integrate"]),
    (["rank", "--point", "1,2,3,4,5"], ["cli", "domain", "invariant_sets"]),
    (["homoclinic", "--c", "1", "--dt", "0.1"],
     ["cli", "core", "domain", "invariant_sets", "shortest", "solutions"]),
    (["periodic", "--x1", "1", "--y1", "1", "--x2", "0.5", "--dt", "0.1"],
     ["cli", "core", "domain", "invariant_sets", "shortest", "solutions"]),
    (["invariant-probe", "--m1", "0,1,1", "--t-end", "1"],
     ["cli", "domain", "integrate", "invariant_sets"]),
    (["verify", "--level", "quick"],
     ["cli", "core", "domain", "equilibria", "integrate", "invariant_sets", "solutions",
      "verify"]),
])
def test_commands_load_only_the_modules_they_run(tmp_path, argv, loaded):
    # every module a process imports costs start-up time (and, where no
    # bytecode cache is written, compile time), so none is imported eagerly;
    # verify is imported by the verify command alone
    if argv[0] in WRITES_CSV:
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    code, modules = main_in_process(argv)
    assert code == 0
    assert [m.split(".", 1)[1] for m in modules if m.startswith("mbloch.")] == loaded
    # a command that needs no array (a short simulate, rank, invariant-probe)
    # starts without NumPy
    assert ("numpy" in modules) == ("core" in loaded)
    # verify draws from random.Random, so numpy.random (about 6 MB of
    # resident memory) is loaded only where `import numpy` itself loads it
    assert "numpy.random" not in modules or numpy_import_loads_random()


def test_rank_of_a_stack_without_numpy_loaded():
    # a single state is reduced on plain floats where NumPy is not loaded; a
    # stack still is reduced as an array
    proc = run_process(["-c", "from mbloch.invariant_sets import rank_F; "
                              "print(rank_F([[1, 1, 1, -1, -1], [1, 2, 3, 4, 5]]).rank.tolist())"],
                       timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[2, 3]"


def test_verify_levels_have_one_spelling():
    # the parser spells out the levels so that it need not import verify
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    level = next(a for a in sub.choices["verify"]._actions if a.dest == "level")
    assert level.choices == [verify.QUICK, verify.FULL]
    assert level.default == verify.QUICK


def test_package_import_loads_no_module():
    # callers import each name from its module; the package itself is empty
    proc = run_process(["-c", "import sys, mbloch; "
                              "print(sorted(m for m in sys.modules if m.startswith('mbloch.')))"],
                       timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# every subcommand, each quick to run
EVERY_COMMAND = [
    SIMULATE + ["--t-end", "1"],
    ["classify", "--c", "1"],
    ["homoclinic", "--c", "1", "--dt", "0.1"],
    ["periodic", "--x1", "1", "--y1", "1", "--x2", "0.5", "--dt", "0.1"],
    ["rank", "--point", "1,2,3,4,5"],
    ["invariant-probe", "--m1", "0,1,1", "--t-end", "1"],
    ["verify", "--level", "quick"],
]


@pytest.mark.parametrize("stdout", ["dev-full", "closed-pipe", "closed-fd"])
@pytest.mark.parametrize("argv", EVERY_COMMAND + [["--help"], ["classify", "--help"]],
                         ids=lambda argv: " ".join(argv) if "--help" in argv else argv[0])
def test_a_failing_stdout_is_exit_1_without_a_traceback(tmp_path, argv, stdout):
    # the report (or the help text) is lost, so the command exits 1 with one
    # line on stderr, and an --out command keeps the CSV it wrote before the report
    path = tmp_path / "out.csv"
    if argv[0] in WRITES_CSV:
        argv = argv + [f"--out={path}"]
    run = functools.partial(subprocess.run, [sys.executable, "-m", "mbloch.cli", *argv],
                            stderr=subprocess.PIPE, text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=SRC))
    if stdout == "dev-full":  # every write fails with ENOSPC
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            proc = run(stdout=full)
    elif stdout == "closed-pipe":  # the reader is gone before the first write: EPIPE
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run(stdout=write)
        finally:
            os.close(write)
    else:  # fd 1 closed, so sys.stdout is None
        proc = run(stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("mbloch: cannot write the report to stdout: ")
    if argv[0] in WRITES_CSV:
        csv = path.read_bytes()
        assert run_captured(argv)[0] == 0 and path.read_bytes() == csv
