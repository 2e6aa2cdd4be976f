"""Smoke test of the benchmark harness (tiny sizes, about half a minute).

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--small"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    res = _result(_run(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    res = _result(_run("rk4_long", 1))
    assert res["correct"], res
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("rk4_long", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_come_from_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 5) == workloads.generate(w, 5)
        assert workloads.generate(w, 5) != workloads.generate(w, 6)
        assert workloads.generate(w, workloads.HELD_OUT_SEED) != \
            workloads.generate(w, workloads.DEFAULT_SEED)


def _csv(path, rows):
    path.write_text(workloads.CSV_HEADER + "\n" + "0.0,1,1,1,1,1,1,1,1\n" * rows)
    return str(path)


def test_bad_outputs_count_as_failures(tmp_path):
    sim = {"kind": "simulate", "out": _csv(tmp_path / "short.csv", 3), "samples": 4,
           "drift_budget": 1e-6}
    good_sim = json.dumps({"max_abs_dH": 1e-9, "max_abs_dI": 1e-9, "max_abs_dC": 1e-9,
                           "samples": 4})
    export = {"kind": "export", "out": _csv(tmp_path / "exp.csv", 5), "rows": 5}
    bad = [
        workloads.check_command(0, good_sim, sim),  # CSV one row short
        workloads.check_command(1, good_sim, dict(sim, out=_csv(tmp_path / "ok.csv", 4))),
        workloads.check_command(0, good_sim + "\n" + good_sim,
                                dict(sim, out=_csv(tmp_path / "ok2.csv", 4))),
        workloads.check_command(0, json.dumps({"all_passed": False, "results": []}),
                                {"kind": "verify"}),
        workloads.check_command(0, json.dumps({"passed": False}), export),
        workloads.check_command(0, json.dumps({"kind": "center-center", "stable": "stable"}),
                                {"kind": "classify", "c": 1.0}),
        workloads.check_command(0, json.dumps({"kind": "degenerate", "stable": "stable"}),
                                {"kind": "classify", "c": 0.0}),
        workloads.check_command(0, json.dumps({"rank": 3}), {"kind": "rank", "rank": 2}),
        workloads.check_command(0, json.dumps({"puncture_count": 5, "predicted_punctures": 4,
                                               "max_distance_to_union": 1e-15}),
                                {"kind": "invariant-probe"}),
        workloads.check_trajectory({"c": -1.0, "kind": "center-center", "t_escape": 3.0,
                                    "dH": 1e-9, "dI": 1e-9, "dC": 1e-9, "accepted": 9}),
        workloads.check_trajectory({"c": 1.0, "kind": "center-center", "t_escape": 3.0,
                                    "dH": 1e-9, "dI": 1e-9, "dC": 1e-9, "accepted": 9}),
    ]
    good = [
        workloads.check_command(0, good_sim, dict(sim, out=_csv(tmp_path / "ok3.csv", 4))),
        workloads.check_command(0, json.dumps({"passed": True}), export),
        workloads.check_trajectory({"c": 1.0, "kind": "focus-focus", "t_escape": 3.0,
                                    "dH": 1e-9, "dI": 1e-9, "dC": 1e-9, "accepted": 9}),
    ]
    assert all(bad) and not any(good)
    attempted, failed, rate = workloads.error_rate(bad + good)
    assert (attempted, failed) == (len(bad) + len(good), len(bad))
    assert rate == len(bad) / attempted


def test_tail_percentile_keeps_ten_beyond():
    value, pct, n = stats.tail(list(range(100)))
    assert (value, pct, n) == (89, 90.0, 100)
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_import_costs_take_outermost_entries():
    err = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |        350 |   mbloch",
        "import time:        10 |         10 |       scipy",
        "import time:        20 |         30 |     scipy.optimize",
        "import time:         5 |         35 |   mbloch.cli",
    ])
    assert run.import_costs(err) == {"mbloch": 385e-6, "numpy": 300e-6, "scipy": 30e-6}


def test_repeat_time_is_the_90th_percentile():
    assert stats.repeat_time([float(v) for v in range(11)]) == 9.0
    assert stats.repeat_time([4.0, 1.0, 3.0, 2.0, 0.0]) == pytest.approx(3.6)
    assert stats.repeat_time([2.5]) == 2.5
