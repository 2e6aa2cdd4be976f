"""The mbloch benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload rk4_long --seed 0 --seconds 30 --trace 0

Run it from anywhere; it benchmarks the sources in ``src/`` next to this
directory.  Workloads (see README.md): ``rk4_long``, ``rk45_sweep``,
``cli_session``.  Load is a closed loop with one client: each operation
starts when the previous one has ended.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The report goes to stdout; its last
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The full record (environment, inputs, samples, failures) is written to
``perfbench/results/``.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time

import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
PY = sys.executable
OP_TIMEOUT_S = 150.0
SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
# Units per run, at least, so that every median has a few samples.
MIN_UNITS = {"rk4_long": 11, "rk45_sweep": 3, "cli_session": 2}

END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "traj_per_s": ("1/s", "higher"),
    "rows_per_s": ("1/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "max_abs_dH": ("abs", "lower"),
    "max_abs_dI": ("abs", "lower"),
    "max_abs_dC": ("abs", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CHILD_ENV = _env()


def run_child(argv, workdir, timeout=OP_TIMEOUT_S):
    """Run one child to completion: (wall s, exit code, stdout, stderr, peak RSS MB).

    The child's own rusage comes from ``os.wait4``; a child that outlives
    ``timeout`` is killed and reported with its signal as exit code."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return wall, proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0


def _cli(argv):
    return [PY, "-m", "mbloch.cli", *argv]


def _worker(mode, spec, workdir):
    path = os.path.join(workdir, f"{mode}.spec.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return [PY, os.path.join(HERE, "worker.py"), mode, path]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def environment(loadavg_start):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    def git(*args):
        try:
            res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                 timeout=30)
        except OSError:
            return None
        return res.stdout if res.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "git_commit": commit.strip() if commit else "unknown",
            "git_dirty": bool(status.strip()) if status is not None else "unknown",
            "loadavg_start": loadavg_start, "loadavg_end": loadavg()}


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def check_sources(workdir):
    """Fail unless the mbloch under test is the one in this checkout.

    Also the warm-up: the first import writes the bytecode caches, which
    users do not pay again on later runs."""
    _, rc, out, err, _ = run_child(
        [PY, "-c", "import mbloch.cli; print(mbloch.cli.__file__)"], workdir)
    origin = out.strip()
    if rc != 0 or not origin.startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: mbloch does not import from {SRC}: {err.strip()}")


# --- end-to-end runs -------------------------------------------------------


def setup_time(workload, inputs, workdir, repeats):
    if workload == "rk45_sweep":
        argv = _worker("setup", {"inputs": inputs}, workdir)
    else:
        argv = [PY, "-c", "import mbloch.cli"]
    walls = []
    for _ in range(repeats):
        wall, rc, _, err, _ = run_child(argv, workdir)
        if rc != 0:
            raise SystemExit(f"perfbench: set-up failed: {err.strip()}")
        walls.append(wall)
    return stats.median(walls), walls


def _drifts(rep):
    return rep["max_abs_dH"], rep["max_abs_dI"], rep["max_abs_dC"]


def measure_rk4_long(inputs, seconds, min_units, workdir):
    argv, expect = workloads.rk4_command(inputs, workdir)
    outputs = []

    def unit():
        wall, rc, out, _, rss = run_child(_cli(argv), workdir)
        problems = workloads.check_command(rc, out, expect)
        if outputs and out != outputs[0][2]:
            problems.append("report differs from the first run on the same input")
        outputs.append((problems, rss, out))
        return (wall,)

    walls = [w for (w,) in stats.closed_loop(unit, seconds, min_units)]
    outcomes = [p for p, _, _ in outputs]
    first = next((json.loads(out) for p, _, out in outputs if not p), None)
    wall = stats.repeat_time(walls)
    metrics = {
        "wall_s": wall,
        "steps_per_s": expect["steps"] / wall,
        "traj_per_s": 1.0 / wall,
        "rows_per_s": expect["samples"] / wall,
        "peak_rss_mb": stats.median([rss for _, rss, _ in outputs]),
    }
    if first is not None:
        metrics.update(zip(("max_abs_dH", "max_abs_dI", "max_abs_dC"), _drifts(first)))
    return metrics, walls, outcomes, {"unit_walls": walls}


def measure_cli_session(inputs, seconds, min_units, workdir):
    commands = workloads.cli_session_commands(inputs, workdir)
    sessions = []

    def unit():
        runs = []
        for name, argv, expect in commands:
            wall, rc, out, _, rss = run_child(_cli(argv), workdir)
            runs.append((name, wall, rss, workloads.check_command(rc, out, expect), out))
        sessions.append(runs)
        return (sum(r[1] for r in runs),)

    walls = [w for (w,) in stats.closed_loop(unit, seconds, min_units)]
    by_name = {}
    for runs in sessions:
        for name, wall, _, _, _ in runs:
            by_name.setdefault(name, []).append(wall)
    expect = {name: exp for name, _, exp in commands}
    export_rows = expect["homoclinic"]["rows"] + expect["periodic"]["rows"]
    outcomes = [r[3] for runs in sessions for r in runs]
    wall = stats.mean(walls)
    metrics = {
        "wall_s": wall,
        "traj_per_s": 3.0 / wall,
        "rows_per_s": export_rows / (stats.mean(by_name["homoclinic"])
                                     + stats.mean(by_name["periodic"])),
        "peak_rss_mb": stats.median([max(r[2] for r in runs) for runs in sessions]),
    }
    sim = [r for runs in sessions for r in runs if r[0] == "simulate" and not r[3]]
    if sim:
        rep = json.loads(sim[0][4])
        metrics["steps_per_s"] = (rep["samples"] - 1) / wall
        metrics.update(zip(("max_abs_dH", "max_abs_dI", "max_abs_dC"), _drifts(rep)))
    ops = [w for runs in sessions for _, w, _, _, _ in runs]
    return metrics, ops, outcomes, {"unit_walls": walls, "command_walls": by_name}


def measure_rk45_sweep(inputs, seconds, min_units, workdir):
    out_path = os.path.join(workdir, "sweep.json")
    spec = {"inputs": inputs, "seconds": seconds, "min_units": min_units, "out": out_path}
    _, rc, _, err, rss = run_child(_worker("sweep", spec, workdir), workdir,
                                   timeout=seconds + 3 * OP_TIMEOUT_S)
    if rc != 0:
        raise SystemExit(f"perfbench: sweep worker failed: {err.strip()}")
    res = _read_json(out_path)
    recs = res["records"]
    wall = sum(res["times"])
    metrics = {
        "wall_s": wall,
        "steps_per_s": sum(r["accepted"] for r in recs) / wall,
        "traj_per_s": len(recs) / wall,
        "rows_per_s": sum(r["samples"] for r in recs) / wall,
        "max_abs_dH": max(r["dH"] for r in recs),
        "max_abs_dI": max(r["dI"] for r in recs),
        "max_abs_dC": max(r["dC"] for r in recs),
        "peak_rss_mb": rss,
    }
    escapes = [r["t_escape"] for r in recs if r["t_escape"] is not None]
    return metrics, res["times"], res["outcomes"], {
        "unit_walls": res["walls"], "trajectory_s": res["times"], "escape_times": escapes}


MEASURE = {"rk4_long": measure_rk4_long, "rk45_sweep": measure_rk45_sweep,
           "cli_session": measure_cli_session}


def end_to_end(workload, inputs, seconds, small, workdir):
    setup, setup_walls = setup_time(workload, inputs, workdir, 1 if small else SETUP_REPEATS)
    min_units = 1 if small else MIN_UNITS[workload]
    metrics, ops, outcomes, details = MEASURE[workload](inputs, seconds, min_units, workdir)
    metrics["setup_s"] = setup
    metrics["op_p50_s"] = stats.median(ops)
    tail, pct, n = stats.tail(ops)
    metrics["op_tail_s"] = tail
    details.update(setup_walls=setup_walls, op_tail_percentile=pct, operations=n)
    return {k: (v, END_TO_END[k][0]) for k, v in metrics.items()}, outcomes, details


# --- traced run ------------------------------------------------------------


def import_costs(stderr):
    """Seconds of ``-X importtime`` output: mbloch (cumulative), numpy and
    scipy (cumulative of their outermost entries, whoever imported them)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum_us, name = line.split("|")
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(cum_us)))
    # the output is post-order (children first); reversed it is pre-order
    totals = {"mbloch": 0, "numpy": 0, "scipy": 0}
    stack = []
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        pkg = name.split(".")[0]
        if pkg in totals and all(a.split(".")[0] != pkg for _, a in stack):
            totals[pkg] += cum
        stack.append((depth, name))
    return {k: v / 1e6 for k, v in totals.items()}


def startup_metrics(workdir, repeats):
    samples = []
    for _ in range(repeats):
        _, rc, _, err, _ = run_child([PY, "-X", "importtime", "-c", "import mbloch.cli"],
                                     workdir)
        if rc != 0:
            raise SystemExit("perfbench: import mbloch.cli failed")
        samples.append(import_costs(err))
    return {
        "startup.import_mbloch_cli_s": (stats.median([s["mbloch"] for s in samples]), "s"),
        "startup.import_numpy_s": (stats.median([s["numpy"] for s in samples]), "s"),
        "startup.import_scipy_s": (stats.median([s["scipy"] for s in samples]), "s"),
    }


def traced(workload, seed, inputs, seconds, small, workdir):
    metrics = startup_metrics(workdir, 1 if small else IMPORTTIME_REPEATS)
    probe_inputs = workloads.generate("cli_session", seed, small=True)
    probe_inputs["verify"]["level"] = "full"
    out_path = os.path.join(workdir, "traced.json")
    spec = {"workload": workload, "inputs": inputs, "probe_inputs": probe_inputs,
            "seconds": seconds, "min_pairs": 1, "workdir": workdir, "out": out_path,
            "spans_path": os.path.join(RESULTS, f"spans-{workload}-seed{seed}.npz")}
    _, rc, _, err, _ = run_child(_worker("traced", spec, workdir), workdir,
                                 timeout=seconds + 3 * OP_TIMEOUT_S)
    if rc != 0:
        raise SystemExit(f"perfbench: traced worker failed: {err.strip()}")
    res = _read_json(out_path)
    metrics.update({k: tuple(v) for k, v in res.pop("metrics").items()})
    outcomes = res.pop("outcomes")
    return metrics, outcomes, res


# --- entry -----------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny inputs and single repeats (harness smoke test)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "mbloch", "cli.py")):
        print(f"perfbench: no mbloch sources under {SRC}", file=sys.stderr)
        return 2

    load0 = loadavg()
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        check_sources(workdir)
        inputs = workloads.generate(args.workload, args.seed, small=args.small)
        if args.trace:
            metrics, outcomes, details = traced(args.workload, args.seed, inputs,
                                                args.seconds, args.small, workdir)
        else:
            metrics, outcomes, details = end_to_end(args.workload, inputs, args.seconds,
                                                    args.small, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, rate = workloads.error_rate(outcomes)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "small": args.small, "environment": environment(load0),
              "inputs": inputs, "error_rate": rate,
              "problems": [p for p in outcomes if p][:20], "details": details,
              "metrics": {k: {"value": v, "unit": u} for k, v, u in
                          ((k, *metrics[k]) for k in sorted(metrics))}}
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    print("environment " + json.dumps(record["environment"]))
    for name, m in record["metrics"].items():
        better = END_TO_END.get(name, ("", ""))[1]
        print(f"  {name:44s} {m['value']:<14.6g} {m['unit']:6s} {better}")
    if not args.trace:
        print(f"  op_tail_s is p{details['op_tail_percentile']:.1f} of "
              f"{details['operations']} operations")
    print(f"  error_rate {rate:.6g} ({failed} of {attempted} operations failed)")
    for p in record["problems"]:
        print(f"  FAILED: {'; '.join(p)}")
    print(f"record {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
