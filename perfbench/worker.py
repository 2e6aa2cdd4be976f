"""Child process of the benchmark: the parts of a run that call mbloch in-process.

    python3 perfbench/worker.py <mode> <spec.json>

Modes:
  setup   import mbloch and build the rk45_sweep inputs, then exit (timed
          from outside as that workload's set-up).
  sweep   the untraced rk45_sweep: closed loop of sweeps for the given time.
  traced  the traced run of any workload: untraced and traced units
          alternate, in-process (CLI workloads drive ``cli.main`` with the
          same argv as the subprocess run), followed by the layer probe.

The spec names an output file; the worker writes one JSON object there.
"""

import contextlib
import importlib
import io
import json
import sys
import time

import numpy as np

import stats
import workloads


class Sweep:
    """rk45_sweep: classify, integrate, drift-check and time the escape of
    each seeded leaf equilibrium."""

    def __init__(self, inputs):
        self.integ = importlib.import_module("mbloch.integrate")
        self.eq = importlib.import_module("mbloch.equilibria")
        self.leaves = inputs["leaves"]
        kick = np.array(inputs["kick"])
        self.centers = [np.array([0.0, 0.0, 0.0, 0.0, c]) for c in self.leaves]
        self.starts = [e + kick for e in self.centers]
        self.cfg = self.integ.IntegratorConfig(
            method="rk45", t_end=inputs["t_end"], abs_tol=inputs["tol"],
            rel_tol=inputs["tol"], sample_stride=1)
        self.radius = inputs["escape_radius"]

    def trajectory(self, i):
        c = self.leaves[i]
        kind = self.eq.cartan_classify(self.centers[i], c).kind
        traj = self.integ.integrate(self.starts[i], self.cfg)
        rep = self.integ.drift_report(traj)
        far = np.flatnonzero(np.linalg.norm(traj.states - self.centers[i], axis=1)
                             > self.radius)
        return {"c": c, "kind": kind,
                "t_escape": float(traj.times[far[0]]) if far.size else None,
                "dH": rep.max_abs_dH, "dI": rep.max_abs_dI, "dC": rep.max_abs_dC,
                "accepted": len(traj) - 1, "samples": len(traj)}

    def unit(self, tracer=None):
        """One sweep; returns (wall, per-trajectory records with latency)."""
        records = []
        t0 = time.perf_counter()
        for i in range(len(self.leaves)):
            t1 = time.perf_counter()
            if tracer is None:
                rec = self.trajectory(i)
            else:
                tracer.current_op += 1
                idx = tracer.begin("op")
                try:
                    rec = self.trajectory(i)
                finally:
                    tracer.finish(idx)
            rec["latency"] = time.perf_counter() - t1
            records.append(rec)
        return time.perf_counter() - t0, records


class CliDrive:
    """The CLI workloads in-process: the subprocess argv through cli.main."""

    def __init__(self, commands):
        self.cli = importlib.import_module("mbloch.cli")
        self.commands = commands  # (name, argv, expect)

    def unit(self, tracer=None):
        outputs = []
        wall = 0.0
        for name, argv, expect in self.commands:
            buf = io.StringIO()
            t1 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    tracer.current_op += 1
                    idx = tracer.begin("op")
                    sub = tracer.begin("cli." + argv[0])
                    try:
                        rc = self.cli.main(argv)
                    finally:
                        tracer.finish(sub)
                        tracer.finish(idx)
            wall += time.perf_counter() - t1
            outputs.append((rc, buf.getvalue(), expect))
        return wall, outputs


def _problems(workload, outputs):
    if workload == "rk45_sweep":
        return [workloads.check_trajectory(rec) for rec in outputs]
    return [workloads.check_command(rc, out, expect) for rc, out, expect in outputs]


def _drive(workload, inputs, workdir):
    if workload == "rk45_sweep":
        return Sweep(inputs)
    if workload == "rk4_long":
        argv, expect = workloads.rk4_command(inputs, workdir)
        return CliDrive([("simulate", argv, expect)])
    return CliDrive(workloads.cli_session_commands(inputs, workdir))


def rk4_step_us():
    """Direct timing of ``integrate.rk4_step``: no driver calls it by default."""
    integ = importlib.import_module("mbloch.integrate")
    p = np.array(workloads.BASE_POINT)
    reps = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(2000):
            integ.rk4_step(p, 1e-2)
        reps.append((time.perf_counter() - t0) / 2000 * 1e6)
    return stats.median(reps)


def run_traced(spec):
    import tracing

    workload = spec["workload"]
    drive = _drive(workload, spec["inputs"], spec["workdir"])
    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(tracer)
    outcomes = []
    plain, traced = [], []
    mismatches = 0
    t0 = time.perf_counter()
    while True:
        pairs = len(traced)
        if pairs >= spec["min_pairs"] and time.perf_counter() - t0 + \
                stats.median(plain) + stats.median(traced) > spec["seconds"]:
            break
        wall, outputs = drive.unit()
        plain.append(wall)
        outcomes += _problems(workload, outputs)
        tracer.current_unit = pairs
        inst.install()
        try:
            wall, outputs = drive.unit(tracer)
        finally:
            inst.uninstall()
        traced.append(wall)
        outcomes += _problems(workload, outputs)
        mismatches += inst.count_pass()

    # layer probe: a small traced CLI session (plus the kernel microloop)
    # gives a time for every layer this workload never calls
    tracer.current_unit = -1
    probe = CliDrive(workloads.cli_session_commands(spec["probe_inputs"], spec["workdir"]))
    inst.install()
    try:
        _, outputs = probe.unit(tracer)
    finally:
        inst.uninstall()
    outcomes += _problems("cli_session", outputs)
    mismatches += inst.count_pass()
    outcomes += [["rk45 counting path differs from the timed path"]] * mismatches

    table = tracing.span_table(tracer)
    units = len(traced)
    metrics, sources = tracing.layer_metrics(table, units)
    metrics["integrate.rk4_step.us_per_call"] = (rk4_step_us(), "us")
    sources["integrate.rk4_step.us_per_call"] = "microloop"
    metrics["trace.overhead_s"] = (stats.median(traced) - stats.median(plain), "s")
    tracer.save(spec["spans_path"])
    return {
        "metrics": metrics, "sources": sources,
        "self_s_per_unit": tracing.self_time_by_layer(table, units),
        "spans": len(tracer.start), "units": units,
        "untraced_wall_s": plain, "traced_wall_s": traced,
        "outcomes": outcomes,
    }


def run_sweep(spec):
    sweep = Sweep(spec["inputs"])
    results = stats.closed_loop(sweep.unit, spec["seconds"], spec["min_units"])
    walls = [wall for wall, _ in results]
    records = [rec for _, recs in results for rec in recs]
    outcomes = _problems("rk45_sweep", records)
    # every sweep runs the same inputs, so every repeat must agree exactly
    first = [{k: v for k, v in r.items() if k != "latency"} for r in results[0][1]]
    for _, recs in results[1:]:
        again = [{k: v for k, v in r.items() if k != "latency"} for r in recs]
        if again != first:
            outcomes.append(["sweep results differ between repeats"])
    # one time per trajectory from its repeats (see "Noise" in README.md)
    times = [stats.repeat_time([recs[i]["latency"] for _, recs in results])
             for i in range(len(first))]
    return {"walls": walls, "records": first, "times": times, "outcomes": outcomes}


def main():
    mode, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    if mode == "setup":
        Sweep(spec["inputs"])
        return
    result = run_sweep(spec) if mode == "sweep" else run_traced(spec)
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
