"""Seeded inputs, command lines and output checks for the three workloads.

Everything here is plain standard library: the harness that imports it
never imports numpy or mbloch, so its own start-up does not disturb the
processes it times.  The program under test only ever receives the values
generated here.

Input domain note: ``solutions.puncture_times`` is only right for M1
points with ``x2 > 0`` and ``y1 > 0``.  With ``x2 / y1 < 0`` its times
decrease without bound and ``invariant-probe`` never returns; with both
negative it misses the first puncture, so ``predicted_punctures`` is one
short.  The ``invariant-probe`` input is therefore drawn with ``x2, y1 > 0``.
"""

import json
import math
import os
import random

WORKLOADS = ("rk4_long", "rk45_sweep", "cli_session")
DEFAULT_SEED = 0
# Reserved for checking a performance claim on inputs nobody tuned against.
HELD_OUT_SEED = 7919

CSV_HEADER = "t,x1,y1,x2,y2,z,H,I,C"
BASE_POINT = (1.0, 1.0, 0.5, -0.5, 0.2)
# Fixed direction of the 1e-3 kick off each axis equilibrium in rk45_sweep.
# With a seeded direction the worst dI over a sweep moved by 15% (IQR over
# median) from seed to seed; with a fixed one it depends only on the seeded
# leaf values and moves by under 1%.
KICK = (0.6, -0.3, 0.5, 0.4, -0.35)
KICK_SIZE = 1e-3
ESCAPE_RADIUS = 0.5
# Conservation budgets for the checks; the measured drifts are 2-4 orders
# of magnitude smaller.
RK4_DRIFT_BUDGET = 1e-6
RK45_DRIFT_BUDGET = 1e-7


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _jittered_point(rng, size):
    return [v + rng.uniform(-size, size) for v in BASE_POINT]


def _m1_point(rng, sign):
    return (rng.uniform(-1.5, 1.5), sign[0] * rng.uniform(0.5, 1.5),
            sign[1] * rng.uniform(0.5, 1.5))


def _m1_embed(x1, y1, x2):
    return (x1, y1, x2, -x1 * y1 / x2, -(y1 / x2) ** 2)


def generate(workload, seed, small=False):
    """All inputs of one run of ``workload``, as JSON-serialisable data.

    ``small`` shrinks every size for the harness smoke test.
    """
    rng = _rng(workload, seed)
    if workload == "rk4_long":
        return {"p0": _jittered_point(rng, 1e-3),
                "t_end": 50.0 if small else 2000.0, "dt": 1e-2, "stride": 100}
    if workload == "rk45_sweep":
        n = 3 if small else 30
        pos = [0.25 + (k + rng.random()) / n * 1.75 for k in range(n)]
        neg = [-(0.25 + (k + rng.random()) / n * 1.75) for k in range(n)]
        leaves = [c for pair in zip(pos, neg) for c in pair]
        norm = math.sqrt(sum(v * v for v in KICK))
        kick = [KICK_SIZE * v / norm for v in KICK]
        return {"leaves": leaves, "kick": kick, "t_end": 30.0, "tol": 1e-10,
                "escape_radius": ESCAPE_RADIUS}
    if workload == "cli_session":
        rows = 2000 if small else 100000
        rank_m1 = _m1_point(rng, (rng.choice((-1, 1)), rng.choice((-1, 1))))
        probe_m1 = _m1_point(rng, (1, 1))  # see the module note
        x1, y1, x2 = probe_m1
        # end the probe halfway between two punctures, so that sampling
        # cannot move a sign change of x2 across t_end
        ratio = x2 / y1
        vartheta = math.atan2(x2, x1) % (2.0 * math.pi)
        k = max(0, math.ceil(15.0 / (math.pi * ratio) - vartheta / math.pi))
        probe_t_end = ratio * (vartheta + (k + 0.5) * math.pi)
        per = (rng.uniform(-1.5, 1.5), rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5),
               rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5))
        period = 2.0 * math.pi / abs(per[1] / per[2])
        return {
            "classify_c": [rng.uniform(0.5, 2.0), rng.uniform(-2.0, -0.5), 0.0],
            "rank_point": list(_m1_embed(*rank_m1)),
            "probe_m1": list(probe_m1),
            "probe_t_end": probe_t_end,
            "homoclinic": {"c": rng.uniform(0.5, 2.0),
                           "theta0": rng.uniform(0.0, 2.0 * math.pi),
                           "sign": rng.choice("+-"), "t_min": -10.0, "t_max": 10.0,
                           "dt": 20.0 / rows},
            "periodic": {"x1": per[0], "y1": per[1], "x2": per[2],
                         "t_max": period, "dt": period / rows},
            "simulate": {"p0": _jittered_point(rng, 1e-3), "t_end": 20.0},
            "verify": {"seed": rng.randrange(10 ** 6),
                       "level": "quick" if small else "full"},
        }
    raise ValueError(f"unknown workload {workload!r}")


def _r(x):
    return repr(float(x))


# Options are written ``--name=value``: argparse would take a value such as
# ``-1e-05`` or ``-1.2,0.5`` in a separate word for an option name.


def _simulate_argv(p0, t_end, out, rk4=None):
    argv = ["simulate"]
    argv += [f"--{name}={_r(v)}" for name, v in zip(("x1", "y1", "x2", "y2", "z"), p0)]
    argv += [f"--t-end={_r(t_end)}"]
    if rk4:
        argv += ["--method=rk4", f"--dt={_r(rk4['dt'])}", f"--stride={rk4['stride']}"]
    else:
        argv += ["--method=rk45", "--stride=1"]
    return argv + [f"--out={out}"]


def rk4_steps(t_end, dt):
    """RK4 steps the driver takes (the formula of ``_integrate_rk4``)."""
    return int(math.ceil(t_end / dt - 1e-12))


def rk4_command(inputs, outdir):
    """(argv, expectation) of the one rk4_long command."""
    out = os.path.join(outdir, "rk4_long.csv")
    argv = _simulate_argv(inputs["p0"], inputs["t_end"], out, rk4=inputs)
    steps = rk4_steps(inputs["t_end"], inputs["dt"])
    samples = steps // inputs["stride"] + (1 if steps % inputs["stride"] else 0) + 1
    return argv, {"kind": "simulate", "out": out, "samples": samples, "steps": steps,
                  "drift_budget": RK4_DRIFT_BUDGET}


def cli_session_commands(inputs, outdir):
    """The scripted session: a list of (name, argv, expectation)."""
    cmds = []
    for i, c in enumerate(inputs["classify_c"]):
        cmds.append((f"classify_{i}", ["classify", f"--c={_r(c)}"],
                     {"kind": "classify", "c": c}))
    cmds.append(("rank", ["rank", "--point=" + ",".join(_r(v) for v in inputs["rank_point"])],
                 {"kind": "rank", "rank": 2}))
    cmds.append(("invariant-probe",
                 ["invariant-probe", "--m1=" + ",".join(_r(v) for v in inputs["probe_m1"]),
                  f"--t-end={_r(inputs['probe_t_end'])}"], {"kind": "invariant-probe"}))
    h = inputs["homoclinic"]
    out = os.path.join(outdir, "homoclinic.csv")
    cmds.append(("homoclinic",
                 ["homoclinic", f"--c={_r(h['c'])}", f"--theta0={_r(h['theta0'])}",
                  f"--sign={h['sign']}", f"--t-min={_r(h['t_min'])}",
                  f"--t-max={_r(h['t_max'])}", f"--dt={_r(h['dt'])}", f"--out={out}"],
                 {"kind": "export", "out": out,
                  "rows": int(round((h["t_max"] - h["t_min"]) / h["dt"])) + 1}))
    p = inputs["periodic"]
    out = os.path.join(outdir, "periodic.csv")
    cmds.append(("periodic",
                 ["periodic", f"--x1={_r(p['x1'])}", f"--y1={_r(p['y1'])}",
                  f"--x2={_r(p['x2'])}", f"--t-max={_r(p['t_max'])}", f"--dt={_r(p['dt'])}",
                  f"--out={out}"],
                 {"kind": "export", "out": out,
                  "rows": int(round(p["t_max"] / p["dt"])) + 1}))
    s = inputs["simulate"]
    out = os.path.join(outdir, "simulate.csv")
    cmds.append(("simulate", _simulate_argv(s["p0"], s["t_end"], out),
                 {"kind": "simulate", "out": out, "samples": None,
                  "drift_budget": RK45_DRIFT_BUDGET}))
    v = inputs["verify"]
    cmds.append(("verify", ["verify", f"--seed={v['seed']}", f"--level={v['level']}"],
                 {"kind": "verify"}))
    return cmds


# --- output checks ---------------------------------------------------------


def _single_json(stdout, problems):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if len(lines) != 1:
        problems.append(f"expected one JSON line on stdout, got {len(lines)}")
        return None
    try:
        obj = json.loads(lines[0])
    except ValueError:
        problems.append("stdout is not JSON")
        return None
    if not isinstance(obj, dict):
        problems.append("stdout JSON is not an object")
        return None
    return obj


def csv_shape(path):
    """(header, data rows, bytes, last line complete) of a CSV file."""
    with open(path, "rb") as fh:
        header = fh.readline().decode().rstrip("\n")
        rows = 0
        last = b""
        for last in fh:
            rows += 1
    return header, rows, os.path.getsize(path), (rows == 0 or last.endswith(b"\n"))


def _check_csv(path, rows, problems):
    if not os.path.exists(path):
        problems.append("CSV not written")
        return 0
    header, got, nbytes, complete = csv_shape(path)
    if header != CSV_HEADER:
        problems.append(f"CSV header {header!r}")
    if rows is not None and got != rows:
        problems.append(f"CSV has {got} rows, expected {rows}")
    if not complete:
        problems.append("CSV ends in a partial row")
    return got


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_command(returncode, stdout, expect):
    """Problems found in one command's output; an empty list means correct."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    rep = _single_json(stdout, problems)
    if rep is None:
        return problems
    kind = expect["kind"]
    if kind == "simulate":
        samples = rep.get("samples")
        if not isinstance(samples, int) or samples < 2:
            problems.append(f"samples {samples!r}")
        elif expect.get("samples") is not None and samples != expect["samples"]:
            problems.append(f"samples {samples}, expected {expect['samples']}")
        drifts = [rep.get(k) for k in ("max_abs_dH", "max_abs_dI", "max_abs_dC")]
        if not _finite(*drifts) or max(drifts) > expect["drift_budget"]:
            problems.append(f"drift {drifts} over budget {expect['drift_budget']}")
        _check_csv(expect["out"], samples if isinstance(samples, int) else -1, problems)
    elif kind == "classify":
        c = expect["c"]
        if c > 0:
            want = ("focus-focus", "unstable")
        elif c < 0:
            want = ("center-center", "stable")
        else:
            want = ("degenerate", "stable")
            if not rep.get("certificate", {}).get("unique_solution"):
                problems.append("degenerate origin without a stable certificate")
        if (rep.get("kind"), rep.get("stable")) != want:
            problems.append(f"classify c={c}: {rep.get('kind')}/{rep.get('stable')}, want {want}")
    elif kind == "rank":
        if rep.get("rank") != expect["rank"]:
            problems.append(f"rank {rep.get('rank')}, expected {expect['rank']}")
    elif kind == "invariant-probe":
        if rep.get("puncture_count") != rep.get("predicted_punctures"):
            problems.append(f"punctures {rep.get('puncture_count')} != predicted "
                            f"{rep.get('predicted_punctures')}")
        dist = rep.get("max_distance_to_union")
        if not _finite(dist) or dist >= 1e-6:
            problems.append(f"distance to the rank-2 set {dist}")
    elif kind == "export":
        if rep.get("passed") is not True:
            problems.append("export did not pass its residual checks")
        _check_csv(expect["out"], expect["rows"], problems)
    elif kind == "verify":
        if rep.get("all_passed") is not True:
            failed = [r.get("name") for r in rep.get("results", []) if not r.get("passed")]
            problems.append(f"verify failed: {failed}")
    else:
        raise ValueError(f"unknown expectation kind {kind!r}")
    return problems


def check_trajectory(rec):
    """Problems in one rk45_sweep record: the instability witness must hold."""
    problems = []
    c = rec["c"]
    want = "focus-focus" if c > 0 else "center-center"
    if rec["kind"] != want:
        problems.append(f"c={c}: kind {rec['kind']}, want {want}")
    if (rec["t_escape"] is not None) != (c > 0):
        problems.append(f"c={c}: escape time {rec['t_escape']}")
    drifts = (rec["dH"], rec["dI"], rec["dC"])
    if not _finite(*drifts) or max(drifts) > RK45_DRIFT_BUDGET:
        problems.append(f"c={c}: drift {drifts}")
    if rec["accepted"] < 1:
        problems.append(f"c={c}: no accepted steps")
    return problems


def error_rate(outcomes):
    """(attempted, failed, rate) over a list of per-operation problem lists."""
    attempted = len(outcomes)
    failed = sum(1 for p in outcomes if p)
    return attempted, failed, (failed / attempted if attempted else 1.0)
