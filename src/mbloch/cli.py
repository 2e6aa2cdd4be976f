"""Command-line interface.

Subcommands: simulate, classify, homoclinic, periodic, rank,
invariant-probe, verify.  Trajectories and sampled orbits go to CSV
(header ``t,x1,y1,x2,y2,z,H,I,C``, shortest round-trip decimal floats);
reports go to stdout as single JSON objects with stable key order.

Exit codes: 0 success, 1 numerical/verification failure, 2 usage error.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import equilibria, invariant_sets, solutions, verify
from .core import DomainError, conserved, vector_field
from .integrate import (IntegrationStalledError, IntegratorConfig,
                        StateOverflowError, Trajectory, drift_report, integrate)

CSV_HEADER = "t,x1,y1,x2,y2,z,H,I,C"
# largest CSV that ``homoclinic`` and ``periodic`` write; refused before
# the sample arrays are allocated
MAX_CSV_ROWS = 10 ** 6


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path, times, states, cons):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for t, s, c in zip(times, states, cons):
            fh.write(",".join(_fmt(v) for v in [t, *s, *c]) + "\n")


def write_trajectory_csv(path, traj: Trajectory):
    _write_csv(path, traj.times, traj.states, traj.conserved)


def write_orbit_csv(path, times, states):
    _write_csv(path, times, states, np.column_stack(conserved(states)))


def _emit(obj):
    print(json.dumps(obj))


def _finite(text):
    """argparse type of every float option: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not finite: {text!r}")
    return value


def _parse_tuple(text, n, label):
    parts = text.split(",")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(f"{label} needs {n} comma-separated values")
    return tuple(_finite(v) for v in parts)


def _sample_times(parser, t_min, t_max, dt):
    """The CSV time grid; a usage error if it has more than MAX_CSV_ROWS rows."""
    steps = (t_max - t_min) / dt
    if not steps <= MAX_CSV_ROWS - 1:  # also refuses an infinite span
        parser.error(f"--dt {dt!r} over [{t_min!r}, {t_max!r}] asks for more "
                     f"than {MAX_CSV_ROWS} CSV rows")
    return np.linspace(t_min, t_max, int(round(steps)) + 1)


def cmd_simulate(args, parser):
    if args.t_end <= 0:
        parser.error("--t-end must be positive")
    if args.stride < 1:
        parser.error("--stride must be a positive integer")
    if args.dt is not None and args.dt <= 0:
        parser.error("--dt must be positive")
    if args.tol is not None and args.tol <= 0:
        parser.error("--tol must be positive")
    p0 = [args.x1, args.y1, args.x2, args.y2, args.z]
    if args.method == "rk4":
        cfg = IntegratorConfig(method="rk4", t_end=args.t_end,
                               dt=args.dt if args.dt is not None else 1e-3,
                               sample_stride=args.stride)
    else:
        tol = args.tol if args.tol is not None else 1e-10
        cfg = IntegratorConfig(method="rk45", t_end=args.t_end,
                               abs_tol=tol, rel_tol=tol, sample_stride=args.stride)
    try:
        traj = integrate(p0, cfg)
    except DomainError as exc:
        parser.error(str(exc))
    except IntegrationStalledError as exc:
        write_trajectory_csv(args.out, exc.trajectory)
        _emit({"error": "integration stalled", "t_reached": exc.time})
        return 1
    except StateOverflowError as exc:
        write_trajectory_csv(args.out, exc.trajectory)
        _emit({"error": "state overflow", "t_reached": exc.time})
        return 1
    write_trajectory_csv(args.out, traj)
    rep = drift_report(traj)
    _emit({"max_abs_dH": rep.max_abs_dH, "max_abs_dI": rep.max_abs_dI,
           "max_abs_dC": rep.max_abs_dC, "samples": len(traj)})
    return 0


def cmd_classify(args, parser):
    res = equilibria.cartan_classify([0, 0, 0, 0, args.c], args.c)
    out = {
        "c": args.c,
        "kind": res.kind,
        "alpha": res.alpha,
        "roots": [[r.real, r.imag] for r in res.roots],
        "A": res.A,
        "B": res.B,
        "discriminant": res.discriminant,
        "stable": res.stable,
    }
    if res.kind == equilibria.DEGENERATE:
        cert = equilibria.origin_stability_certificate(2.0, 21)
        out["stable"] = "stable" if cert.unique_solution else "not-determined"
        out["certificate"] = {
            "unique_solution": cert.unique_solution,
            "max_norm_by_eps": {repr(k): v for k, v in cert.max_norm_by_eps.items()},
        }
    _emit(out)
    return 0


def _closed_form_run(args, times, states, deriv, level, tol):
    """Check a sampled closed-form orbit against the field and the conserved
    level, write it as CSV and report."""
    resid = float(np.abs(deriv - vector_field(states)).max())
    dev = float(np.abs(np.column_stack(conserved(states)) - level).max())
    write_orbit_csv(args.out, times, states)
    summary = {"max_ode_residual": resid, "max_conserved_deviation": dev,
               "tolerance": tol, "passed": resid < tol and dev < tol}
    _emit(summary)
    return 0 if summary["passed"] else 1


def cmd_homoclinic(args, parser):
    if args.c <= 0:
        parser.error("--c must be positive for homoclinic orbits")
    if args.dt <= 0 or args.t_max <= args.t_min:
        parser.error("need --dt > 0 and --t-max > --t-min")
    sign = {"+": 1, "-": -1}[args.sign]
    par = solutions.HomoclinicParams(c=args.c, theta0=args.theta0, sign=sign)
    times = _sample_times(parser, args.t_min, args.t_max, args.dt)
    states = solutions.homoclinic(par, times)
    deriv = solutions.homoclinic_derivative(par, times)
    tol = 1e-10 * (1 + args.c ** 2)
    return _closed_form_run(args, times, states, deriv,
                            [args.c ** 2 / 2, 0.0, args.c], tol)


def cmd_periodic(args, parser):
    if args.x2 == 0 or args.y1 == 0:
        parser.error("periodic family requires --x2 != 0 and --y1 != 0")
    par = solutions.PeriodicParams(x1_0=args.x1, y1_0=args.y1, x2_0=args.x2)
    t_max = par.period if args.t_max is None else args.t_max
    if args.dt <= 0 or t_max <= 0:
        parser.error("need --dt > 0 and --t-max > 0")
    times = _sample_times(parser, 0.0, t_max, args.dt)
    states = solutions.periodic_solution(par, times)
    deriv = solutions.periodic_derivative(par, times)
    w, f1 = par.omega, par.x1_0 ** 2 + par.x2_0 ** 2
    tol = 1e-12 * (1 + w * w) * (1 + f1)
    return _closed_form_run(args, times, states, deriv, conserved(states[0]), tol)


def cmd_rank(args, parser):
    rep = invariant_sets.rank_F(args.point)
    _emit({"point": list(args.point),
           "singular_values": [float(s) for s in rep.singular_values],
           "rank": rep.rank, "tol_used": rep.tol_used})
    return 0


def cmd_invariant_probe(args, parser):
    if args.t_end <= 0:
        parser.error("--t-end must be positive")
    x1, y1, x2 = args.m1
    if x2 == 0:
        parser.error("--m1 requires x2 != 0")
    try:
        rep = invariant_sets.invariance_probe(invariant_sets.M1Point(x1, y1, x2),
                                              args.t_end)
    except DomainError as exc:
        parser.error(str(exc))
    except StateOverflowError as exc:
        _emit({"error": "state overflow", "t_reached": exc.time})
        return 1
    out = {"max_distance_to_union": rep.max_distance_to_union,
           "puncture_count": rep.puncture_count}
    if y1 != 0:
        sched = solutions.puncture_times(solutions.PeriodicParams(x1, y1, x2))
        out["predicted_punctures"] = sched.count_in(args.t_end)
    _emit(out)
    return 0


def cmd_verify(args, parser):
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    report = verify.run_all(args.seed, args.level)
    _emit(report)
    return 0 if report["all_passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mbloch",
        description="5-component Maxwell-Bloch system: simulation, "
                    "stability classification, explicit orbits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the system, export CSV")
    for name in ("x1", "y1", "x2", "y2", "z"):
        p.add_argument(f"--{name}", type=_finite, required=True)
    p.add_argument("--t-end", type=_finite, required=True)
    p.add_argument("--method", choices=["rk4", "rk45"], default="rk45")
    p.add_argument("--dt", type=_finite, help="fixed step size (rk4)")
    p.add_argument("--tol", type=_finite, help="abs/rel tolerance (rk45)")
    p.add_argument("--stride", type=int, default=1,
                   help="record every k-th accepted step")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classify", help="Cartan type of the leaf equilibrium")
    p.add_argument("--c", type=_finite, required=True, help="Casimir leaf value")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("homoclinic", help="sample a closed-form homoclinic")
    p.add_argument("--c", type=_finite, required=True)
    p.add_argument("--theta0", type=_finite, default=0.0, help="angle (radians)")
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--t-min", type=_finite, default=-10.0)
    p.add_argument("--t-max", type=_finite, default=10.0)
    p.add_argument("--dt", type=_finite, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_homoclinic)

    p = sub.add_parser("periodic", help="sample a closed-form periodic orbit")
    p.add_argument("--x1", type=_finite, required=True)
    p.add_argument("--y1", type=_finite, required=True)
    p.add_argument("--x2", type=_finite, required=True)
    p.add_argument("--t-max", type=_finite, default=None)
    p.add_argument("--dt", type=_finite, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("rank", help="rank of the conserved-map Jacobian")
    p.add_argument("--point", type=lambda s: _parse_tuple(s, 5, "--point"),
                   required=True, help="x1,y1,x2,y2,z")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("invariant-probe",
                       help="integrate from the rank-2 set and measure the defect")
    p.add_argument("--m1", type=lambda s: _parse_tuple(s, 3, "--m1"),
                   required=True, help="x1,y1,x2 with x2 != 0")
    p.add_argument("--t-end", type=_finite, required=True)
    p.set_defaults(func=cmd_invariant_probe)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", choices=[verify.QUICK, verify.FULL],
                   default=verify.QUICK)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
