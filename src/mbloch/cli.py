"""Command-line interface.

Subcommands: simulate, classify, homoclinic, periodic, rank,
invariant-probe, verify.  Trajectories and sampled orbits go to CSV
(header ``t,x1,y1,x2,y2,z,H,I,C``, shortest round-trip decimal floats,
each distinct value of a block of rows formatted once; the bytes are
those of ``repr`` on every value); reports go to stdout as single JSON
objects with stable key order.

Exit codes: 0 success, 1 numerical/verification failure, 2 usage error
(an argparse error, or a DomainError raised by a subcommand).
"""

import argparse
import json
import math
import sys

import numpy as np

from . import equilibria, invariant_sets, solutions, verify
from . import integrate as integration
from .core import DomainError, conserved, vector_field
from .integrate import (IntegrationStalledError, IntegratorConfig,
                        StateOverflowError, Trajectory, drift_report, integrate)

CSV_HEADER = "t,x1,y1,x2,y2,z,H,I,C"
# rows per block of the CSV writer: a long export never holds all its rows
# as Python objects at once
CSV_BLOCK_ROWS = 1024
# largest ``homoclinic`` grid step in pulse widths 1/sqrt(c): a coarser grid
# steps over the pulse, and its checks then see only the flat tails
MAX_PULSE_STEP = 1.0


def _write_csv(path, times, states, cons):
    # repr of a Python float is the shortest round trip; it is called once
    # per distinct value of a block.  Values are told apart by their bits,
    # not by ==, which would merge -0.0 into 0.0.
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for a in range(0, len(times), CSV_BLOCK_ROWS):
            b = a + CSV_BLOCK_ROWS
            block = np.column_stack((times[a:b], states[a:b], cons[a:b]))
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            rows = text.take(inverse.reshape(block.shape)).tolist()
            fh.write("\n".join(map(",".join, rows)) + "\n")


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


def _sample_times(t_min, t_max, dt):
    """The CSV time grid; a DomainError unless dt > 0, t_max > t_min and the
    grid has at most ``integrate.MAX_SAMPLES`` rows, refused before the sample
    arrays are allocated."""
    if not (dt > 0 and t_max > t_min):
        raise DomainError(f"need --dt > 0 and --t-max above {t_min!r}")
    steps = (t_max - t_min) / dt
    cap = integration.MAX_SAMPLES
    if not steps <= cap - 1:  # also refuses an infinite span
        raise DomainError(f"--dt {dt!r} over [{t_min!r}, {t_max!r}] asks for more "
                          f"than {cap} CSV rows")
    return np.linspace(t_min, t_max, int(round(steps)) + 1)


def _stopped(exc):
    """Report a run that stopped early (exit 1)."""
    if isinstance(exc, StateOverflowError):
        _emit({"error": "state overflow", "t_reached": exc.time})
    else:
        _emit({"error": "integration stalled", "reason": exc.reason, "t_reached": exc.time})
    return 1


def cmd_simulate(args):
    cfg = IntegratorConfig(method=args.method, t_end=args.t_end, dt=args.dt,
                           abs_tol=args.tol, rel_tol=args.tol, sample_stride=args.stride)
    try:
        traj = integrate([args.x1, args.y1, args.x2, args.y2, args.z], cfg)
    except (IntegrationStalledError, StateOverflowError) as exc:
        write_trajectory_csv(args.out, exc.trajectory)
        return _stopped(exc)
    write_trajectory_csv(args.out, traj)
    rep = drift_report(traj)
    _emit({"max_abs_dH": rep.max_abs_dH, "max_abs_dI": rep.max_abs_dI,
           "max_abs_dC": rep.max_abs_dC, "samples": len(traj)})
    return 0


def cmd_classify(args):
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
        cert = equilibria.origin_stability_certificate()
        out["stable"] = "stable" if cert.unique_solution else "not-determined"
        out["certificate"] = {
            "unique_solution": cert.unique_solution,
            "norm_bound_by_eps": {repr(k): v for k, v in cert.norm_bound_by_eps.items()},
        }
    _emit(out)
    return 0


def _closed_form_run(args, times, states, deriv, level, tol, level_tol):
    """Check a sampled closed-form orbit against the field (bound tol) and
    the conserved level (bound level_tol), write it as CSV and report."""
    resid = float(np.abs(deriv - vector_field(states)).max())
    dev = float(np.abs(np.column_stack(conserved(states)) - level).max())
    write_orbit_csv(args.out, times, states)
    summary = {"max_ode_residual": resid, "max_conserved_deviation": dev,
               "tolerance": tol, "level_tolerance": level_tol,
               "passed": resid < tol and dev < level_tol}
    _emit(summary)
    return 0 if summary["passed"] else 1


def cmd_homoclinic(args):
    sign = {"+": 1, "-": -1}[args.sign]
    par = solutions.HomoclinicParams(c=args.c, theta0=args.theta0, sign=sign)
    if not args.dt * math.sqrt(args.c) <= MAX_PULSE_STEP:
        raise DomainError(f"--dt {args.dt!r} is more than {MAX_PULSE_STEP} pulse "
                          f"widths 1/sqrt(c) = {1 / math.sqrt(args.c)!r}")
    times = _sample_times(args.t_min, args.t_max, args.dt)
    states = solutions.homoclinic(par, times)
    deriv = solutions.homoclinic_derivative(par, times)
    return _closed_form_run(args, times, states, deriv, [args.c ** 2 / 2, 0.0, args.c],
                            verify.homoclinic_residual_tol(par), verify.homoclinic_tol(par))


def cmd_periodic(args):
    par = solutions.PeriodicParams(x1_0=args.x1, y1_0=args.y1, x2_0=args.x2)
    t_max = par.period if args.t_max is None else args.t_max
    times = _sample_times(0.0, t_max, args.dt)
    if not math.isfinite(par.omega * t_max):
        raise DomainError(f"the phase omega t overflows on [0, {t_max!r}] at "
                          f"omega = {par.omega!r}")
    states = solutions.periodic_solution(par, times)
    deriv = solutions.periodic_derivative(par, times)
    tol = verify.periodic_tol(par)
    return _closed_form_run(args, times, states, deriv, conserved(states[0]), tol, tol)


def cmd_rank(args):
    rep = invariant_sets.rank_F(args.point)
    _emit({"point": list(args.point),
           "singular_values": [float(s) for s in rep.singular_values],
           "rank": rep.rank, "tol_used": rep.tol_used})
    return 0


def cmd_invariant_probe(args):
    x1, y1, x2 = args.m1
    point = invariant_sets.M1Point(x1, y1, x2)
    family = solutions.PeriodicParams(x1, y1, x2) if y1 != 0 else None
    try:
        rep = invariant_sets.invariance_probe(point, args.t_end)
    except (IntegrationStalledError, StateOverflowError) as exc:
        return _stopped(exc)
    out = {"max_distance_to_union": rep.max_distance_to_union,
           "puncture_count": rep.puncture_count}
    if family is not None:
        out["predicted_punctures"] = solutions.puncture_times(family).count_in(args.t_end)
    _emit(out)
    return 0


def cmd_verify(args):
    if args.seed < 0:
        raise DomainError("--seed must be non-negative")
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
    p.add_argument("--dt", type=_finite, default=1e-3, help="fixed step size (rk4)")
    p.add_argument("--tol", type=_finite, default=1e-10, help="abs/rel tolerance (rk45)")
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
        try:
            return args.func(args)
        except DomainError as exc:
            parser.error(str(exc))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
