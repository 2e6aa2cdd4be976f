"""Command-line interface.

Subcommands: simulate, classify, homoclinic, periodic, rank,
invariant-probe, verify.  Trajectories and sampled orbits go to CSV
(header ``t,x1,y1,x2,y2,z,H,I,C``, shortest round-trip decimal floats:
the bytes of ``repr`` on every value).  A ``simulate`` record of at most
``CSV_SPLIT_ROWS`` samples is written row by row with ``repr`` itself, so
such a run is integrated, checked and written without NumPy; longer
records and the closed-form exports are formatted a block of rows at a
time by ``mbloch.shortest``, and a long export is cut into row ranges
that forked processes format on the usable CPUs, with the same bytes.
The closed-form exports (``homoclinic``, ``periodic``) are evaluated,
checked and formatted block by block, so they hold their time grid
(8 bytes a row) and one block: a 10^6-row export peaks at about 40 MB RSS.
Reports go to stdout as single JSON objects with stable key order.

Exit codes: 0 success, 1 numerical/verification failure, a CSV that
cannot be written or a report that stdout cannot take (one line on stderr
then, as the JSON channel is gone), 2 usage error (an argparse error, or a
DomainError raised by a subcommand).
"""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import shutil
import sys
import tempfile
import threading
import warnings

# every other module of the package is imported by the commands that run it,
# so that a process loads (and, with no bytecode cache, compiles) only those:
# classify, --help, an argparse usage error and a short simulate start
# without NumPy
from .domain import DomainError, integer_at_least

CSV_HEADER = "t,x1,y1,x2,y2,z,H,I,C"
# rows per block of the CSV writer: a long export never holds all its rows
# as Python objects at once
CSV_BLOCK_ROWS = 1024
# rows per range of a split export: a shorter export is formatted in one
# process, where a fork would cost more than it saves.  A trajectory of at
# most this many samples is written row by row with repr instead: about
# 1 us a value, so this many rows take about as long as importing NumPy and
# the formatter (about 0.1 s) would
CSV_SPLIT_ROWS = 8 * CSV_BLOCK_ROWS
# most ranges, so most processes, of one export
CSV_MAX_RANGES = 8
# largest ``homoclinic`` grid step in pulse widths 1/sqrt(c): a coarser grid
# steps over the pulse, and its checks then see only the flat tails
MAX_PULSE_STEP = 1.0


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _format_rows(fh, table, a, b):
    """Write rows [a, b) of ``table`` to the binary file ``fh``; ``table(i, j)``
    returns rows [i, j) as an (j - i, 9) float array."""
    # one batched call a block writes the bytes of repr on every value; the
    # formatter is imported here, not with this module, so that commands
    # without a CSV never build its tables
    from .shortest import csv_rows
    for i in range(a, b, CSV_BLOCK_ROWS):
        fh.write(csv_rows(table(i, min(i + CSV_BLOCK_ROWS, b))))


def _fork_format(tmp, table, a, b):
    """Fork a child that writes rows [a, b) to ``tmp`` and exits 0, or 1 on
    any failure; returns its pid."""
    with warnings.catch_warnings():
        # Python >= 3.12 warns when a process with more than one OS thread
        # forks, and numpy's BLAS pool gives this one several.  The fork is
        # safe all the same: there is no other Python thread (the caller
        # checks), the child calls no BLAS routine, and it leaves by
        # os._exit, so it never runs exit handlers or flushes inherited
        # buffers.
        warnings.filterwarnings("ignore", r".*use of fork\(\)", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _format_rows(tmp, table, a, b)
            tmp.flush()
            code = 0
        finally:
            os._exit(code)
    return pid


def _write_csv(path, n, table):
    # A long table of n rows is cut into contiguous row ranges, one per
    # usable CPU: forked children write all but the first to unnamed
    # temporary files while this process writes the first, then appends
    # theirs in order.  Every range is formatted by _format_rows, which asks
    # ``table`` for one block at a time, so the bytes do not depend on the
    # split and no process holds more than one block of the table.
    from . import shortest  # builds the formatter's tables once, before any fork
    k = min(_usable_cpus(), n // CSV_SPLIT_ROWS, CSV_MAX_RANGES)
    if not (k >= 2 and hasattr(os, "fork") and threading.active_count() == 1):
        k = 1
    edges = [n * r // k for r in range(k + 1)]
    with open(path, "wb") as fh, contextlib.ExitStack() as temps:
        fh.write(CSV_HEADER.encode() + b"\n")
        children = []  # (pid, temporary file, first row), not yet reaped
        try:
            for a, b in zip(edges[1:-1], edges[2:]):
                tmp = temps.enter_context(tempfile.TemporaryFile())
                children.append((_fork_format(tmp, table, a, b), tmp, a))
            _format_rows(fh, table, 0, edges[1])
            while children:
                pid, tmp, a = children[0]
                status = os.waitpid(pid, 0)[1]
                del children[0]
                code = os.waitstatus_to_exitcode(status)
                if code != 0:
                    # a negative code is the signal that ended the child
                    raise OSError(f"the process formatting CSV rows from {a} "
                                  f"ended with exit code {code}")
                tmp.seek(0)
                shutil.copyfileobj(tmp, fh)
        finally:
            for pid, _, _ in children:
                os.waitpid(pid, 0)


def write_trajectory_csv(path, traj):
    """Write the run record ``traj`` (an ``integrate.Trajectory``).

    A record of at most ``CSV_SPLIT_ROWS`` samples is written row by row
    with ``repr`` from its plain-float ``columns``, so a short ``simulate``
    never loads NumPy; a longer one goes through the batched writer, with
    the same bytes."""
    if len(traj) <= CSV_SPLIT_ROWS:
        lines = [CSV_HEADER, *(",".join(map(repr, row)) for row in zip(*traj.columns()))]
        with open(path, "wb") as fh:
            fh.write("\n".join(lines).encode() + b"\n")
        return
    import numpy as np
    _write_csv(path, len(traj), lambda i, j: np.column_stack(
        (traj.times[i:j], traj.states[i:j], traj.conserved[i:j])))


def write_orbit_csv(path, times, orbit):
    """Write the orbit ``orbit(t)`` (states (len(t), 5)) sampled at ``times``,
    evaluating it and its conserved triple one block of rows at a time."""
    import numpy as np
    from .core import conserved

    def table(i, j):
        states = orbit(times[i:j])
        return np.column_stack((times[i:j], states, *conserved(states)))

    _write_csv(path, len(times), table)


class _ReportLost(Exception):
    """stdout is closed or cannot take the report.  Not an OSError, so that
    ``main`` tells it from a CSV that cannot be written."""


def _emit(report):
    """Write ``report``, a JSON object or the help text, to stdout and flush
    it; _ReportLost where stdout is closed (``sys.stdout`` is None) or the
    write fails."""
    if sys.stdout is None:
        raise _ReportLost("stdout is closed")
    try:
        sys.stdout.write(report if isinstance(report, str) else json.dumps(report) + "\n")
        sys.stdout.flush()
    except OSError as exc:
        # point fd 1 at devnull, so that the interpreter's flush at exit, which
        # would write the same bytes, cannot fail again (the note on SIGPIPE in
        # the documentation of Python's signal module)
        with contextlib.suppress(OSError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise _ReportLost(str(exc)) from None


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
    """The CSV time grid: max(1, round((t_max - t_min) / dt)) equal steps from
    t_min to t_max; a DomainError unless dt > 0, t_max > t_min and it has at
    most ``domain.MAX_SAMPLES`` rows, refused before it is allocated."""
    import numpy as np
    from . import domain
    if not (dt > 0 and t_max > t_min):
        raise DomainError(f"need --dt > 0 and --t-max above {t_min!r}")
    steps = (t_max - t_min) / dt
    cap = domain.MAX_SAMPLES
    if not steps <= cap - 1:  # also refuses an infinite span
        raise DomainError(f"--dt {dt!r} over [{t_min!r}, {t_max!r}] asks for more "
                          f"than {cap} CSV rows")
    return np.linspace(t_min, t_max, max(1, round(steps)) + 1)


def _stopped(exc):
    """Report a run that stopped early (exit 1)."""
    from .integrate import StateOverflowError
    if isinstance(exc, StateOverflowError):
        _emit({"error": "state overflow", "t_reached": exc.time})
    else:
        _emit({"error": "integration stalled", "reason": exc.reason, "t_reached": exc.time})
    return 1


def cmd_simulate(args):
    from .integrate import (IntegrationStalledError, IntegratorConfig,
                            StateOverflowError, drift_report, integrate)
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
    from . import equilibria
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
    if (cert := res.certificate) is not None:
        out["certificate"] = {
            "unique_solution": cert.unique_solution,
            "norm_bound_by_eps": {repr(k): v for k, v in cert.norm_bound_by_eps.items()},
        }
    _emit(out)
    return 0


def _closed_form_run(args, times, closed_form):
    """Check the orbit of the ``solutions`` tuple ``closed_form`` on the grid
    ``times`` against the field and its level, each within its bound, write
    it as CSV and report.

    The orbit is checked by ``solutions.orbit_errors`` and formatted one
    block of ``CSV_BLOCK_ROWS`` rows at a time (the CSV writer evaluates it
    again), so an export holds its time grid (8 bytes a row) and one block:
    a 10^6-row export peaks at about 40 MB RSS.
    """
    import numpy as np
    from .solutions import orbit_errors
    orbit, derivative, level, tol, level_tol = closed_form
    errors = [orbit_errors(orbit, derivative, level, times[i:i + CSV_BLOCK_ROWS])
              for i in range(0, len(times), CSV_BLOCK_ROWS)]
    # np.max, unlike max(), returns NaN when any block's error is NaN
    resid, dev = map(float, np.max(errors, axis=0))
    write_orbit_csv(args.out, times, orbit)
    summary = {"max_ode_residual": resid, "max_conserved_deviation": dev,
               "tolerance": tol, "level_tolerance": level_tol,
               "passed": resid < tol and dev < level_tol}
    _emit(summary)
    return 0 if summary["passed"] else 1


def cmd_homoclinic(args):
    from . import solutions
    sign = {"+": 1, "-": -1}[args.sign]
    par = solutions.HomoclinicParams(c=args.c, theta0=args.theta0, sign=sign)
    times = _sample_times(args.t_min, args.t_max, args.dt)
    step = (args.t_max - args.t_min) / (len(times) - 1)
    if not step * math.sqrt(args.c) <= MAX_PULSE_STEP:
        raise DomainError(f"the grid step {step!r} is more than {MAX_PULSE_STEP} pulse "
                          f"widths 1/sqrt(c) = {1 / math.sqrt(args.c)!r}")
    return _closed_form_run(args, times, solutions.homoclinic_orbit(par))


def _chart_point(x1, y1, x2):
    """The chart point R(x1, x2, y1 / x2) of the M1 point (x1, y1, x2); a
    DomainError where x2 = 0 or w = y1 / x2 underflows to 0."""
    from .invariant_sets import RankTwoPoint
    if x2 == 0:
        raise DomainError("the chart parameter w = y1 / x2 needs x2 != 0")
    w = y1 / x2
    if w == 0 and y1 != 0:
        raise DomainError(f"w = y1 / x2 underflows to 0 at y1 = {y1!r}, x2 = {x2!r}")
    return RankTwoPoint(x1, x2, w)


def cmd_periodic(args):
    from . import solutions
    point = _chart_point(args.x1, args.y1, args.x2)
    period = point.period  # refuses y1 = 0 (w = 0) and an orbit whose scales overflow
    t_max = period if args.t_max is None else args.t_max
    times = _sample_times(0.0, t_max, args.dt)
    if not math.isfinite(point.w * t_max):
        raise DomainError(f"the phase w t overflows on [0, {t_max!r}] at w = {point.w!r}")
    return _closed_form_run(args, times, solutions.periodic_orbit(point))


def cmd_rank(args):
    from . import invariant_sets
    rep = invariant_sets.rank_F(args.point)
    _emit({"point": list(args.point),
           "singular_values": [float(s) for s in rep.singular_values],
           "rank": int(rep.rank), "tol_used": float(rep.tol_used)})
    return 0


def cmd_invariant_probe(args):
    from . import invariant_sets
    from .integrate import IntegrationStalledError, StateOverflowError
    try:
        rep = invariant_sets.invariance_probe(_chart_point(*args.m1), args.t_end)
    except (IntegrationStalledError, StateOverflowError) as exc:
        return _stopped(exc)
    # the report's fields in order, without a prediction where there is none
    _emit({k: v for k, v in dataclasses.asdict(rep).items() if v is not None})
    return 0


def cmd_verify(args):
    from . import verify
    report = verify.run_all(integer_at_least(args.seed, 0, "--seed"), args.level)
    _emit(report)
    return 0 if report["all_passed"] else 1


class _Parser(argparse.ArgumentParser):
    """Writes its help as a report is written: argparse ignores a failed write
    and prints to stderr where stdout is closed, so ``--help`` exited 0."""

    def print_help(self, file=None):  # argparse passes no file
        _emit(self.format_help())


def build_parser():
    parser = _Parser(
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
    # verify.QUICK and verify.FULL, spelled out so that the parser does not
    # import verify (and with it NumPy and every other module)
    p.add_argument("--level", choices=["quick", "full"], default="quick")
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
        except OSError as exc:  # the CSV writers do a subcommand's only file I/O
            _emit({"error": "cannot write CSV", "reason": str(exc)})
            return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except _ReportLost as exc:  # no JSON channel is left
        sys.stderr.write(f"mbloch: cannot write the report to stdout: {exc}\n")
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
