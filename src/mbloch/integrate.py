"""Fixed-step RK4 and adaptive Dormand-Prince 5(4) integration.

Each method is written once, as its coefficients, from which the module
generates four step kernels on the five components as plain floats at
import, all by one stage rule: each stage binds its state and evaluates
the field there.  ``_rk4_raw`` and ``_dp_raw`` call a field at the bound
state, and ``_rk4_builtin`` and ``_dp_builtin`` are the same kernels with
``domain.field_components`` written into their stages as it is written
there, so their sums are the generic ones term for term and their bits the
same, signed zeros included.  Their text is ``_KERNEL_SOURCE``, which
tracebacks and ``inspect`` quote.  ``_kernels`` is the one door from a
run's field to its kernels, which ``integrate`` hands its driver: the
built-in ones exactly when the field is ``domain.field_components``
itself, so a patch of ``integrate.field_components`` breaks a run through
the generic kernel, and a patch of a kernel here breaks the runs that step
it.  An RK4 kernel steps up to a sample stride per call, so the rk4 driver
calls it once a sample.  Both drivers keep the state as Python floats
between steps (step control, error norm and finiteness test included): no
array is built per step.  They append each sample to two flat float64
buffers (times, and five components a sample) and stop only by raising;
``integrate`` wraps the buffers, without a copy, into the ``Trajectory``.

The module imports no NumPy: with the built-in field a run is started,
stepped, checked and recorded on plain floats, so a short ``simulate``
never loads it.  NumPy is imported where arrays are asked for: a custom
``field``, ``rk4_step`` and the array views of a ``Trajectory``.  A start
state goes through ``domain.finite_state``, whatever its type.

Structure is verified by measurement rather than construction: every
recorded sample carries the values of the three constants of motion, and
``drift_report`` summarizes their worst excursion from the initial values.
"""

import contextlib
import linecache
import math
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property

from . import domain
from .domain import (DomainError, conserved_components, field_components, finite_float,
                     finite_state, integer_at_least, real_float)


class StateOverflowError(RuntimeError):
    """A step produced a non-finite state, or a recorded state a non-finite
    conserved triple; ``integrate`` attaches the partial trajectory before
    it (None when a single ``rk4_step`` overflows)."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state encountered at t={time}")
        self.time = time
        self.trajectory = None


class IntegrationStalledError(RuntimeError):
    """A step at the DT_MIN floor was rejected, or a run hit
    ``domain.MAX_SAMPLES`` or MAX_STEPS; ``integrate`` attaches the partial
    trajectory."""

    def __init__(self, time: float, reason: str = "step size underflow"):
        super().__init__(f"{reason} at t={time}")
        self.time = time
        self.trajectory = None
        self.reason = reason


# first adaptive step, and the floor below which a rejected step stalls the run
DT_INITIAL = 1e-3
DT_MIN = 1e-12
# cap on the fewest steps a run can take (t_end / dt for rk4, t_end / dt_max
# for rk45); a longer run is refused, not started.  An rk45 run that attempts
# more steps than this stalls
MAX_STEPS = 10 ** 8


@dataclass(frozen=True)
class IntegratorConfig:
    """One run; every field is checked here, so a bad run is a DomainError
    before any step is taken, and frozen, so the run is the one checked."""

    method: str = "rk45"  # "rk4" (fixed step) or "rk45" (adaptive)
    t_end: float = 1.0
    dt: float = 1e-3  # fixed-step size (rk4)
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    dt_max: float = 1.0
    sample_stride: int = 1  # record every k-th accepted step

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise DomainError(f"unknown method {self.method!r}")
        for name in ("t_end", "dt", "abs_tol", "rel_tol", "dt_max"):
            object.__setattr__(self, name, real_float(getattr(self, name)))
        if not 0 < self.t_end < math.inf:
            raise DomainError("t_end must be finite and positive")
        if not (self.dt > 0 and self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("dt, abs_tol and rel_tol must be positive")
        if not self.dt_max >= DT_INITIAL:
            raise DomainError(f"dt_max must be at least the first step {DT_INITIAL}")
        object.__setattr__(self, "sample_stride",
                           integer_at_least(self.sample_stride, 1, "sample_stride"))
        step, name = (self.dt, "dt") if self.method == "rk4" else (self.dt_max, "dt_max")
        if not self.t_end / step <= MAX_STEPS:
            raise DomainError(f"t_end {self.t_end!r} takes more than {MAX_STEPS} "
                              f"steps of {name} = {step!r}")
        if self.method == "rk4":
            # samples at t = 0, at every stride-th step and at the last step
            stride, cap = self.sample_stride, domain.MAX_SAMPLES
            if 1 + (_rk4_steps(self) + stride - 1) // stride > cap:
                raise DomainError(f"t_end {self.t_end!r} records more than {cap} "
                                  f"samples at dt = {self.dt!r}, stride {stride}")


# a sample whose five squares sum to S below this has a finite conserved
# triple: H, |I| and |C| are then at most about S / 2 (|I| by 2|ab| <= a^2 +
# b^2), a sixteenth of the largest double 2^1024 leaves room for rounding
TRIPLE_SAFE_SQUARES = 2.0 ** 1020


class Trajectory:
    """The record of a run: n strictly increasing sample times, and five
    state components a sample, in two flat float64 buffers (``array("d")``,
    48 bytes a sample), each sample with a finite conserved triple.

    ``times`` (n,), ``states`` (n, 5) and ``conserved`` (n, 3), columns H,
    I, C, are NumPy arrays built on first use, the first two as views of the
    buffers without a copy; ``columns`` gives the same numbers as plain
    floats without NumPy."""

    def __init__(self, times: array, states: array):
        self._times, self._states = times, states

    def __len__(self):
        return len(self._times)

    @cached_property
    def times(self):
        import numpy as np
        return np.frombuffer(self._times)

    @cached_property
    def states(self):
        import numpy as np
        return np.frombuffer(self._states).reshape(-1, 5)

    @cached_property
    def conserved(self):
        import numpy as np
        return np.column_stack(conserved_components(*self.states.T))

    def columns(self):
        """The nine columns t, x1, y1, x2, y2, z, H, I, C of a non-empty
        record as sequences of floats, with the bits of the arrays."""
        comps = [self._states[k::5] for k in range(5)]
        return (self._times, *comps, *zip(*map(conserved_components, *comps)))


@dataclass
class DriftReport:
    max_abs_dH: float
    max_abs_dI: float
    max_abs_dC: float


# The step kernels are generated at import from these coefficients, each
# written once.  The Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput.
# Appl. Math. 6, 1980), each entry the float p / q: the rows of A for stages
# 2 to 7, the last being b5, the fifth-order solution, where the seventh stage
# is taken (first same as last), then b4.  The field is autonomous: no nodes c
_DP = (
    ("1 / 5",),
    ("3 / 40", "9 / 40"),
    ("44 / 45", "-56 / 15", "32 / 9"),
    ("19372 / 6561", "-25360 / 2187", "64448 / 6561", "-212 / 729"),
    ("9017 / 3168", "-355 / 33", "46732 / 5247", "49 / 176", "-5103 / 18656"),
    ("35 / 384", 0, "500 / 1113", "125 / 192", "-2187 / 6784", "11 / 84"),
    ("5179 / 57600", 0, "7571 / 16695", "393 / 640", "-92097 / 339200", "187 / 2100", "1 / 40"),
)
# classical RK4, with h2 = h / 2 and s = h / 6: stages 2 to 4 at y + h2 k1,
# y + h2 k2 and y + h k3, and the step y + s (k1 + 2.0 (k2 + k3) + k4)
_RK4_STAGES = ("h2", "h2", "h")
_RK4_UPDATE = ((None, 1), ("2.0", ((None, 2), (None, 3))), (None, 4))
_Y = ("x1", "y1", "x2", "y2", "z")


def _sum(terms, name):
    """The text of terms c * k (k alone where c is None) added left to right;
    k is a stage, with the derivative name(k), or terms in parentheses."""
    parts = (name(k) if isinstance(k, int) else f"({_sum(k, name)})" for _, k in terms)
    return " + ".join(x if c is None else f"{c} * {x}" for (c, _), x in zip(terms, parts))


def _state(row, name):
    """The components y + m (terms . K) for row = (m, terms), name(j, k)
    naming component j of stage k's derivative."""
    (m, terms), out = row, []
    for j, y in enumerate(_Y):
        s = _sum(terms, lambda k: name(j, k))
        out.append(f"{y} + {m} * {s}" if s.isidentifier() else f"{y} + {m} * ({s})")
    return out


def _line(head, values):
    # head and the values in parentheses, a line each past 99 columns
    text, pad = f"{head}({', '.join(values)})", "\n" + " " * (len(head) - len(head.lstrip()) + 4)
    return text if len(text) <= 99 else f"{head}(" + ",".join(pad + v for v in values) + ")"


def _stages(rows, pad, fused):
    """The lines of a kernel's stages, stage k at the state of row k - 2, the
    names of their derivatives and the last stage's state.  Every stage k >= 2
    binds its state, to p, a{k}, q, c{k}, r in a fused kernel and to p, u, q,
    v, r in a generic one, and evaluates the field there: a generic kernel
    calls f, and a fused one stores field_components, as it writes them, as
    b{k}, d{k} and e{k}, reads a{k} and c{k} (y1 and y2 at stage 1) in place,
    and writes the last stage's out where it is used."""
    last = len(rows) + 1
    at = lambda k: _Y if k == 1 else ("p", f"a{k}", "q", f"c{k}", "r") if fused else "puqvr"
    field = lambda x1, y1, x2, y2, z: (y1, f"{x1} * {z}", y2, f"{x2} * {z}",
                                       f"-({x1} * {y1} + {x2} * {y2})")
    name = lambda j, k: (f"{'abcde'[j]}{k}" if not fused or j in (1, 3, 4) and k < last else
                         field(*at(k))[j] if j in (0, 2) else f"({field(*at(k))[j]})")
    lines = []
    for k in range(1, last + 1):
        y = at(k)
        if k > 1:
            state = _state(rows[k - 2], name)
            lines += [_line(f"{pad}{y[0]}, {y[1]}, {y[2]} = ", state[:3]),
                      _line(f"{pad}{y[3]}, {y[4]} = ", state[3:])]
        if not fused:
            lines.append(f"{pad}a{k}, b{k}, c{k}, d{k}, e{k} = f({', '.join(y)})")
        elif k < last:
            lines.append(f"{pad}b{k}, d{k}, e{k} = " + ", ".join(field(*y)[j] for j in (1, 3, 4)))
    return lines, name, f"({', '.join(at(last))})"


def _kernel_source():
    """The kernels' text.  An RK4 kernel takes up to n steps and returns the
    steps taken and the state, stopping after the first step whose state fails
    isfinite(x1 + y1 + x2 + y2 + z); a Dormand-Prince kernel returns y5, y4."""
    rk4 = [(m, ((None, k),)) for k, m in enumerate(_RK4_STAGES, 1)]
    dp = [("h", tuple((c, k) for k, c in enumerate(row, 1) if c)) for row in _DP]
    text = []
    for fused, kind, f in ((False, "raw", ", f"), (True, "builtin", "")):
        lines, name, _ = _stages(rk4, " " * 8, fused)
        step = _state(("s", _RK4_UPDATE), name)
        # x1 and x2 first: in a fused kernel they add the y1 and y2 of the start
        text.append("\n".join([
            f"def _rk4_{kind}(x1, y1, x2, y2, z, h, n{f}):",
            "    h2, s, isfinite = 0.5 * h, h / 6.0, math.isfinite",
            "    for i in range(1, n + 1):", *lines,
            *(f"        {_Y[j]} = {step[j]}" for j in (0, 2, 1, 3, 4)),
            "        if not isfinite(x1 + y1 + x2 + y2 + z):",
            "            return i, (x1, y1, x2, y2, z)", "    return n, (x1, y1, x2, y2, z)"]))
        lines, name, y5 = _stages(dp[:-1], "    ", fused)
        text.append("\n".join([f"def _dp_{kind}(x1, y1, x2, y2, z, h{f}):", *lines,
                               _line(f"    return {y5}, ", _state(dp[-1], name))]))
    return "\n\n\n".join(text) + "\n"


_KERNEL_FILE, _KERNEL_SOURCE = "<mbloch.integrate kernels>", _kernel_source()
linecache.cache[_KERNEL_FILE] = (len(_KERNEL_SOURCE), None, _KERNEL_SOURCE.splitlines(True),
                                 _KERNEL_FILE)
exec(compile(_KERNEL_SOURCE, _KERNEL_FILE, "exec"), globals())


def _kernels(field):
    """A run's RK4 kernel, Dormand-Prince kernel and the context they step
    in, read off the module, so that a patch of a kernel or of
    ``field_components`` reaches the runs after it.  None selects the fused
    kernels if ``field_components`` is ``domain.field_components`` itself,
    and otherwise the generic ones calling it.  A custom field p -> 5-vector
    is adapted for the generic kernels, with NumPy's warnings silenced
    (overflow is reported by exception only), and a stage state with a
    non-finite component gets a NaN field without a call, as a field that
    checks its state (``core.vector_field``) would raise there: the step then
    fails the drivers' finiteness test, as it does with the built-in field."""
    f, quiet = field_components, contextlib.nullcontext()
    if field is None and f is domain.field_components:
        return _rk4_builtin, _dp_builtin, quiet
    if field is not None:
        import numpy as np
        nan = np.full(5, math.nan)
        f = lambda *s: (np.asarray(field(np.array(s)), dtype=float)
                        if all(map(math.isfinite, s)) else nan)
        quiet = np.errstate(over="ignore", invalid="ignore")
    return (lambda *a: _rk4_raw(*a, f)), (lambda *a: _dp_raw(*a, f)), quiet


def rk4_step(p, h: float):
    """One classical Runge-Kutta step of size h, a finite nonzero real number
    (local error O(h^5)), as a (5,) array."""
    import numpy as np
    h = finite_float(h, "h")
    if h == 0:
        raise DomainError("step size must be nonzero")
    new = np.array(_rk4_builtin(*finite_state(p), h, 1)[1])
    if not np.isfinite(new).all():
        raise StateOverflowError(h)
    return new


def integrate(p0, cfg: IntegratorConfig, field=None) -> Trajectory:
    """Integrate from t=0 to cfg.t_end, sampling every cfg.sample_stride-th
    accepted step (plus the initial and final states).

    field defaults to the 5-component vector field; the tests and the
    benchmark tracer's counting pass substitute a callable p -> 5-vector.
    A start state whose conserved triple overflows is a DomainError; a run
    stops with StateOverflowError at the first step whose state overflows
    or the first sample whose conserved triple does, and the partial
    trajectory holds the samples before it.  Overflow is reported by
    exception only: NumPy's floating-point warnings are silenced inside.
    """
    y0 = finite_state(p0)
    if not all(map(math.isfinite, conserved_components(*y0))):
        raise DomainError(f"conserved quantities overflow at the start state {y0}")
    times, states = array("d", [0.0]), array("d", y0)
    rk4, dp, quiet = _kernels(field)
    driver, step = (_integrate_rk4, rk4) if cfg.method == "rk4" else (_integrate_rk45, dp)
    with quiet:
        try:
            driver(times, states, cfg, step)
        except (IntegrationStalledError, StateOverflowError) as exc:
            exc.trajectory = Trajectory(times, states)
            raise
    return Trajectory(times, states)


def _check_triple(t, x1, y1, x2, y2, z):
    """Raise StateOverflowError(t) if the conserved triple of a sample past
    TRIPLE_SAFE_SQUARES overflows."""
    if not all(map(math.isfinite, conserved_components(x1, y1, x2, y2, z))):
        raise StateOverflowError(t)


def _rk4_steps(cfg):
    """Steps of an rk4 run: t_end / dt rounded up, and at least one (a
    t_end far below dt would otherwise round to none)."""
    return max(1, int(math.ceil(cfg.t_end / cfg.dt - 1e-12)))


def _integrate_rk4(times, states, cfg, step):
    # one kernel call a sample: it steps to the next multiple of the
    # stride, or to the last step, and stops early at a non-finite state
    n_steps, stride = _rk4_steps(cfg), cfg.sample_stride
    h = cfg.t_end / n_steps
    x1, y1, x2, y2, z = states
    i = 0
    while i < n_steps:
        taken, (x1, y1, x2, y2, z) = step(x1, y1, x2, y2, z, h, min(stride, n_steps - i))
        i += taken
        if not math.isfinite(x1 + y1 + x2 + y2 + z):
            raise StateOverflowError(i * h)
        if x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2 + z * z >= TRIPLE_SAFE_SQUARES:
            _check_triple(i * h, x1, y1, x2, y2, z)
        times.append(i * h)
        states.extend((x1, y1, x2, y2, z))


def _integrate_rk45(times, states, cfg, step):
    t_end, stride, dt_max = cfg.t_end, cfg.sample_stride, cfg.dt_max
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    max_steps, max_samples = MAX_STEPS, domain.MAX_SAMPLES
    isfinite, sqrt = math.isfinite, math.sqrt
    safe, dt_min, record_t, record_y = TRIPLE_SAFE_SQUARES, DT_MIN, times.append, states.extend
    x1, y1, x2, y2, z = states
    # |x1|, ..., |z| of the current state, kept from the step that accepted it
    a1, a2, a3, a4, a5 = abs(x1), abs(y1), abs(x2), abs(y2), abs(z)
    t, k, attempts, n, last = 0.0, 0, 0, len(times), times[-1]
    dt = min(DT_INITIAL, t_end)
    safety, shrink, grow = 0.9, 0.2, 5.0
    while t < t_end:
        attempts += 1
        if attempts > max_steps:
            raise IntegrationStalledError(t, f"MAX_STEPS = {max_steps} steps attempted")
        rest = t_end - t
        h = rest if rest < dt else dt
        (u1, v1, u2, v2, w), (l1, m1, l2, m2, lw) = step(x1, y1, x2, y2, z, h)
        if not isfinite(u1 + v1 + u2 + v2 + w):
            raise StateOverflowError(t + h)
        # RMS of the error y5 - y4 scaled by abs_tol + rel_tol max(|y|, |y5|);
        # `b if b > a else a` is what max(a, b) returns and `b if b < a else
        # a` what min(a, b) does, NaN included; e * e, not e ** 2, so that an
        # overflow gives inf instead of raising
        b1, b2, b3, b4, b5 = abs(u1), abs(v1), abs(u2), abs(v2), abs(w)
        e1 = (u1 - l1) / (abs_tol + rel_tol * (b1 if b1 > a1 else a1))
        e2 = (v1 - m1) / (abs_tol + rel_tol * (b2 if b2 > a2 else a2))
        e3 = (u2 - l2) / (abs_tol + rel_tol * (b3 if b3 > a3 else a3))
        e4 = (v2 - m2) / (abs_tol + rel_tol * (b4 if b4 > a4 else a4))
        e5 = (w - lw) / (abs_tol + rel_tol * (b5 if b5 > a5 else a5))
        err = sqrt((0.0 + e1 * e1 + e2 * e2 + e3 * e3 + e4 * e4 + e5 * e5) / 5)
        if err <= 1.0:
            t += h
            x1, y1, x2, y2, z = u1, v1, u2, v2, w
            a1, a2, a3, a4, a5 = b1, b2, b3, b4, b5
            k += 1
            # t + h == t once h falls below half an ulp of t: keep one sample
            if (k % stride == 0 or t >= t_end) and t != last:
                if n == max_samples:
                    raise IntegrationStalledError(
                        t, f"MAX_SAMPLES = {max_samples} samples recorded")
                if x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2 + z * z >= safe:
                    _check_triple(t, x1, y1, x2, y2, z)
                record_t(t)
                record_y((x1, y1, x2, y2, z))
                n, last = n + 1, t
        elif h <= dt_min:
            raise IntegrationStalledError(t)
        # dt = max(min(h * factor, dt_max), DT_MIN) with factor = grow if err
        # is 0 and min(grow, max(shrink, safety * err ** -0.2)) otherwise
        factor = grow if err == 0.0 else safety * err ** -0.2
        factor = factor if factor > shrink else shrink
        factor = factor if factor < grow else grow
        dt = h * factor
        dt = dt_max if dt_max < dt else dt
        dt = dt_min if dt_min > dt else dt


def drift_report(traj: Trajectory) -> DriftReport:
    """Worst excursion of H, I, C from their t=0 values, max(0.0, max q - q0,
    q0 - min q) a column q, on the ``conserved`` array where NumPy is loaded
    and on plain floats otherwise: rounding is monotone, so this is the
    largest |q - q0|, bit for bit, and the 0.0 keeps out a -0.0 that the
    array reductions may return among equal zeros."""
    if len(traj) == 0:
        raise DomainError("empty trajectory")
    # np.max and np.min are these ufunc reductions, with a wrapper that
    # would double the cost of a short record
    np = sys.modules.get("numpy")
    top, bottom, cols = ((np.maximum.reduce, np.minimum.reduce, traj.conserved.T) if np else
                         (max, min, traj.columns()[6:]))
    return DriftReport(*(float(max(0.0, top(q) - q[0], q[0] - bottom(q))) for q in cols))
