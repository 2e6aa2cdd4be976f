"""Fixed-step RK4 and adaptive Dormand-Prince 5(4) integration.

Both step kernels, ``_rk4_raw`` and ``_dp_raw``, are written out stage by
stage on the five components as plain floats, and both drivers keep the
state as Python floats between steps (step control, error norm and
finiteness test included): no array is built per step.  The drivers
append each sample to two flat float64 buffers (times, and five components
a sample) and stop only by raising; ``integrate`` builds the result once.

Structure is verified by measurement rather than construction: every
recorded sample carries the values of the three constants of motion, and
``drift_report`` summarizes their worst excursion from the initial values.
"""

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .core import DomainError, as_state, conserved, field_components


class StateOverflowError(RuntimeError):
    """A step produced a non-finite state, or a recorded state a non-finite
    conserved triple; carries the partial trajectory before it (None when a
    single ``rk4_step`` overflows)."""

    def __init__(self, time: float, trajectory: "Trajectory | None" = None):
        super().__init__(f"non-finite state encountered at t={time}")
        self.time = time
        self.trajectory = trajectory


class IntegrationStalledError(RuntimeError):
    """A step at the DT_MIN floor was rejected, or a run hit MAX_SAMPLES or
    MAX_STEPS; ``integrate`` attaches the partial trajectory."""

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
# cap on the samples a run records and on the rows of an export: an rk4 run
# over it is refused, an rk45 run that reaches it stalls
MAX_SAMPLES = 10 ** 6


@dataclass
class IntegratorConfig:
    """One run; every field is checked here, so a bad run is a DomainError
    before any step is taken."""

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
        if not 0 < self.t_end < math.inf:
            raise DomainError("t_end must be finite and positive")
        if not (self.dt > 0 and self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("dt, abs_tol and rel_tol must be positive")
        if not self.dt_max >= DT_INITIAL:
            raise DomainError(f"dt_max must be at least the first step {DT_INITIAL}")
        if self.sample_stride < 1:
            raise DomainError("sample_stride must be a positive integer")
        step, name = (self.dt, "dt") if self.method == "rk4" else (self.dt_max, "dt_max")
        if not self.t_end / step <= MAX_STEPS:
            raise DomainError(f"t_end {self.t_end!r} takes more than {MAX_STEPS} "
                              f"steps of {name} = {step!r}")
        if self.method == "rk4":
            # samples at t = 0, at every stride-th step and at the last step
            stride = self.sample_stride
            if 1 + (_rk4_steps(self) + stride - 1) // stride > MAX_SAMPLES:
                raise DomainError(f"t_end {self.t_end!r} records more than {MAX_SAMPLES} "
                                  f"samples at dt = {self.dt!r}, stride {stride}")


@dataclass
class Trajectory:
    times: np.ndarray  # (n,)
    states: np.ndarray  # (n, 5)
    conserved: np.ndarray  # (n, 3) columns H, I, C

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.conserved = np.asarray(self.conserved, dtype=float)
        n = self.times.shape[0]
        if self.states.shape != (n, 5) or self.conserved.shape != (n, 3):
            raise ValueError("times/states/conserved lengths disagree")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self):
        return len(self.times)


@dataclass
class DriftReport:
    max_abs_dH: float
    max_abs_dI: float
    max_abs_dC: float


def _component_form(field):
    """The field as the kernels call it: five components in, five out.

    None selects the built-in field; a custom field p -> 5-vector is adapted.
    """
    if field is None:
        return field_components
    return lambda *s: np.asarray(field(np.array(s)), dtype=float)


def _rk4_raw(x1, y1, x2, y2, z, h, f):
    # classical RK4 on the five components; plain floats for the built-in
    # field, so this is the hot path of long fixed-step runs
    a1, b1, c1, d1, e1 = f(x1, y1, x2, y2, z)
    h2 = 0.5 * h
    a2, b2, c2, d2, e2 = f(x1 + h2 * a1, y1 + h2 * b1, x2 + h2 * c1,
                           y2 + h2 * d1, z + h2 * e1)
    a3, b3, c3, d3, e3 = f(x1 + h2 * a2, y1 + h2 * b2, x2 + h2 * c2,
                           y2 + h2 * d2, z + h2 * e2)
    a4, b4, c4, d4, e4 = f(x1 + h * a3, y1 + h * b3, x2 + h * c3,
                           y2 + h * d3, z + h * e3)
    s = h / 6.0
    return (x1 + s * (a1 + 2.0 * (a2 + a3) + a4),
            y1 + s * (b1 + 2.0 * (b2 + b3) + b4),
            x2 + s * (c1 + 2.0 * (c2 + c3) + c4),
            y2 + s * (d1 + 2.0 * (d2 + d3) + d4),
            z + s * (e1 + 2.0 * (e2 + e3) + e4))


def rk4_step(p, h: float) -> np.ndarray:
    """One classical Runge-Kutta step of size h (local error O(h^5))."""
    if h == 0:
        raise DomainError("step size must be nonzero")
    new = np.array(_rk4_raw(*as_state(p).tolist(), h, field_components))
    if not np.isfinite(new).all():
        raise StateOverflowError(h)
    return new


def _dp_raw(x1, y1, x2, y2, z, h, f):
    # one Dormand-Prince 5(4) step on the five components (Hairer, Norsett &
    # Wanner, Solving ODEs I, II.5; autonomous field, so the c nodes are
    # unused): each stage and each solution sums its tableau row left to
    # right, skipping the zero entries; returns the fifth-order state and
    # the fourth-order state
    a1, b1, c1, d1, e1 = f(x1, y1, x2, y2, z)
    s = 1 / 5
    a2, b2, c2, d2, e2 = f(x1 + h * (s * a1), y1 + h * (s * b1), x2 + h * (s * c1),
                           y2 + h * (s * d1), z + h * (s * e1))
    s1, s2 = 3 / 40, 9 / 40
    a3, b3, c3, d3, e3 = f(x1 + h * (s1 * a1 + s2 * a2), y1 + h * (s1 * b1 + s2 * b2),
                           x2 + h * (s1 * c1 + s2 * c2), y2 + h * (s1 * d1 + s2 * d2),
                           z + h * (s1 * e1 + s2 * e2))
    s1, s2, s3 = 44 / 45, -56 / 15, 32 / 9
    a4, b4, c4, d4, e4 = f(x1 + h * (s1 * a1 + s2 * a2 + s3 * a3),
                           y1 + h * (s1 * b1 + s2 * b2 + s3 * b3),
                           x2 + h * (s1 * c1 + s2 * c2 + s3 * c3),
                           y2 + h * (s1 * d1 + s2 * d2 + s3 * d3),
                           z + h * (s1 * e1 + s2 * e2 + s3 * e3))
    s1, s2, s3, s4 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
    a5, b5, c5, d5, e5 = f(x1 + h * (s1 * a1 + s2 * a2 + s3 * a3 + s4 * a4),
                           y1 + h * (s1 * b1 + s2 * b2 + s3 * b3 + s4 * b4),
                           x2 + h * (s1 * c1 + s2 * c2 + s3 * c3 + s4 * c4),
                           y2 + h * (s1 * d1 + s2 * d2 + s3 * d3 + s4 * d4),
                           z + h * (s1 * e1 + s2 * e2 + s3 * e3 + s4 * e4))
    s1, s2, s3, s4, s5 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
    a6, b6, c6, d6, e6 = f(x1 + h * (s1 * a1 + s2 * a2 + s3 * a3 + s4 * a4 + s5 * a5),
                           y1 + h * (s1 * b1 + s2 * b2 + s3 * b3 + s4 * b4 + s5 * b5),
                           x2 + h * (s1 * c1 + s2 * c2 + s3 * c3 + s4 * c4 + s5 * c5),
                           y2 + h * (s1 * d1 + s2 * d2 + s3 * d3 + s4 * d4 + s5 * d5),
                           z + h * (s1 * e1 + s2 * e2 + s3 * e3 + s4 * e4 + s5 * e5))
    # the seventh stage is taken at the fifth-order state (first same as last)
    s1, s3, s4, s5, s6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
    y5 = (x1 + h * (s1 * a1 + s3 * a3 + s4 * a4 + s5 * a5 + s6 * a6),
          y1 + h * (s1 * b1 + s3 * b3 + s4 * b4 + s5 * b5 + s6 * b6),
          x2 + h * (s1 * c1 + s3 * c3 + s4 * c4 + s5 * c5 + s6 * c6),
          y2 + h * (s1 * d1 + s3 * d3 + s4 * d4 + s5 * d5 + s6 * d6),
          z + h * (s1 * e1 + s3 * e3 + s4 * e4 + s5 * e5 + s6 * e6))
    a7, b7, c7, d7, e7 = f(*y5)
    s1, s3, s4, s5, s6, s7 = (5179 / 57600, 7571 / 16695, 393 / 640,
                              -92097 / 339200, 187 / 2100, 1 / 40)
    y4 = (x1 + h * (s1 * a1 + s3 * a3 + s4 * a4 + s5 * a5 + s6 * a6 + s7 * a7),
          y1 + h * (s1 * b1 + s3 * b3 + s4 * b4 + s5 * b5 + s6 * b6 + s7 * b7),
          x2 + h * (s1 * c1 + s3 * c3 + s4 * c4 + s5 * c5 + s6 * c6 + s7 * c7),
          y2 + h * (s1 * d1 + s3 * d3 + s4 * d4 + s5 * d5 + s6 * d6 + s7 * d7),
          z + h * (s1 * e1 + s3 * e3 + s4 * e4 + s5 * e5 + s6 * e6 + s7 * e7))
    return y5, y4


def _trajectory(times, states):
    """The buffers as a Trajectory, without a copy.  Raises StateOverflowError
    at the first sample whose conserved triple overflows, with the ones before."""
    times, states = np.frombuffer(times), np.frombuffer(states).reshape(-1, 5)
    cons = np.column_stack(conserved(states))
    finite = np.isfinite(cons).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise StateOverflowError(float(times[k]),
                                 Trajectory(times[:k], states[:k], cons[:k]))
    return Trajectory(times, states, cons)


def integrate(p0, cfg: IntegratorConfig, field=None) -> Trajectory:
    """Integrate from t=0 to cfg.t_end, sampling every cfg.sample_stride-th
    accepted step (plus the initial and final states).

    field defaults to the 5-component vector field; any callable
    p -> 5-vector may be substituted (e.g. its negation for reversal tests).
    A start state whose conserved triple overflows is a DomainError.
    Overflow is reported by exception only: NumPy's floating-point warnings
    are silenced inside.
    """
    y0 = as_state(p0)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(conserved(y0)).all():
            raise DomainError(f"conserved quantities overflow at the start state {y0}")
        times, states = array("d", [0.0]), array("d", y0.tolist())
        driver = _integrate_rk4 if cfg.method == "rk4" else _integrate_rk45
        try:
            driver(times, states, cfg, _component_form(field))
        except (IntegrationStalledError, StateOverflowError) as exc:
            exc.trajectory = _trajectory(times, states)
            raise
        return _trajectory(times, states)


def _rk4_steps(cfg):
    """Steps of an rk4 run: t_end / dt rounded up, and at least one (a
    t_end far below dt would otherwise round to none)."""
    return max(1, int(math.ceil(cfg.t_end / cfg.dt - 1e-12)))


def _integrate_rk4(times, states, cfg, f):
    n_steps = _rk4_steps(cfg)
    h = cfg.t_end / n_steps
    x1, y1, x2, y2, z = states
    for i in range(1, n_steps + 1):
        x1, y1, x2, y2, z = _rk4_raw(x1, y1, x2, y2, z, h, f)
        if not math.isfinite(x1 + y1 + x2 + y2 + z):
            raise StateOverflowError(i * h)
        if i % cfg.sample_stride == 0 or i == n_steps:
            times.append(i * h)
            states.extend((x1, y1, x2, y2, z))


def _integrate_rk45(times, states, cfg, f):
    t, y, k = 0.0, tuple(states), 0
    dt = min(DT_INITIAL, cfg.t_end)
    safety, shrink, grow = 0.9, 0.2, 5.0
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    attempts = 0
    while t < cfg.t_end:
        attempts += 1
        if attempts > MAX_STEPS:
            raise IntegrationStalledError(t, f"MAX_STEPS = {MAX_STEPS} steps attempted")
        h = min(dt, cfg.t_end - t)
        y5, y4 = _dp_raw(*y, h, f)
        if not math.isfinite(y5[0] + y5[1] + y5[2] + y5[3] + y5[4]):
            raise StateOverflowError(t + h)
        # RMS of the error y5 - y4 scaled by abs_tol + rel_tol |y|; e * e,
        # not e ** 2, so that an overflow gives inf instead of raising
        total = 0.0
        for old, new, low in zip(y, y5, y4):
            e = (new - low) / (abs_tol + rel_tol * max(abs(old), abs(new)))
            total += e * e
        err = math.sqrt(total / 5)
        if err <= 1.0:
            t += h
            y = y5
            k += 1
            # t + h == t once h falls below half an ulp of t: keep one sample
            if (k % cfg.sample_stride == 0 or t >= cfg.t_end) and t != times[-1]:
                if len(times) == MAX_SAMPLES:
                    raise IntegrationStalledError(
                        t, f"MAX_SAMPLES = {MAX_SAMPLES} samples recorded")
                times.append(t)
                states.extend(y)
        elif h <= DT_MIN:
            raise IntegrationStalledError(t)
        factor = grow if err == 0.0 else min(grow, max(shrink, safety * err ** -0.2))
        dt = max(min(h * factor, cfg.dt_max), DT_MIN)


def drift_report(traj: Trajectory) -> DriftReport:
    """Worst excursion of H, I, C from their t=0 values over the samples."""
    if len(traj) == 0:
        raise DomainError("empty trajectory")
    dev = np.abs(traj.conserved - traj.conserved[0])
    return DriftReport(
        max_abs_dH=float(dev[:, 0].max()),
        max_abs_dI=float(dev[:, 1].max()),
        max_abs_dC=float(dev[:, 2].max()),
    )
