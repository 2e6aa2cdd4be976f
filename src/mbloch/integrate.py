"""Fixed-step RK4 and adaptive Dormand-Prince 5(4) integration.

Structure is verified by measurement rather than construction: every
recorded sample carries the values of the three constants of motion, and
``drift_report`` summarizes their worst excursion from the initial values.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, as_state, conserved, field_components


class StateOverflowError(RuntimeError):
    """A step produced a non-finite state; carries the partial trajectory
    (None when a single ``rk4_step`` overflows)."""

    def __init__(self, time: float, trajectory: "Trajectory | None" = None):
        super().__init__(f"non-finite state encountered at t={time}")
        self.time = time
        self.trajectory = trajectory


class IntegrationStalledError(RuntimeError):
    """Adaptive step size underflowed dt_min; carries the partial trajectory."""

    def __init__(self, time: float, trajectory: "Trajectory"):
        super().__init__(f"step size underflow at t={time}")
        self.time = time
        self.trajectory = trajectory


@dataclass
class IntegratorConfig:
    method: str = "rk45"  # "rk4" (fixed step) or "rk45" (adaptive)
    t_end: float = 1.0
    dt: float = 1e-3  # fixed-step size (rk4)
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    dt_initial: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 1.0
    sample_stride: int = 1  # record every k-th accepted step

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.dt <= 0 or self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("dt, abs_tol and rel_tol must be positive")
        if not (self.dt_min <= self.dt_initial <= self.dt_max):
            raise ValueError("need dt_min <= dt_initial <= dt_max")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be a positive integer")


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


def rk4_step(p, h: float, field=None) -> np.ndarray:
    """One classical Runge-Kutta step of size h (local error O(h^5))."""
    if h == 0:
        raise DomainError("step size must be nonzero")
    new = np.array(_rk4_raw(*as_state(p), h, _component_form(field)))
    if not np.isfinite(new).all():
        raise StateOverflowError(h)
    return new


# Dormand-Prince 5(4) tableau (autonomous field, so the c nodes are unused)
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _dp_step(f, y, h):
    k = np.empty((7, 5))
    k[0] = f(*y.tolist())
    for i in range(1, 7):
        acc = y + h * (np.asarray(_DP_A[i]) @ k[:i])
        k[i] = f(*acc.tolist())
    y5 = y + h * (_DP_B5 @ k)
    y4 = y + h * (_DP_B4 @ k)
    return y5, y5 - y4


class _Recorder:
    def __init__(self, stride):
        self.stride = stride
        self.times = []
        self.states = []
        self.accepted = 0

    def record(self, t, state, force=False):
        if force or self.accepted % self.stride == 0:
            if self.times and self.times[-1] == t:
                return
            self.times.append(t)
            self.states.append(tuple(state))

    def trajectory(self):
        states = np.array(self.states)
        return Trajectory(np.array(self.times), states,
                          np.column_stack(conserved(states)))


def integrate(p0, cfg: IntegratorConfig, field=None) -> Trajectory:
    """Integrate from t=0 to cfg.t_end, sampling every cfg.sample_stride-th
    accepted step (plus the initial and final states).

    field defaults to the 5-component vector field; any callable
    p -> 5-vector may be substituted (e.g. its negation for reversal tests).
    """
    if cfg.t_end <= 0:
        raise ValueError("t_end must be positive")
    y0 = as_state(p0)
    rec = _Recorder(cfg.sample_stride)
    rec.record(0.0, y0, force=True)

    f = _component_form(field)
    if cfg.method == "rk4":
        return _integrate_rk4(y0, cfg, f, rec)
    return _integrate_rk45(y0, cfg, f, rec)


def _integrate_rk4(y0, cfg, f, rec):
    n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-12))
    h = cfg.t_end / n_steps
    x1, y1, x2, y2, z = y0.tolist()
    for i in range(1, n_steps + 1):
        x1, y1, x2, y2, z = _rk4_raw(x1, y1, x2, y2, z, h, f)
        if not math.isfinite(x1 + y1 + x2 + y2 + z):
            raise StateOverflowError(i * h, rec.trajectory())
        rec.accepted += 1
        rec.record(i * h, (x1, y1, x2, y2, z), force=i == n_steps)
    return rec.trajectory()


def _integrate_rk45(y0, cfg, f, rec):
    t = 0.0
    y = y0
    dt = min(cfg.dt_initial, cfg.t_end)
    safety, shrink, grow = 0.9, 0.2, 5.0
    while t < cfg.t_end:
        h = min(dt, cfg.t_end - t)
        y_new, err_vec = _dp_step(f, y, h)
        if not np.isfinite(y_new).all():
            raise StateOverflowError(t + h, rec.trajectory())
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t += h
            y = y_new
            rec.accepted += 1
            rec.record(t, y, force=t >= cfg.t_end)
            if t >= cfg.t_end:
                break
        elif h <= cfg.dt_min:
            raise IntegrationStalledError(t, rec.trajectory())
        factor = grow if err == 0.0 else min(grow, max(shrink, safety * err ** -0.2))
        dt = max(min(h * factor, cfg.dt_max), cfg.dt_min)
    return rec.trajectory()


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
