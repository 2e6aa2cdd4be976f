"""Fixed-step RK4 and adaptive Dormand-Prince 5(4) integration.

Each method has two step kernels on the five components as plain floats:
``_rk4_raw`` and ``_dp_raw`` call a field at each stage, and ``_rk4_builtin``
and ``_dp_builtin`` have the built-in field written into their stages,
with the same bits, signed zeros included.  ``_kernel`` picks the
built-in one exactly when the field of a run is
``domain.field_components`` itself, so a patch of
``integrate.field_components`` breaks a run through the generic kernel,
and a patch of a kernel here breaks the runs that step it.  An RK4 kernel
steps up to a sample stride per call, testing each step's state, so the
rk4 driver calls it once a sample.  Both drivers keep the state as Python
floats between steps (step control, error norm and finiteness test
included): no array is built per step.  The drivers append each sample
to two flat float64 buffers (times, and five components a sample) and
stop only by raising; ``integrate`` wraps them, without a copy, into the
``Trajectory``.  The rk45 driver keeps its step control in locals and
unrolls the error norm, rounding each step exactly as a loop over the
components would, and writes ``min`` and ``max`` as conditional
expressions in the builtins' order.

The module imports no NumPy: with the built-in field a run is started,
stepped, checked and recorded on plain floats, so a short ``simulate``
never loads it.  NumPy is imported where arrays are asked for: a custom
``field``, ``rk4_step``, a start state that is not a list or tuple of
numbers, and the array views of a ``Trajectory``.

Structure is verified by measurement rather than construction: every
recorded sample carries the values of the three constants of motion, and
``drift_report`` summarizes their worst excursion from the initial values.
"""

import contextlib
import math
import operator
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property

from . import domain
from .domain import DomainError, conserved_components, field_components


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
        # an integer of any type with __index__ (NumPy's too), taken as an
        # int; a bool or a float is refused, as 1.5 would record every 3rd step
        try:
            stride = operator.index(self.sample_stride)
        except TypeError:
            stride = 0
        if isinstance(self.sample_stride, bool) or stride < 1:
            raise DomainError("sample_stride must be a positive integer")
        self.sample_stride = stride
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


def _component_form(field):
    """The field as the kernels call it: five components in, five out.

    None selects the built-in field, on plain floats; a custom field
    p -> 5-vector is adapted.  A stage state with a non-finite component
    gets a NaN field without a call, as a field that checks its state
    (``core.vector_field``) would raise there: the step then fails the
    drivers' finiteness test, as it does with the built-in field.
    """
    if field is None:
        return field_components
    import numpy as np
    nan = np.full(5, math.nan)
    return lambda *s: (np.asarray(field(np.array(s)), dtype=float)
                       if all(map(math.isfinite, s)) else nan)


def _quiet(field):
    """The context a run steps ``field`` in: NumPy's floating-point warnings
    silenced for a custom field, as overflow is reported by exception only;
    nothing to silence on the plain floats of the built-in one."""
    if field is None:
        return contextlib.nullcontext()
    import numpy as np
    return np.errstate(over="ignore", invalid="ignore")


def _rk4_raw(x1, y1, x2, y2, z, h, n, f):
    # up to n classical RK4 steps on the five components, calling f at each
    # stage; returns (steps taken, state), stopping after the first step
    # whose state fails isfinite(x1 + y1 + x2 + y2 + z).  Runs of the
    # built-in field step _rk4_builtin instead
    h2, s, isfinite = 0.5 * h, h / 6.0, math.isfinite
    for i in range(1, n + 1):
        a1, b1, c1, d1, e1 = f(x1, y1, x2, y2, z)
        a2, b2, c2, d2, e2 = f(x1 + h2 * a1, y1 + h2 * b1, x2 + h2 * c1,
                               y2 + h2 * d1, z + h2 * e1)
        a3, b3, c3, d3, e3 = f(x1 + h2 * a2, y1 + h2 * b2, x2 + h2 * c2,
                               y2 + h2 * d2, z + h2 * e2)
        a4, b4, c4, d4, e4 = f(x1 + h * a3, y1 + h * b3, x2 + h * c3,
                               y2 + h * d3, z + h * e3)
        x1, y1, x2, y2, z = (x1 + s * (a1 + 2.0 * (a2 + a3) + a4),
                             y1 + s * (b1 + 2.0 * (b2 + b3) + b4),
                             x2 + s * (c1 + 2.0 * (c2 + c3) + c4),
                             y2 + s * (d1 + 2.0 * (d2 + d3) + d4),
                             z + s * (e1 + 2.0 * (e2 + e3) + e4))
        if not isfinite(x1 + y1 + x2 + y2 + z):
            return i, (x1, y1, x2, y2, z)
    return n, (x1, y1, x2, y2, z)


def _rk4_builtin(x1, y1, x2, y2, z, h, n):
    # _rk4_raw with the built-in field written into its stages, with the
    # same bits: the field at stage k, (p, ak, q, ck, r), is (ak, p r, ck,
    # q r, -nk) with nk = p ak + q ck, so a stage's a and c are its y1 and
    # y2, and each `+ h * -nk` is rounded as the `- h * nk` here.  The update
    # of z adds the negated terms, as _rk4_raw does: `-0.0 - nk` is exactly
    # -nk, and an exact-zero sum then has the generic sign (a sum of nk
    # rounds to +0.0, and z - s * (+0.0) keeps the sign of a zero z)
    h2, s, isfinite = 0.5 * h, h / 6.0, math.isfinite
    for i in range(1, n + 1):
        b1, d1, n1 = x1 * z, x2 * z, x1 * y1 + x2 * y2
        p, a2, q = x1 + h2 * y1, y1 + h2 * b1, x2 + h2 * y2
        c2, r = y2 + h2 * d1, z - h2 * n1
        b2, d2, n2 = p * r, q * r, p * a2 + q * c2
        p, a3, q = x1 + h2 * a2, y1 + h2 * b2, x2 + h2 * c2
        c3, r = y2 + h2 * d2, z - h2 * n2
        b3, d3, n3 = p * r, q * r, p * a3 + q * c3
        p, a4, q = x1 + h * a3, y1 + h * b3, x2 + h * c3
        c4, r = y2 + h * d3, z - h * n3
        x1 = x1 + s * (y1 + 2.0 * (a2 + a3) + a4)
        x2 = x2 + s * (y2 + 2.0 * (c2 + c3) + c4)
        y1 = y1 + s * (b1 + 2.0 * (b2 + b3) + p * r)
        y2 = y2 + s * (d1 + 2.0 * (d2 + d3) + q * r)
        z = z + s * (2.0 * (-0.0 - n2 - n3) - n1 - (p * a4 + q * c4))
        if not isfinite(x1 + y1 + x2 + y2 + z):
            return i, (x1, y1, x2, y2, z)
    return n, (x1, y1, x2, y2, z)


def rk4_step(p, h: float):
    """One classical Runge-Kutta step of size h (local error O(h^5)), as a
    (5,) array."""
    import numpy as np
    from .core import as_state
    if h == 0:
        raise DomainError("step size must be nonzero")
    new = np.array(_rk4_builtin(*as_state(p).tolist(), h, 1)[1])
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


def _dp_builtin(x1, y1, x2, y2, z, h):
    # _dp_raw with the built-in field written into its stages, with the
    # same bits, as _rk4_builtin: stage k at (p, ak, q, ck, r) has the field
    # (ak, bk, ck, dk, -nk), and each sum of several -nk terms starts from
    # the negated first coefficient t1 = -s1, adding the terms in _dp_raw's
    # order and with their signs
    b1, d1, n1 = x1 * z, x2 * z, x1 * y1 + x2 * y2
    s = 1 / 5
    p, a2, q = x1 + h * (s * y1), y1 + h * (s * b1), x2 + h * (s * y2)
    c2, r = y2 + h * (s * d1), z - h * (s * n1)
    b2, d2, n2 = p * r, q * r, p * a2 + q * c2
    s1, s2, t1 = 3 / 40, 9 / 40, -3 / 40
    p, a3 = x1 + h * (s1 * y1 + s2 * a2), y1 + h * (s1 * b1 + s2 * b2)
    q, c3 = x2 + h * (s1 * y2 + s2 * c2), y2 + h * (s1 * d1 + s2 * d2)
    r = z + h * (t1 * n1 - s2 * n2)
    b3, d3, n3 = p * r, q * r, p * a3 + q * c3
    s1, s2, s3, t1 = 44 / 45, -56 / 15, 32 / 9, -44 / 45
    p, a4 = x1 + h * (s1 * y1 + s2 * a2 + s3 * a3), y1 + h * (s1 * b1 + s2 * b2 + s3 * b3)
    q, c4 = x2 + h * (s1 * y2 + s2 * c2 + s3 * c3), y2 + h * (s1 * d1 + s2 * d2 + s3 * d3)
    r = z + h * (t1 * n1 - s2 * n2 - s3 * n3)
    b4, d4, n4 = p * r, q * r, p * a4 + q * c4
    s1, s2, s3, s4, t1 = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729,
                          -19372 / 6561)
    p = x1 + h * (s1 * y1 + s2 * a2 + s3 * a3 + s4 * a4)
    a5 = y1 + h * (s1 * b1 + s2 * b2 + s3 * b3 + s4 * b4)
    q = x2 + h * (s1 * y2 + s2 * c2 + s3 * c3 + s4 * c4)
    c5 = y2 + h * (s1 * d1 + s2 * d2 + s3 * d3 + s4 * d4)
    r = z + h * (t1 * n1 - s2 * n2 - s3 * n3 - s4 * n4)
    b5, d5, n5 = p * r, q * r, p * a5 + q * c5
    s1, s2, s3, s4, s5, t1 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                              -5103 / 18656, -9017 / 3168)
    p = x1 + h * (s1 * y1 + s2 * a2 + s3 * a3 + s4 * a4 + s5 * a5)
    a6 = y1 + h * (s1 * b1 + s2 * b2 + s3 * b3 + s4 * b4 + s5 * b5)
    q = x2 + h * (s1 * y2 + s2 * c2 + s3 * c3 + s4 * c4 + s5 * c5)
    c6 = y2 + h * (s1 * d1 + s2 * d2 + s3 * d3 + s4 * d4 + s5 * d5)
    r = z + h * (t1 * n1 - s2 * n2 - s3 * n3 - s4 * n4 - s5 * n5)
    b6, d6, n6 = p * r, q * r, p * a6 + q * c6
    # the seventh stage, at the fifth-order state (p, a7, q, c7, r)
    s1, s3, s4, s5, s6, t1 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84,
                              -35 / 384)
    p = x1 + h * (s1 * y1 + s3 * a3 + s4 * a4 + s5 * a5 + s6 * a6)
    a7 = y1 + h * (s1 * b1 + s3 * b3 + s4 * b4 + s5 * b5 + s6 * b6)
    q = x2 + h * (s1 * y2 + s3 * c3 + s4 * c4 + s5 * c5 + s6 * c6)
    c7 = y2 + h * (s1 * d1 + s3 * d3 + s4 * d4 + s5 * d5 + s6 * d6)
    r = z + h * (t1 * n1 - s3 * n3 - s4 * n4 - s5 * n5 - s6 * n6)
    b7, d7, n7 = p * r, q * r, p * a7 + q * c7
    s1, s3, s4, s5, s6, s7, t1 = (5179 / 57600, 7571 / 16695, 393 / 640,
                                  -92097 / 339200, 187 / 2100, 1 / 40, -5179 / 57600)
    return (p, a7, q, c7, r), (
        x1 + h * (s1 * y1 + s3 * a3 + s4 * a4 + s5 * a5 + s6 * a6 + s7 * a7),
        y1 + h * (s1 * b1 + s3 * b3 + s4 * b4 + s5 * b5 + s6 * b6 + s7 * b7),
        x2 + h * (s1 * y2 + s3 * c3 + s4 * c4 + s5 * c5 + s6 * c6 + s7 * c7),
        y2 + h * (s1 * d1 + s3 * d3 + s4 * d4 + s5 * d5 + s6 * d6 + s7 * d7),
        z + h * (t1 * n1 - s3 * n3 - s4 * n4 - s5 * n5 - s6 * n6 - s7 * n7))


def _start_state(p0):
    """p0 as a list of five finite floats.  A list or tuple of five such
    numbers is taken as it is; anything else, an array say, goes through
    ``core.as_state``, which raises its DomainError on a bad state."""
    if (isinstance(p0, (list, tuple)) and len(p0) == 5
            and all(isinstance(v, (int, float)) for v in p0)):
        y0 = [float(v) for v in p0]
        if all(map(math.isfinite, y0)):
            return y0
    from .core import as_state
    return as_state(p0).tolist()


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
    y0 = _start_state(p0)
    if not all(map(math.isfinite, conserved_components(*y0))):
        raise DomainError(f"conserved quantities overflow at the start state {y0}")
    times, states = array("d", [0.0]), array("d", y0)
    driver = _integrate_rk4 if cfg.method == "rk4" else _integrate_rk45
    with _quiet(field):
        try:
            driver(times, states, cfg, _component_form(field))
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


def _kernel(f, builtin, generic):
    """The step kernel of a run with field f: the built-in kernel for
    ``domain.field_components`` itself, and otherwise the generic one
    calling f.  The drivers pass the module's kernels of the moment, so a
    patch of either applies to the runs it reaches."""
    if f is domain.field_components:
        return builtin
    return lambda *a: generic(*a, f)


def _integrate_rk4(times, states, cfg, f):
    # one kernel call a sample: it steps to the next multiple of the
    # stride, or to the last step, and stops early at a non-finite state
    n_steps, stride = _rk4_steps(cfg), cfg.sample_stride
    h = cfg.t_end / n_steps
    step = _kernel(f, _rk4_builtin, _rk4_raw)
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


def _integrate_rk45(times, states, cfg, f):
    t_end, stride, dt_max = cfg.t_end, cfg.sample_stride, cfg.dt_max
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    max_steps, max_samples, isfinite, sqrt = MAX_STEPS, MAX_SAMPLES, math.isfinite, math.sqrt
    safe, dt_min, record_t, record_y = TRIPLE_SAFE_SQUARES, DT_MIN, times.append, states.extend
    step = _kernel(f, _dp_builtin, _dp_raw)
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
    """Worst excursion of H, I, C from their t=0 values over the samples.

    Where NumPy is loaded (an in-process sweep, a long ``simulate`` after
    its CSV) the excursion is reduced on the ``conserved`` array, and
    otherwise (a short ``simulate``) on plain floats as
    max(max q - q0, q0 - min q), with the same bits: rounding is monotone,
    so q - q0 is largest at the largest q and q0 - q at the smallest.
    """
    if len(traj) == 0:
        raise DomainError("empty trajectory")
    if "numpy" not in sys.modules:
        return DriftReport(*(max(max(q) - q[0], q[0] - min(q)) for q in traj.columns()[6:]))
    import numpy as np
    dev = np.abs(traj.conserved - traj.conserved[0])
    return DriftReport(
        max_abs_dH=float(dev[:, 0].max()),
        max_abs_dI=float(dev[:, 1].max()),
        max_abs_dC=float(dev[:, 2].max()),
    )
