"""Closed-form special solutions: sech homoclinics and harmonic periodic orbits.

On every leaf C = c the squared radius s = x1^2 + x2^2 of an orbit solves
one scalar equation, s'^2 = P(s), with the cubic ``radial_cubic`` of the
orbit's level.  On a leaf with c > 0 the unstable axis equilibrium
(0,0,0,0,c) carries a two-parameter family of homoclinic orbits with
sech/tanh profile: at their level P = s^2 (4c - s), so s is the pulse
4c sech^2(sqrt(c) t), and I = 0 freezes the angle atan2(x2, x1).
Independently, the rank-2 invariant set supports a family of exactly
periodic solutions with constant z and angular frequency y1_0/x2_0.

A time t is a real number or a regular nest of them, read as a state's
component is (``core._reals``); a family's punctures take an integer
index k >= 0 or a finite end time.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

# times t, a real number or a regular nest of them, as finite float64 of t's
# shape: a time is read as a state's component is
from .core import _reals as _times, conserved, vector_field
from .domain import DomainError, finite_float, integer_at_least, leaf_energy, real_float


def radial_cubic(s, H, I, C):
    """P(s) = -s^3 + 4 C s^2 + (8 H - 4 C^2) s - 4 I^2, for floats or arrays.

    Along every orbit, s = x1^2 + x2^2 obeys s'^2 = P(s) and s'' = P'(s)/2,
    where (H, I, C) is the orbit's level.  By Lagrange's identity
    s |y|^2 = (x . y)^2 + I^2, and with s' = 2 x . y, |y|^2 = 2 H - z^2 and
    z = C - s/2 this reads s'^2 = 4 s (2 H - (C - s/2)^2) - 4 I^2 = P(s);
    its derivative divided by 2 s' is s'' = P'(s)/2.
    At the homoclinic level (c^2/2, 0, c), P = s^2 (4c - s): a double root
    at the leaf equilibrium s = 0 and the pulse's peak at s = 4c.
    """
    return -s * s * s + 4 * C * s * s + (8 * H - 4 * C * C) * s - 4 * I * I


@dataclass
class HomoclinicParams:
    """Selects one homoclinic at the leaf equilibrium (0,0,0,0,c), c > 0;
    sign is the integer +1 or -1 (a bool or a float is refused)."""

    c: float
    theta0: float = 0.0
    sign: int = 1

    def __post_init__(self):
        self.c, self.theta0 = real_float(self.c), finite_float(self.theta0, "theta0")
        if self.c <= 0:
            raise DomainError("homoclinics exist only on leaves with c > 0")
        leaf_energy(self.c)
        self.sign = integer_at_least(self.sign, -1, "sign")
        if self.sign not in (1, -1):
            raise DomainError("sign must be +1 or -1")


def _sech_tanh(rc, t):
    """sech(rc t) and tanh(rc t) for a scalar or array t; where cosh
    overflows, sech is 0 (its correct underflow), without a warning."""
    x = rc * _times(t)
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(x), np.tanh(x)


def homoclinic(params: HomoclinicParams, t):
    """Closed-form homoclinic orbit; t may be a scalar or an array.

    x1 = +-2 sqrt(c) sech(sqrt(c) t) cos(theta0) and cyclic companions;
    z = c (1 - 2 sech^2).  Returns shape (..., 5).
    """
    c, th, s = params.c, params.theta0, float(params.sign)
    rc = math.sqrt(c)
    sech, tanh = _sech_tanh(rc, t)
    ct, st = math.cos(th), math.sin(th)
    return np.stack([
        s * 2.0 * rc * sech * ct,
        -s * 2.0 * c * sech * tanh * ct,
        s * 2.0 * rc * sech * st,
        -s * 2.0 * c * sech * tanh * st,
        c * (1.0 - 2.0 * sech ** 2),
    ], axis=-1)


def homoclinic_derivative(params: HomoclinicParams, t):
    """Analytic d/dt of the homoclinic (sech' = -sech tanh, tanh' = sech^2)."""
    c, th, s = params.c, params.theta0, float(params.sign)
    rc = math.sqrt(c)
    sech, tanh = _sech_tanh(rc, t)
    ct, st = math.cos(th), math.sin(th)
    d_sech = -rc * sech * tanh
    d_secht = rc * (sech * sech ** 2 - sech * tanh ** 2)  # d/dt (sech*tanh)
    return np.stack([
        s * 2.0 * rc * d_sech * ct,
        -s * 2.0 * c * d_secht * ct,
        s * 2.0 * rc * d_sech * st,
        -s * 2.0 * c * d_secht * st,
        -4.0 * c * sech * d_sech,
    ], axis=-1)


def homoclinic_orbit(par: HomoclinicParams):
    """(orbit(t), derivative(t), level (c^2/2, 0, c), residual bound, level
    bound) for ``orbit_errors``: the field along the orbit scales as c^1.5."""
    return (functools.partial(homoclinic, par), functools.partial(homoclinic_derivative, par),
            (leaf_energy(par.c), 0.0, par.c),
            1e-12 * (1 + par.c ** 1.5), 1e-12 * (1 + par.c * par.c))


@dataclass(frozen=True)
class PeriodicParams:
    """Initial data (x1_0, y1_0, x2_0) on the rank-2 set, x2_0, y1_0 != 0,
    checked once: frozen, so no field changes under its omega or punctures."""

    x1_0: float
    y1_0: float
    x2_0: float

    def __post_init__(self):
        x1, y1, x2 = map(real_float, (self.x1_0, self.y1_0, self.x2_0))
        for name, value in (("x1_0", x1), ("y1_0", y1), ("x2_0", x2)):
            object.__setattr__(self, name, value)
        if x2 == 0 or y1 == 0:
            raise DomainError("periodic family requires x2_0 != 0 and y1_0 != 0")
        w = self.omega
        if w == 0:
            raise DomainError(f"omega = y1_0 / x2_0 underflows to 0 at "
                              f"y1_0 = {y1!r}, x2_0 = {x2!r}")
        if not math.isfinite(self.period):
            raise DomainError(f"the period 2 pi / |omega| overflows at omega = {w!r}")
        if not math.isfinite((1 + w * w) * (1 + x1 * x1 + x2 * x2)):
            raise DomainError("the orbit's residual scale (1 + omega^2)"
                              "(1 + x1_0^2 + x2_0^2) overflows")
        # z = -omega^2, so H grows as omega^4, past the residual scale
        if not math.isfinite(w * w * (x1 * x1 + x2 * x2 + w * w)):
            raise DomainError("the orbit's energy 2 H = omega^2 (x1_0^2 + x2_0^2"
                              " + omega^2) overflows")

    @property
    def omega(self) -> float:
        return self.y1_0 / self.x2_0

    @property
    def period(self) -> float:
        return math.tau / abs(self.omega)

    @property
    def puncture_spacing(self) -> float:
        return math.pi * abs(self.x2_0 / self.y1_0)

    def puncture_time(self, k) -> float:
        """The k-th time t_0 < t_1 < ... after t = 0 where the orbit crosses
        x2 = y1 = 0, k an integer >= 0 (not a bool or a float); DomainError
        otherwise and where the time overflows.  As x2 = r sin(vartheta -
        omega t), vartheta in [0, 2 pi) the phase of (x1_0, x2_0), these are
        the times (x2_0 / y1_0) vartheta mod the spacing pi |x2_0 / y1_0|."""
        ratio, spacing = self.x2_0 / self.y1_0, self.puncture_spacing
        vartheta = math.atan2(self.x2_0, self.x1_0) % math.tau
        n = real_float(integer_at_least(k, 0, "k"))
        return finite_float((ratio * vartheta) % spacing + n * spacing, "the puncture time")

    def punctures_in(self, t_end) -> int:
        """Number of punctures with 0 < t_k <= t_end, t_end a finite real
        number; DomainError otherwise."""
        t_end = finite_float(t_end, "t_end")
        first = self.puncture_time(0)
        if t_end < first:
            return 0
        return int((t_end - first) // self.puncture_spacing) + 1


def periodic_solution(params: PeriodicParams, t):
    """Explicit periodic orbit of the full system; shape (..., 5).

    z is frozen at -omega^2 and the (x1, x2) pair rotates with frequency
    omega = y1_0 / x2_0; y1 = omega x2 and y2 = -omega x1 along the orbit.
    """
    w = params.omega
    t = _times(t)
    s, co = np.sin(w * t), np.cos(w * t)
    x1 = params.x2_0 * s + params.x1_0 * co
    x2 = -params.x1_0 * s + params.x2_0 * co
    y1 = -w * (params.x1_0 * s - params.x2_0 * co)
    y2 = -w * (params.x2_0 * s + params.x1_0 * co)
    return np.stack([x1, y1, x2, y2, np.full(t.shape, -w * w)], axis=-1)


def periodic_derivative(params: PeriodicParams, t):
    """Analytic d/dt of periodic_solution."""
    w = params.omega
    t = _times(t)
    s, co = np.sin(w * t), np.cos(w * t)
    dx1 = w * (params.x2_0 * co - params.x1_0 * s)
    dx2 = -w * (params.x1_0 * co + params.x2_0 * s)
    dy1 = -w * w * (params.x1_0 * co + params.x2_0 * s)
    dy2 = -w * w * (params.x2_0 * co - params.x1_0 * s)
    return np.stack([dx1, dy1, dx2, dy2, np.zeros(t.shape)], axis=-1)


def periodic_orbit(par: PeriodicParams):
    """(orbit(t), derivative(t), level at t = 0, residual bound, level bound)
    for ``orbit_errors``; one bound serves both."""
    orbit = functools.partial(periodic_solution, par)
    tol = 1e-12 * (1 + par.omega ** 2) * (1 + par.x1_0 ** 2 + par.x2_0 ** 2)
    return orbit, functools.partial(periodic_derivative, par), conserved(orbit(0.0)), tol, tol


def orbit_errors(orbit, derivative, level, t):
    """Largest field residual |derivative(t) - f(orbit(t))| and largest
    deviation of (H, I, C) from ``level`` over the times t, two floats, NaN
    where either is NaN: the one measure of a closed-form orbit."""
    states = orbit(t)
    resid = np.abs(derivative(t) - vector_field(states)).max()
    dev = np.abs(np.column_stack(conserved(states)) - level).max()
    return float(resid), float(dev)
