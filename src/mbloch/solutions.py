"""Closed-form special solutions: sech homoclinics and harmonic periodic orbits.

On every leaf C = c the squared radius s = x1^2 + x2^2 of an orbit solves
one scalar equation, s'^2 = P(s), with the cubic ``radial_cubic`` of the
orbit's level.  On a leaf with c > 0 the unstable axis equilibrium
(0,0,0,0,c) carries a two-parameter family of homoclinic orbits with
sech/tanh profile: at their level P = s^2 (4c - s), so s is the pulse
4c sech^2(sqrt(c) t), and I = 0 freezes the angle atan2(x2, x1).
Independently, the rank-2 invariant set supports a family of exactly
periodic solutions with constant z: the rotations at frequency w through its
chart points ``invariant_sets.RankTwoPoint(x1, x2, w)`` with w != 0, read by
their x1, x2 and w alone: the module does not import ``invariant_sets``.

A time t is a real number or a regular nest of them, read as a state's
component is (``core._reals``).
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


@dataclass(frozen=True)
class HomoclinicParams:
    """Selects one homoclinic at the leaf equilibrium (0,0,0,0,c), c > 0;
    sign is the integer +1 or -1 (a bool or a float is refused)."""

    c: float
    theta0: float = 0.0
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "c", real_float(self.c))
        object.__setattr__(self, "theta0", finite_float(self.theta0, "theta0"))
        if self.c <= 0:
            raise DomainError("homoclinics exist only on leaves with c > 0")
        leaf_energy(self.c)
        object.__setattr__(self, "sign", integer_at_least(self.sign, -1, "sign"))
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


def _phase(w, t):
    """The times t, read by ``_times``, and the sine and cosine of the phase
    w t at each; DomainError, without a warning, where w t overflows."""
    t = _times(t)
    with np.errstate(over="ignore"):
        wt = w * t
    if not np.isfinite(wt).all():
        raise DomainError(f"the phase w t overflows at w = {w!r}, "
                          f"|t| = {float(np.abs(t).max())!r}")
    return t, np.sin(wt), np.cos(wt)


def periodic_solution(q: "RankTwoPoint", t):
    """Explicit periodic orbit of the full system through the chart point q; shape (..., 5).

    z is frozen at -w^2 and the (x1, x2) pair rotates with frequency w;
    y1 = w x2 and y2 = -w x1 along the orbit.  DomainError where the phase
    w t overflows.
    """
    x1, x2, w = q.x1, q.x2, q.w
    t, s, co = _phase(w, t)
    return np.stack([x2 * s + x1 * co, -w * (x1 * s - x2 * co), -x1 * s + x2 * co,
                     -w * (x2 * s + x1 * co), np.full(t.shape, -w * w)], axis=-1)


def periodic_derivative(q: "RankTwoPoint", t):
    """Analytic d/dt of periodic_solution; DomainError where it is."""
    x1, x2, w = q.x1, q.x2, q.w
    t, s, co = _phase(w, t)
    return np.stack([w * (x2 * co - x1 * s), -w * w * (x1 * co + x2 * s),
                     -w * (x1 * co + x2 * s), -w * w * (x2 * co - x1 * s),
                     np.zeros(t.shape)], axis=-1)


def periodic_orbit(q: "RankTwoPoint"):
    """(orbit(t), derivative(t), level at t = 0, residual bound, level bound)
    for ``orbit_errors``; one bound serves both.  DomainError where
    ``q.period`` is: w = 0, or a scale of the orbit overflows."""
    q.period  # the bounds and the level are finite past its checks
    orbit = functools.partial(periodic_solution, q)
    tol = 1e-12 * (1 + q.w ** 2) * (1 + q.x1 ** 2 + q.x2 ** 2)
    return orbit, functools.partial(periodic_derivative, q), conserved(orbit(0.0)), tol, tol


def orbit_errors(orbit, derivative, level, t):
    """Largest field residual |derivative(t) - f(orbit(t))| and largest
    deviation of (H, I, C) from ``level`` over the times t, two floats, NaN
    where either is NaN: the one measure of a closed-form orbit."""
    states = orbit(t)
    resid = np.abs(derivative(t) - vector_field(states)).max()
    dev = np.abs(np.column_stack(conserved(states)) - level).max()
    return float(resid), float(dev)
