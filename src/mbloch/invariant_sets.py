"""The rank-2 invariant set of the conserved-quantity map F = (H, I, C).

Where the Jacobian of F drops from full rank 3 to rank 2 the phase space
contains a flow-invariant set, which here splits into two graph pieces:

    M1 = {(x1, y1, x2, -x1 y1/x2, -y1^2/x2^2) : x2 != 0}
    M2 = {(x1, 0, 0, y2, -y2^2/x1^2) : x1 != 0}

Neither piece is invariant alone; orbits started on M1 puncture M2 whenever
x2 crosses zero.  On M1 the dynamics reduces to three equations with the
conserved pair f1 = x1^2 + x2^2, f2 = y1/x2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _components, grad_C, grad_H, grad_I
from .domain import DomainError, finite_state, real_float


def jacobian_F(p) -> np.ndarray:
    """Jacobian (3, 5) or (..., 3, 5) of F = (H, I, C); rows are the gradients."""
    return np.stack([grad_H(p), grad_I(p), grad_C(p)], axis=-2)


@dataclass
class RankReport:
    singular_values: np.ndarray  # (3,) or (..., 3), descending
    rank: np.ndarray  # () or (...)
    tol_used: np.ndarray


def rank_F(p) -> RankReport:
    """Numerical rank of the Jacobian of F at p, (5,) or (..., 5), via one
    stacked SVD of its rows scaled to unit length, so that the rank does not
    depend on the scale of any one gradient (at (1e200, 1, 1, 1, 1) grad I and
    grad C are about 1e200 long and grad H about 1).  Each row is divided by
    its largest entry before its norm is taken, which cannot then overflow."""
    jac = jacobian_F(p)
    big = np.abs(jac).max(axis=-1, keepdims=True)
    jac = jac / np.where(big > 0, big, 1.0)  # zero rows stay zero
    norm = np.linalg.norm(jac, axis=-1, keepdims=True)
    sv = np.linalg.svd(jac / np.where(norm > 0, norm, 1.0), compute_uv=False)
    tol = sv[..., 0] * 1e-10  # sv[0] >= 1: grad C is never zero
    return RankReport(sv, np.sum(sv > tol[..., None], axis=-1), tol)


@dataclass
class M1Point:
    x1: float
    y1: float
    x2: float

    def __post_init__(self):
        self.x1, self.y1, self.x2 = map(real_float, (self.x1, self.y1, self.x2))
        if self.x2 == 0:
            raise DomainError("M1 requires x2 != 0")
        m1_embed(self)  # DomainError where the embedded state overflows


@dataclass
class M2Point:
    x1: float
    y2: float

    def __post_init__(self):
        self.x1, self.y2 = real_float(self.x1), real_float(self.y2)
        if self.x1 == 0:
            raise DomainError("M2 requires x1 != 0")
        m2_embed(self)  # DomainError where the embedded state overflows


def _graph_z(y, x):
    """z = -(y/x)^2 of both graphs; -inf where it overflows, which
    ``finite_state`` then refuses."""
    try:
        return -(y / x) ** 2
    except OverflowError:
        return -math.inf


def m1_embed(q: M1Point) -> np.ndarray:
    """The M1 point over q; DomainError where it is not finite."""
    return np.array(finite_state([q.x1, q.y1, q.x2, -q.x1 * q.y1 / q.x2, _graph_z(q.y1, q.x2)]))


def m2_embed(q: M2Point) -> np.ndarray:
    """The M2 point over q; DomainError where it is not finite."""
    return np.array(finite_state([q.x1, 0.0, 0.0, q.y2, _graph_z(q.y2, q.x1)]))


def _norms(p):
    """Scales 1 + |p|^2 and 1 + |p|^3 at states p (..., 5); DomainError where |p|^3
    overflows.  |p| = sqrt(p.p) by a one-state norm's dot; the cube rounds as n ** 3."""
    p = np.asarray(p, dtype=float)
    with np.errstate(over="ignore"):
        n = np.sqrt((p[..., None, :] @ p[..., :, None])[..., 0, 0])
        cube = np.float_power(n, 3)
    if np.isinf(cube).any():
        raise DomainError("the residual scale |p|^3 overflows at "
                          f"|p| = {float(n[np.isinf(cube)][0])!r}")
    return 1.0 + n * n, 1.0 + cube


def m1_defect(p):
    """Largest cleared-denominator residual of the M1 graph at states (5,) or (..., 5)."""
    x1, y1, x2, y2, z = _components(p)
    s2, s3 = _norms(p)
    return np.maximum(abs(y2 * x2 + x1 * y1) / s2, abs(z * x2 * x2 + y1 * y1) / s3)


def m2_defect(p):
    """The same for the M2 graph."""
    x1, y1, x2, y2, z = _components(p)
    _, s3 = _norms(p)
    return np.maximum(np.maximum(abs(y1), abs(x2)), abs(z * x1 * x1 + y2 * y2) / s3)


def _finite(values, what):
    if not all(map(math.isfinite, values)):
        raise DomainError(f"{what} is not finite: {values}")
    return values


def m1_reduced_field(q: M1Point):
    """Restricted dynamics on M1: (y1, -x1 w^2, -x1 w), w = y1/x2; finite or DomainError."""
    if q.x2 == 0:
        raise DomainError("reduced field singular at x2 = 0")
    w = q.y1 / q.x2
    return _finite((q.y1, -q.x1 * w * w, -q.x1 * w), "the reduced M1 field")


def m1_conserved(q: M1Point):
    """(f1, f2) = (x1^2 + x2^2, y1/x2), constant on M1 orbits; finite or DomainError."""
    if q.x2 == 0:
        raise DomainError("f2 singular at x2 = 0")
    return _finite((q.x1 * q.x1 + q.x2 * q.x2, q.y1 / q.x2), "(f1, f2)")


@dataclass
class ProbeReport:
    max_distance_to_union: float
    puncture_count: int
    predicted_punctures: int | None  # by the periodic family's schedule; None at y1 = 0


def invariance_probe(q0: M1Point, t_end: float) -> ProbeReport:
    """Integrate the full system from M1 and measure how far samples stray
    from the union M1 u M2 (constraint-residual defect), counting the sign
    changes of x2 (punctures of the M2 piece) and predicting them from the
    periodic family through q0, which is checked before the first step."""
    # imported here, not with this module, so that ``rank`` loads neither
    from .integrate import IntegratorConfig, integrate
    from .solutions import PeriodicParams, puncture_times
    family = PeriodicParams(q0.x1, q0.y1, q0.x2) if q0.y1 != 0 else None
    traj = integrate(m1_embed(q0), IntegratorConfig(
        method="rk45", t_end=t_end, abs_tol=1e-10, rel_tol=1e-10, dt_max=0.05))
    worst = np.minimum(m1_defect(traj.states), m2_defect(traj.states)).max()
    signs = np.sign(traj.states[:, 2])
    punctures = int(np.sum(signs[1:] * signs[:-1] < 0))
    predicted = None if family is None else puncture_times(family).count_in(t_end)
    return ProbeReport(float(worst), punctures, predicted)
