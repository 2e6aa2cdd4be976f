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

from .core import DomainError, as_state, grad_C, grad_H, grad_I
from .integrate import IntegratorConfig, integrate


def jacobian_F(p) -> np.ndarray:
    """3x5 Jacobian of F = (H, I, C); rows are the analytic gradients."""
    point = as_state(p)
    return np.vstack([grad_H(point), grad_I(point), grad_C(point)])


@dataclass
class RankReport:
    singular_values: np.ndarray  # 3 values, descending
    rank: int
    tol_used: float


def rank_F(p) -> RankReport:
    """Numerical rank of the Jacobian of F via the singular values of its
    rows scaled to unit length, so that the rank does not depend on the
    scale of any one gradient (at (1e200, 1, 1, 1, 1) grad I and grad C are
    about 1e200 long and grad H about 1).  Each row is divided by its
    largest entry before its norm is taken, which cannot then overflow."""
    jac = jacobian_F(p)
    big = np.abs(jac).max(axis=1, keepdims=True)
    jac = jac / np.where(big > 0, big, 1.0)  # zero rows stay zero
    norm = np.linalg.norm(jac, axis=1, keepdims=True)
    sv = np.linalg.svd(jac / np.where(norm > 0, norm, 1.0), compute_uv=False)
    tol = float(sv[0]) * 1e-10  # sv[0] >= 1: grad C is never zero
    return RankReport(singular_values=sv, rank=int(np.sum(sv > tol)), tol_used=tol)


@dataclass
class M1Point:
    x1: float
    y1: float
    x2: float

    def __post_init__(self):
        if self.x2 == 0:
            raise DomainError("M1 requires x2 != 0")
        m1_embed(self)  # DomainError where the embedded state overflows


@dataclass
class M2Point:
    x1: float
    y2: float

    def __post_init__(self):
        if self.x1 == 0:
            raise DomainError("M2 requires x1 != 0")
        m2_embed(self)  # DomainError where the embedded state overflows


def _graph_z(y, x):
    """z = -(y/x)^2 of both graphs; -inf where it overflows, which
    ``as_state`` then refuses."""
    try:
        return -(y / x) ** 2
    except OverflowError:
        return -math.inf


def m1_embed(q: M1Point) -> np.ndarray:
    """The M1 point over q; DomainError where it is not finite."""
    return as_state([q.x1, q.y1, q.x2, -q.x1 * q.y1 / q.x2, _graph_z(q.y1, q.x2)])


def m2_embed(q: M2Point) -> np.ndarray:
    """The M2 point over q; DomainError where it is not finite."""
    return as_state([q.x1, 0.0, 0.0, q.y2, _graph_z(q.y2, q.x1)])


def _norms(p):
    """Scales 1 + |p|^2 and 1 + |p|^3 of the cleared-denominator residuals;
    DomainError where |p|^3 overflows."""
    n = float(np.linalg.norm(p))
    try:
        cube = n ** 3
    except OverflowError:
        cube = math.inf
    if cube == math.inf:
        raise DomainError(f"the residual scale |p|^3 overflows at |p| = {n!r}")
    return 1.0 + n * n, 1.0 + cube


def m1_defect(p) -> float:
    """Largest cleared-denominator constraint residual of the M1 graph."""
    x1, y1, x2, y2, z = as_state(p)
    s2, s3 = _norms(p)
    return max(abs(y2 * x2 + x1 * y1) / s2, abs(z * x2 * x2 + y1 * y1) / s3)


def m2_defect(p) -> float:
    x1, y1, x2, y2, z = as_state(p)
    _, s3 = _norms(p)
    return max(abs(y1), abs(x2), abs(z * x1 * x1 + y2 * y2) / s3)


def m1_reduced_field(q: M1Point):
    """Restricted dynamics on M1: (y1, -x1 y1^2/x2^2, -x1 y1/x2)."""
    if q.x2 == 0:
        raise DomainError("reduced field singular at x2 = 0")
    return (q.y1, -q.x1 * q.y1 ** 2 / q.x2 ** 2, -q.x1 * q.y1 / q.x2)


def m1_conserved(q: M1Point):
    """(f1, f2) = (x1^2 + x2^2, y1/x2), both constant along the M1 flow."""
    if q.x2 == 0:
        raise DomainError("f2 singular at x2 = 0")
    return (q.x1 ** 2 + q.x2 ** 2, q.y1 / q.x2)


@dataclass
class ProbeReport:
    max_distance_to_union: float
    puncture_count: int


def invariance_probe(q0: M1Point, t_end: float) -> ProbeReport:
    """Integrate the full system from M1 and measure how far samples stray
    from the union M1 u M2 (constraint-residual defect), counting the sign
    changes of x2 (punctures of the M2 piece)."""
    cfg = IntegratorConfig(method="rk45", t_end=t_end,
                           abs_tol=1e-10, rel_tol=1e-10, dt_max=0.05)
    traj = integrate(m1_embed(q0), cfg)
    worst = max(min(m1_defect(s), m2_defect(s)) for s in traj.states)
    x2 = traj.states[:, 2]
    signs = np.sign(x2)
    punctures = int(np.sum(signs[1:] * signs[:-1] < 0))
    return ProbeReport(max_distance_to_union=float(worst), puncture_count=punctures)
