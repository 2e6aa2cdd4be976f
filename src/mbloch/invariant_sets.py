"""The rank-2 invariant set of the conserved-quantity map F = (H, I, C).

Where the Jacobian of F drops from full rank 3 to rank 2 the phase space
contains a flow-invariant set, which here splits into two graph pieces:

    M1 = {(x1, y1, x2, -x1 y1/x2, -y1^2/x2^2) : x2 != 0}
    M2 = {(x1, 0, 0, y2, -y2^2/x1^2) : x1 != 0}

Neither piece is invariant alone; orbits started on M1 puncture M2 whenever
x2 crosses zero.  On M1 the dynamics reduces to three equations with the
conserved pair f1 = x1^2 + x2^2, f2 = y1/x2.

The module imports neither NumPy nor ``core``: ``rank_F`` reads its input
by ``domain.finite_reals``, takes the gradients off
``domain.gradient_components`` and reduces one state on plain floats, so the
``rank`` command starts without either.  An ``M1Point`` or ``M2Point`` is
frozen and keeps its embedded state, a tuple of five floats checked once by
``finite_state``: ``q.state`` is the one embedding every caller reads.  The
functions that build or take arrays import them when they are called.
"""

import math
import sys
from dataclasses import dataclass

from .domain import DomainError, finite_reals, finite_state, gradient_components, real_float

# one-sided Jacobi sweeps over the three row pairs; eight leave every state
# tried within 1e-15 of LAPACK's singular values
_SWEEPS = 8


def jacobian_F(p):
    """Jacobian (3, 5) or (..., 3, 5) of F = (H, I, C); rows are the gradients."""
    import numpy as np
    from .core import grad_C, grad_H, grad_I
    return np.stack([grad_H(p), grad_I(p), grad_C(p)], axis=-2)


@dataclass
class RankReport:
    singular_values: object  # (3,) or (..., 3) array, descending; 3 floats without NumPy
    rank: object  # () or (...) integer array; an int without NumPy
    tol_used: object  # () or (...) array; a float without NumPy


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3] + u[4] * v[4]


def _singular_values(rows, sqrt, maximum, minimum):
    """Descending singular values of the three rows of five entries, each
    row scaled to unit length first, by one-sided Jacobi (Hestenes 1958):
    ``_SWEEPS`` sweeps of rotations that make each pair of rows orthogonal,
    after which the row lengths are the singular values.  Each row is divided
    by its largest entry before its length is taken, which cannot then
    overflow.  One text for floats (``math.sqrt, max, min``) and for arrays
    of states (``np.sqrt, np.maximum, np.minimum``): it has no branch, so
    each state of a stack takes the float path's operations, bit for bit."""
    scaled = []
    for row in rows:
        big = abs(row[0])
        for entry in row[1:]:
            big = maximum(big, abs(entry))
        row = [entry / (big + (big == 0)) for entry in row]  # a zero row stays zero
        norm = sqrt(_dot(row, row))
        scaled.append([entry / (norm + (norm == 0)) for entry in row])
    for _ in range(_SWEEPS):
        for i, j in ((0, 1), (0, 2), (1, 2)):
            u, v = scaled[i], scaled[j]
            d, g = _dot(v, v) - _dot(u, u), _dot(u, v)
            den = abs(d) + sqrt(d * d + 4.0 * g * g)
            # tan of the rotation angle, the root of t^2 + (d/g) t = 1 at most 1 in size
            t = 2.0 * g * ((d >= 0) * 2.0 - 1.0) / (den + (den == 0))
            c = 1.0 / sqrt(1.0 + t * t)
            s = c * t
            scaled[i] = [c * a - s * b for a, b in zip(u, v)]
            scaled[j] = [s * a + c * b for a, b in zip(u, v)]
    s1, s2, s3 = (sqrt(_dot(row, row)) for row in scaled)
    s1, s2 = maximum(s1, s2), minimum(s1, s2)
    s2, s3 = maximum(s2, s3), minimum(s2, s3)
    s1, s2 = maximum(s1, s2), minimum(s1, s2)
    return s1, s2, s3


def rank_F(p) -> RankReport:
    """Numerical rank of the Jacobian of F at p, (5,) or (..., 5), from the
    singular values of its rows scaled to unit length, so that the rank does
    not depend on the scale of any one gradient (at (1e200, 1, 1, 1, 1)
    grad I and grad C are about 1e200 long and grad H about 1).

    Where NumPy is not loaded (the ``rank`` command) p is read by
    ``finite_reals``, and a single state, shape (5,), is reduced on plain
    floats and reported as floats and an int; otherwise the states are read
    by ``core._components`` and a stack is reduced as arrays, with the same
    bits, and the report holds arrays."""
    if "numpy" not in sys.modules:
        shape, floats = finite_reals(p)
        if shape == (5,):
            sv = _singular_values(gradient_components(*floats), math.sqrt, max, min)
            tol = sv[0] * 1e-10  # sv[0] >= 1: grad C is never zero
            return RankReport(sv, sum(s > tol for s in sv), tol)
    from .core import _components
    comps = _components(p)  # a stack given without NumPy loaded is read a second time
    import numpy as np
    if comps.ndim == 1:  # one state: the same text on floats, not on NumPy scalars
        sv = np.array(_singular_values(gradient_components(*comps.tolist()), math.sqrt, max, min))
    else:
        sv = np.stack(_singular_values(gradient_components(*comps), np.sqrt, np.maximum,
                                       np.minimum), axis=-1)
    tol = sv[..., 0] * 1e-10
    return RankReport(sv, np.sum(sv > tol[..., None], axis=-1), tol)


@dataclass(frozen=True)
class M1Point:
    x1: float
    y1: float
    x2: float

    def __post_init__(self):
        x1, y1, x2 = map(real_float, (self.x1, self.y1, self.x2))
        if x2 == 0:
            raise DomainError("M1 requires x2 != 0")
        # the embedded M1 point (x1, y1, x2, -x1 y1/x2, -(y1/x2)^2), five
        # finite floats, kept out of the fields; frozen, all are set once here
        state = tuple(finite_state([x1, y1, x2, -x1 * y1 / x2, _graph_z(y1, x2)]))
        for name, value in (("x1", x1), ("y1", y1), ("x2", x2), ("state", state)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class M2Point:
    x1: float
    y2: float

    def __post_init__(self):
        x1, y2 = real_float(self.x1), real_float(self.y2)
        if x1 == 0:
            raise DomainError("M2 requires x1 != 0")
        # the embedded M2 point (x1, 0, 0, y2, -(y2/x1)^2), five finite floats
        state = tuple(finite_state([x1, 0.0, 0.0, y2, _graph_z(y2, x1)]))
        for name, value in (("x1", x1), ("y2", y2), ("state", state)):
            object.__setattr__(self, name, value)


def _graph_z(y, x):
    """z = -(y/x)^2 of both graphs; -inf where it overflows, which
    ``finite_state`` then refuses."""
    try:
        return -(y / x) ** 2
    except OverflowError:
        return -math.inf


def _norms(p):
    """Scales 1 + |p|^2 and 1 + |p|^3 at float64 states p (..., 5), already
    read; DomainError where |p|^3 overflows.  |p| = sqrt(p.p) by a one-state
    norm's dot; the cube rounds as n ** 3."""
    import numpy as np
    with np.errstate(over="ignore"):
        n = np.sqrt((p[..., None, :] @ p[..., :, None])[..., 0, 0])
        cube = np.float_power(n, 3)
    if np.isinf(cube).any():
        raise DomainError("the residual scale |p|^3 overflows at "
                          f"|p| = {float(n[np.isinf(cube)][0])!r}")
    return 1.0 + n * n, 1.0 + cube


def m1_defect(p):
    """Largest cleared-denominator residual of the M1 graph at states (5,) or (..., 5)."""
    import numpy as np
    from .core import _components
    x1, y1, x2, y2, z = comps = _components(p)
    s2, s3 = _norms(np.moveaxis(comps, 0, -1))
    return np.maximum(abs(y2 * x2 + x1 * y1) / s2, abs(z * x2 * x2 + y1 * y1) / s3)


def m2_defect(p):
    """The same for the M2 graph."""
    import numpy as np
    from .core import _components
    x1, y1, x2, y2, z = comps = _components(p)
    _, s3 = _norms(np.moveaxis(comps, 0, -1))
    return np.maximum(np.maximum(abs(y1), abs(x2)), abs(z * x1 * x1 + y2 * y2) / s3)


def m1_reduced_field(q: M1Point):
    """Restricted dynamics on M1: (y1, -x1 w^2, -x1 w), w = y1/x2; finite or DomainError."""
    w = q.y1 / q.x2
    return tuple(finite_reals((q.y1, -q.x1 * w * w, -q.x1 * w))[1])


def m1_conserved(q: M1Point):
    """(f1, f2) = (x1^2 + x2^2, y1/x2), constant on M1 orbits; finite or DomainError."""
    return tuple(finite_reals((q.x1 * q.x1 + q.x2 * q.x2, q.y1 / q.x2))[1])


@dataclass
class ProbeReport:
    max_distance_to_union: float
    puncture_count: int
    predicted_punctures: int | None  # by the periodic family's punctures_in; None at y1 = 0


def invariance_probe(q0: M1Point, t_end: float) -> ProbeReport:
    """Integrate the full system from M1 and measure how far samples stray
    from the union M1 u M2 (constraint-residual defect), counting the sign
    changes of x2 (punctures of the M2 piece) and predicting them from the
    periodic family through q0, which is checked before the first step."""
    # imported here, not with this module, so that ``rank`` loads none of them
    import numpy as np
    from .integrate import IntegratorConfig, integrate
    from .solutions import PeriodicParams
    family = PeriodicParams(q0.x1, q0.y1, q0.x2) if q0.y1 != 0 else None
    traj = integrate(q0.state, IntegratorConfig(
        method="rk45", t_end=t_end, abs_tol=1e-10, rel_tol=1e-10, dt_max=0.05))
    worst = np.minimum(m1_defect(traj.states), m2_defect(traj.states)).max()
    signs = np.sign(traj.states[:, 2])
    punctures = int(np.sum(signs[1:] * signs[:-1] < 0))
    predicted = None if family is None else family.punctures_in(t_end)
    return ProbeReport(float(worst), punctures, predicted)
