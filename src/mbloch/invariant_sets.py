"""The rank-2 invariant set of the conserved-quantity map F = (H, I, C).

rank dF < 3 where a dH + b dI + c dC = 0, (a, b, c) != 0, with the rows
dH = (0, y1, 0, y2, z), dI = (-y2, x2, y1, -x1, 0), dC = (x1, 0, x2, 0, 1).
If a = 0, the fifth entry forces c = 0 and then dI = 0: the z-axis x = y = 0.
If a = 1, the entries read y1 = w x2, y2 = -w x1 (w = -b), z = -c and
(c - w^2) x = 0.  So off the z-axis the set is one chart of relative
equilibria, dH - w dI + w^2 dC = 0:

    R(x1, x2, w) = (x1, w x2, x2, -w x1, -w^2),   (x1, x2) != 0,

whose part x2 != 0 is the paper's graph M1 (w = y1/x2) and x2 = 0 its M2.
On R, with s = x1^2 + x2^2, I = w s, 2H = w^2 s + w^4 and 2C = s - 2 w^2, so
a state reads its chart parameter as w = I/s, and the field is
w (x2, y2, -x1, -y1, 0), the rotation that I generates: R is invariant, with
s and w constant.  Where w != 0 it is the paper's family of periodic
solutions, and a ``RankTwoPoint`` is that family's one parametrisation: it
answers for its period 2 pi/|w| and, off M2, for its punctures.  M1 alone is
not invariant, as the rotation reaches x2 = 0: a puncture is a change of graph.

The module loads neither NumPy nor ``core``; ``jacobian_F`` and ``rank_F`` import
them where they take arrays, so ``rank`` and ``invariant-probe`` run on plain floats.
"""

import math
import sys
from dataclasses import dataclass

from .domain import (DomainError, finite_float, finite_reals, finite_state,
                     gradient_components, integer_at_least, real_float)

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
class RankTwoPoint:
    """The chart point R(x1, x2, w) = (x1, w x2, x2, -w x1, -w^2), with
    (x1, x2) != 0; frozen, it keeps its state, a tuple of five floats
    checked once by ``finite_state``.  DomainError otherwise.  Where w != 0
    it is a member of the periodic family: it has a ``period`` and, where
    x2 != 0 too, puncture times."""

    x1: float
    x2: float
    w: float

    def __post_init__(self):
        x1, x2, w = map(real_float, (self.x1, self.x2, self.w))
        if x1 == 0 and x2 == 0:
            raise DomainError("the chart needs (x1, x2) != 0: the z-axis is not in it")
        state = tuple(finite_state([x1, w * x2, x2, -w * x1, -w * w]))
        for name, value in (("x1", x1), ("x2", x2), ("w", w), ("state", state)):
            object.__setattr__(self, name, value)

    @property
    def period(self) -> float:
        """2 pi / |w|, the period of the orbit through the point.  DomainError
        at w = 0, an equilibrium, and where the period, the orbit's residual
        scale (1 + w^2)(1 + x1^2 + x2^2) or its energy
        2 H = w^2 (x1^2 + x2^2 + w^2) overflows."""
        x1, x2, w = self.x1, self.x2, self.w
        period = math.tau / abs(w) if w != 0 else math.inf
        if not math.isfinite(period):
            raise DomainError(f"the period 2 pi / |w| is infinite at w = {w!r}")
        if not math.isfinite((1 + w * w) * (1 + x1 * x1 + x2 * x2)):
            raise DomainError("the orbit's residual scale (1 + w^2)(1 + x1^2 + x2^2) overflows")
        # z = -w^2, so H grows as w^4, past the residual scale
        if not math.isfinite(w * w * (x1 * x1 + x2 * x2 + w * w)):
            raise DomainError("the orbit's energy 2 H = w^2 (x1^2 + x2^2 + w^2) overflows")
        return period

    @property
    def puncture_spacing(self) -> float:
        """pi |x2 / y1|, read off the state (y1 = w x2) as the puncture times
        are; DomainError where x2 = 0 or y1 = 0, and where ``period`` is."""
        x2, y1 = self.x2, self.state[1]
        if x2 == 0 or y1 == 0:
            raise DomainError(f"the punctures need x2 != 0 and y1 = w x2 != 0, "
                              f"got x2 = {x2!r}, y1 = {y1!r}")
        self.period  # the checks of the orbit
        return math.pi * abs(x2 / y1)

    def puncture_time(self, k) -> float:
        """The k-th time t_0 < t_1 < ... after t = 0 where the orbit crosses
        x2 = y1 = 0, k an integer >= 0 (not a bool or a float); DomainError
        otherwise and where the time overflows.  As x2 = r sin(vartheta - w t),
        vartheta in [0, 2 pi) the phase of (x1, x2), these are the times
        (x2 / y1) vartheta mod the spacing pi |x2 / y1|."""
        spacing, ratio = self.puncture_spacing, self.x2 / self.state[1]
        vartheta = math.atan2(self.x2, self.x1) % math.tau
        n = real_float(integer_at_least(k, 0, "k"))
        return finite_float((ratio * vartheta) % spacing + n * spacing, "the puncture time")

    def punctures_in(self, t_end) -> int:
        """Number of punctures with 0 < t_k <= t_end, t_end a finite real
        number; DomainError otherwise."""
        t_end = finite_float(t_end, "t_end")
        first = self.puncture_time(0)
        return 0 if t_end < first else int((t_end - first) // self.puncture_spacing) + 1


def rank_two_defect(p) -> float:
    """Distance of the state p from R at its own chart parameter w = I/s:
    max(|z + w^2|, |y1 - w x2|, |y2 + w x1|) over 1 + |p|^2, which bounds the
    rounding of each term; inf where s = 0 (the z-axis) or w^2 overflows, the
    first term, which max keeps over a NaN; DomainError where |p|^2 overflows."""
    x1, y1, x2, y2, z = finite_state(p)
    s = x1 * x1 + x2 * x2
    scale = 1.0 + s + y1 * y1 + y2 * y2 + z * z
    if scale == math.inf:
        raise DomainError(f"the defect's scale 1 + |p|^2 overflows at {(x1, y1, x2, y2, z)}")
    if s == 0:
        return math.inf
    w = (x2 * y1 - x1 * y2) / s
    return max(abs(z + w * w), abs(y1 - w * x2), abs(y2 + w * x1)) / scale


@dataclass
class ProbeReport:
    max_distance_to_union: float
    puncture_count: int
    predicted_punctures: int | None  # the periodic family's; None at w = 0 or x2 = 0


def invariance_probe(q0: RankTwoPoint, t_end: float) -> ProbeReport:
    """Integrate the full system from the chart point q0 and measure how far
    the samples stray from R (``rank_two_defect``), counting the sign changes
    of x2 (the punctures of M1) and predicting them by q0's own
    ``punctures_in`` where w != 0 and x2 != 0, before the first step."""
    # imported here, not with this module, so that ``rank`` does not load it
    from .integrate import IntegratorConfig, integrate
    predicted = q0.punctures_in(t_end) if q0.w != 0 and q0.x2 != 0 else None
    traj = integrate(q0.state, IntegratorConfig(
        method="rk45", t_end=t_end, abs_tol=1e-10, rel_tol=1e-10, dt_max=0.05))
    _, *comps, _, _, _ = traj.columns()  # t, the five components, H, I, C
    punctures = sum(a < 0 < b or b < 0 < a for a, b in zip(comps[2], comps[2][1:]))  # of x2
    return ProbeReport(max(map(rank_two_defect, zip(*comps))), punctures, predicted)
