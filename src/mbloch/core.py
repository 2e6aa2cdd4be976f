"""Phase space, vector field, Poisson structure and conserved quantities.

The state lives in R^5 with component order (x1, y1, x2, y2, z).  The
dynamics is

    x1' = y1,   y1' = x1*z,   x2' = y2,   y2' = x2*z,
    z'  = -(x1*y1 + x2*y2),

which is Hamiltonian with respect to an antisymmetric tensor J(p) and
H = (y1^2 + y2^2 + z^2)/2.  Two further quantities are conserved:
C = (x1^2 + x2^2)/2 + z (the Casimir of J) and I = x2*y1 - x1*y2.
``poisson_tensor`` is the one definition of J: the bracket and the Jacobi
check read its entries from it.
"""

import math
from typing import Callable, NamedTuple

import numpy as np


class DomainError(ValueError):
    """Input outside the domain of an operation (non-finite, off-chart...)."""


class ConservedTriple(NamedTuple):
    H: float
    I: float
    C: float


def _components(p) -> np.ndarray:
    """Finite float64 states (..., 5), component axis first; DomainError otherwise."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 5:
        raise DomainError(f"state must have 5 components, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"state has non-finite components: {arr}")
    return arr.transpose(-1, *range(arr.ndim - 1))


def as_state(p) -> np.ndarray:
    """Coerce to a finite float64 5-vector, raising DomainError otherwise."""
    arr = _components(p)
    if arr.ndim != 1:
        raise DomainError(f"state must have 5 components, got shape {np.shape(p)}")
    return arr


def leaf_energy(c: float) -> float:
    """H = c^2/2 at the leaf equilibrium (0, 0, 0, 0, c); DomainError where
    it is not finite, as every formula on the leaf C = c squares c."""
    c = float(c)
    energy = 0.5 * (c * c)
    if not math.isfinite(energy):
        raise DomainError(f"the leaf energy c^2/2 overflows at c={c!r}")
    return energy


def field_components(x1, y1, x2, y2, z):
    """The five right-hand sides, unchecked; broadcasts over floats and
    arrays, so the integrators call it on states they have already checked."""
    return y1, x1 * z, y2, x2 * z, -(x1 * y1 + x2 * y2)


def vector_field(p) -> np.ndarray:
    """Right-hand side of the 5-component system at p, shape (5,) or (..., 5)."""
    comps = _components(p)
    return np.array(field_components(*comps)).transpose(*range(1, comps.ndim), 0)


def poisson_tensor(p) -> np.ndarray:
    """Antisymmetric structure tensor J(p); only x1, x2 enter."""
    x1, _, x2, _, _ = as_state(p)
    return np.array(
        [
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0, x1],
            [0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, -1.0, 0.0, x2],
            [0.0, -x1, 0.0, -x2, 0.0],
        ]
    )


def conserved(p) -> ConservedTriple:
    """Values (H, I, C) of the three constants of motion at p.

    For states of shape (..., 5) each field is an array of shape (...).
    """
    x1, y1, x2, y2, z = _components(p)
    return ConservedTriple(
        H=0.5 * (y1 * y1 + y2 * y2 + z * z),
        I=x2 * y1 - x1 * y2,
        C=0.5 * (x1 * x1 + x2 * x2) + z,
    )


def grad_H(p) -> np.ndarray:
    _, y1, _, y2, z = as_state(p)
    return np.array([0.0, y1, 0.0, y2, z])


def grad_I(p) -> np.ndarray:
    x1, y1, x2, y2, _ = as_state(p)
    return np.array([-y2, x2, y1, -x1, 0.0])


def grad_C(p) -> np.ndarray:
    x1, _, x2, _, _ = as_state(p)
    return np.array([x1, 0.0, x2, 0.0, 1.0])


GradientField = Callable[[np.ndarray], np.ndarray]


def poisson_bracket(grad_f: GradientField, grad_g: GradientField, p) -> float:
    """{F, G}(p) = grad F(p)^T J(p) grad G(p) for gradient fields.

    The correctly rounded sum over the upper triangle of ``poisson_tensor(p)``
    of J_ij (f_i g_j - f_j g_i), so {F, F} cancels term by term and is
    exactly zero in floating point.
    """
    point = as_state(p)
    f = np.asarray(grad_f(point), dtype=float)
    g = np.asarray(grad_g(point), dtype=float)
    if f.shape != (5,) or not np.isfinite(f).all():
        raise DomainError("first gradient field did not return a finite 5-vector")
    if g.shape != (5,) or not np.isfinite(g).all():
        raise DomainError("second gradient field did not return a finite 5-vector")
    J, f, g = poisson_tensor(point).tolist(), f.tolist(), g.tolist()
    return math.fsum(J[i][j] * (f[i] * g[j] - f[j] * g[i])
                     for i in range(5) for j in range(i + 1, 5))


def jacobi_defect(p) -> float:
    """Largest entry of {x_i, {x_j, x_k}} + {x_j, {x_k, x_i}} + {x_k, {x_i, x_j}}
    over the coordinate functions at p.

    The bracket is a derivation in each slot, so the Jacobi identity holds
    for all functions exactly when this cyclic sum of
    sum_l J_il d_l J_jk vanishes (Marsden & Ratiu, Introduction to Mechanics
    and Symmetry, 10.1).  J is affine, so d_l J = J(e_l) - J(0) exactly and
    a Poisson J gives exactly 0.0.
    """
    J = poisson_tensor(p)
    origin = poisson_tensor(np.zeros(5))
    dJ = np.array([poisson_tensor(e) - origin for e in np.eye(5)])
    inner = np.einsum("il,ljk->ijk", J, dJ)
    cyclic = inner + inner.transpose(1, 2, 0) + inner.transpose(2, 0, 1)
    return float(np.abs(cyclic).max())
