"""Phase space, vector field, Poisson structure and conserved quantities.

The state lives in R^5 with component order (x1, y1, x2, y2, z).  The
dynamics is

    x1' = y1,   y1' = x1*z,   x2' = y2,   y2' = x2*z,
    z'  = -(x1*y1 + x2*y2),

which is Hamiltonian with respect to an antisymmetric tensor J(p) and
H = (y1^2 + y2^2 + z^2)/2.  Two further quantities are conserved:
C = (x1^2 + x2^2)/2 + z (the Casimir of J) and I = x2*y1 - x1*y2.
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

    Summed over the six structural entries of J as J_ij (f_i g_j - f_j g_i),
    so {F, F} cancels term by term and is exactly zero in floating point.
    """
    point = as_state(p)
    f = np.asarray(grad_f(point), dtype=float)
    g = np.asarray(grad_g(point), dtype=float)
    if f.shape != (5,) or not np.isfinite(f).all():
        raise DomainError("first gradient field did not return a finite 5-vector")
    if g.shape != (5,) or not np.isfinite(g).all():
        raise DomainError("second gradient field did not return a finite 5-vector")
    x1, _, x2, _, _ = point
    return float((f[0] * g[1] - f[1] * g[0])
                 + x1 * (f[1] * g[4] - f[4] * g[1])
                 + (f[2] * g[3] - f[3] * g[2])
                 + x2 * (f[3] * g[4] - f[4] * g[3]))


# --- quadratic observables, used for sharp bracket/Jacobi checks ------------
#
# All three constants of motion are quadratic polynomials, so F(p) =
# p^T A p / 2 + b^T p with a constant symmetric Hessian A.  Because J(p)
# is affine in p, the gradient of a bracket of two quadratics is available
# in closed form, which keeps the Jacobi-identity test at rounding level.

class Quadratic:
    """F(p) = 0.5 p^T A p + b^T p with symmetric A."""

    def __init__(self, A, b):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def grad(self, p) -> np.ndarray:
        return self.A @ np.asarray(p, dtype=float) + self.b


def _hessian_H():
    A = np.zeros((5, 5))
    A[1, 1] = A[3, 3] = A[4, 4] = 1.0
    return A


def _hessian_I():
    A = np.zeros((5, 5))
    A[0, 3] = A[3, 0] = -1.0
    A[1, 2] = A[2, 1] = 1.0
    return A


def _hessian_C():
    A = np.zeros((5, 5))
    A[0, 0] = A[2, 2] = 1.0
    return A


H_QUADRATIC = Quadratic(_hessian_H(), np.zeros(5))
I_QUADRATIC = Quadratic(_hessian_I(), np.zeros(5))
C_QUADRATIC = Quadratic(_hessian_C(), np.array([0.0, 0.0, 0.0, 0.0, 1.0]))

# dJ/dx1 and dJ/dx2 (J is affine in the state; all other derivatives vanish)
_DJ_DX1 = np.zeros((5, 5))
_DJ_DX1[1, 4] = 1.0
_DJ_DX1[4, 1] = -1.0
_DJ_DX2 = np.zeros((5, 5))
_DJ_DX2[3, 4] = 1.0
_DJ_DX2[4, 3] = -1.0


def bracket_grad_of_quadratics(F: Quadratic, G: Quadratic, p) -> np.ndarray:
    """Analytic gradient of p -> {F, G}(p) for quadratic F, G."""
    point = as_state(p)
    J = poisson_tensor(point)
    gf = F.grad(point)
    gg = G.grad(point)
    out = F.A @ (J @ gg) - G.A @ (J @ gf)
    out[0] += gf @ _DJ_DX1 @ gg
    out[2] += gf @ _DJ_DX2 @ gg
    return out


def jacobi_defect(F: Quadratic, G: Quadratic, K: Quadratic, p) -> float:
    """Cyclic sum {F,{G,K}} + {G,{K,F}} + {K,{F,G}} at p (analytic gradients)."""
    point = as_state(p)
    J = poisson_tensor(point)
    total = F.grad(point) @ J @ bracket_grad_of_quadratics(G, K, point)
    total += G.grad(point) @ J @ bracket_grad_of_quadratics(K, F, point)
    total += K.grad(point) @ J @ bracket_grad_of_quadratics(F, G, point)
    return float(total)
