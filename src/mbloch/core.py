"""Phase space, vector field, Poisson structure and conserved quantities.

The state lives in R^5 with component order (x1, y1, x2, y2, z).  The
dynamics is

    x1' = y1,   y1' = x1*z,   x2' = y2,   y2' = x2*z,
    z'  = -(x1*y1 + x2*y2),

which is Hamiltonian with respect to an antisymmetric tensor J(p) and
H = (y1^2 + y2^2 + z^2)/2.  Two further quantities are conserved:
C = (x1^2 + x2^2)/2 + z (the Casimir of J) and I = x2*y1 - x1*y2.
``poisson_tensor`` is the one definition of J: the bracket and the Jacobi
check read its entries from it.  The field, the triple and its gradients are
written once, on the five components, in the NumPy-free ``domain``; this
module checks states by the rule of ``domain.finite_state`` and applies the
formulas to arrays.
"""

from typing import Callable, NamedTuple

import numpy as np

from .domain import (DomainError, conserved_components, field_components, finite_state,
                     gradient_components)


class ConservedTriple(NamedTuple):
    H: float
    I: float
    C: float


def _components(p) -> np.ndarray:
    """Finite float64 states (..., 5), component axis first, by the rule of
    ``finite_state`` for each state; DomainError otherwise.  A real ndarray is
    read by its dtype; any other input (lists, object arrays, a NumPy bool)
    a state at a time by ``finite_state``, as NumPy's inferred dtype would
    refuse a Python int past int64 and take a NumPy bool for a number."""
    try:
        arr = np.asarray(p)
    except ValueError:  # ragged
        raise DomainError("states must be a regular array of real numbers") from None
    if arr.ndim == 0 or arr.shape[-1] != 5:
        raise DomainError(f"state must have 5 components, got shape {arr.shape}")
    if isinstance(p, np.ndarray) and arr.dtype.kind in "iuf":
        arr = arr.astype(float, copy=False)
        if not np.isfinite(arr).all():
            raise DomainError(f"state has non-finite components: {arr}")
    else:
        arr = np.array([finite_state(q) for q in _states(p, arr.ndim - 1)]).reshape(arr.shape)
    return arr.transpose(-1, *range(arr.ndim - 1))


def _states(p, depth):
    """The states of a regular stack p of the given depth, in row-major order."""
    if depth == 0:
        yield p
    else:
        for q in p:
            yield from _states(q, depth - 1)


def vector_field(p) -> np.ndarray:
    """Right-hand side of the 5-component system at p, shape (5,) or (..., 5)."""
    comps = _components(p)
    return np.array(field_components(*comps)).transpose(*range(1, comps.ndim), 0)


def poisson_tensor(p) -> np.ndarray:
    """Antisymmetric structure tensor J(p), shape (5, 5) or (..., 5, 5); only
    x1 and x2 enter, and affinely."""
    x1, _, x2, _, _ = comps = _components(p)
    J = np.zeros((*comps.shape[1:], 5, 5))
    J[..., 0, 1] = J[..., 2, 3] = 1.0
    J[..., 1, 0] = J[..., 3, 2] = -1.0
    J[..., 1, 4], J[..., 4, 1] = x1, -x1
    J[..., 3, 4], J[..., 4, 3] = x2, -x2
    return J


def conserved(p) -> ConservedTriple:
    """Values (H, I, C) of the three constants of motion at p.

    For states of shape (..., 5) each field is an array of shape (...).
    """
    return ConservedTriple(*conserved_components(*_components(p)))


def _gradient(p, which) -> np.ndarray:
    """Row ``which`` of ``gradient_components`` at p, shape (5,) or (..., 5)."""
    comps = _components(p)
    grad = np.empty_like(comps)
    for k, entry in enumerate(gradient_components(*comps)[which]):
        grad[k] = entry
    return grad.transpose(*range(1, comps.ndim), 0)


def grad_H(p) -> np.ndarray:
    """Gradient of H at p, shape (5,) or (..., 5)."""
    return _gradient(p, 0)


def grad_I(p) -> np.ndarray:
    """Gradient of I at p, shape (5,) or (..., 5)."""
    return _gradient(p, 1)


def grad_C(p) -> np.ndarray:
    """Gradient of C at p, shape (5,) or (..., 5)."""
    return _gradient(p, 2)


GradientField = Callable[[np.ndarray], np.ndarray]
_UPPER = np.triu_indices(5, 1)


def poisson_bracket(grad_f: GradientField, grad_g: GradientField, p):
    """{F, G}(p) = grad F(p)^T J(p) grad G(p) for gradient fields, at states
    (5,) or (..., 5); a float or an array of shape (...).

    The sum over the upper triangle of ``poisson_tensor(p)`` of
    J_ij (f_i g_j - f_j g_i), in row-major order, so {F, F} cancels term by
    term and is exactly zero in floating point, and a stack gives the bits
    of one call per state.  DomainError where a product of entries overflows."""
    point = np.moveaxis(_components(p), 0, -1)
    f, g = (np.asarray(grad(point), dtype=float) for grad in (grad_f, grad_g))
    if f.shape != point.shape or g.shape != point.shape or not np.isfinite([f, g]).all():
        raise DomainError(f"a gradient field did not return finite values of shape {point.shape}")
    i, j = _UPPER
    with np.errstate(over="ignore", invalid="ignore"):
        terms = poisson_tensor(point)[..., i, j] * (f[..., i] * g[..., j] - f[..., j] * g[..., i])
        bracket = np.moveaxis(terms, -1, 0).cumsum(axis=0)[-1]  # left to right, in any layout
    if not np.isfinite(bracket).all():
        raise DomainError(f"the bracket overflows at {point[~np.isfinite(bracket)][0].tolist()}")
    return bracket


def jacobi_defect(p):
    """Largest entry of {x_i, {x_j, x_k}} + {x_j, {x_k, x_i}} + {x_k, {x_i, x_j}}
    over the coordinate functions at states (5,) or (..., 5); a float or an
    array of shape (...).

    The bracket is a derivation in each slot, so the Jacobi identity holds
    for all functions exactly when this cyclic sum of
    sum_l J_il d_l J_jk vanishes (Marsden & Ratiu, Introduction to Mechanics
    and Symmetry, 10.1).  J is affine, so d_l J = J(e_l) - J(0) exactly and
    a Poisson J gives exactly 0.0.
    """
    J = poisson_tensor(p)
    dJ = poisson_tensor(np.eye(5)) - poisson_tensor(np.zeros(5))  # [l, j, k]
    inner = (J @ dJ.reshape(5, 25)).reshape(*J.shape, 5)  # [..., i, j, k]
    cyclic = inner + np.moveaxis(inner, -3, -1)  # + inner[..., k, i, j]
    cyclic += np.moveaxis(inner, -1, -3)  # + inner[..., j, k, i]
    return np.abs(cyclic, out=cyclic).max(axis=(-3, -2, -1))
