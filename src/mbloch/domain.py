"""The domain error of every operation, the one check of a single state
(``finite_state``) and its twin for a number (``real_float``), and the
formulas of the flow (the vector field, the conserved triple and its three
gradients, unchecked, on the five components).  A bad number or state is a ``DomainError``, never
an ``OverflowError`` or a ``TypeError``; ``core`` checks arrays of states by
the rule of ``finite_state``.

NumPy-free, so that the commands that need nothing else start without it:
``classify``, ``--help`` and an argparse usage error, and ``simulate``,
which integrates, checks and writes a short run on plain floats, and
``rank``, which takes the singular values of the gradients on plain floats.
The formulas broadcast over floats and arrays alike.
"""

import math
import numbers


class DomainError(ValueError):
    """Input outside the domain of an operation (non-finite, off-chart...)."""


def real_float(x) -> float:
    """x as a float, where x is a real number (``numbers.Real``, Python or
    NumPy) in the float range; DomainError otherwise.  It only converts: NaN
    and inf pass, for the caller's own range check."""
    if not isinstance(x, numbers.Real):
        raise DomainError(f"expected a real number, got {type(x).__name__}")
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{type(x).__name__} past the float range") from None


def finite_state(p) -> list[float]:
    """The one check of a single state: p, a sequence of five real numbers
    (``numbers.Real``, Python or NumPy, so not a string, a complex number or
    a NumPy bool), as a list of five finite floats; DomainError otherwise."""
    try:
        n = len(p)
    except TypeError:  # p has no length: a bare number, None
        n = None
    if n != 5:
        raise DomainError(f"state must be 5 real numbers, got {type(p).__name__}"
                          + ("" if n is None else f" of length {n}"))
    point = [real_float(v) for v in p]
    if not all(map(math.isfinite, point)):
        raise DomainError(f"state has non-finite components: {point}")
    return point


def field_components(x1, y1, x2, y2, z):
    """The five right-hand sides, unchecked; broadcasts over floats and
    arrays, so the integrators call it on states they have already checked."""
    return y1, x1 * z, y2, x2 * z, -(x1 * y1 + x2 * y2)


def conserved_components(x1, y1, x2, y2, z):
    """The conserved triple (H, I, C) of the five components, unchecked;
    floats or arrays alike, with the same bits per state."""
    return (0.5 * (y1 * y1 + y2 * y2 + z * z),
            x2 * y1 - x1 * y2,
            0.5 * (x1 * x1 + x2 * x2) + z)


def gradient_components(x1, y1, x2, y2, z):
    """The gradients of H, I and C, three rows of five entries, unchecked;
    floats or arrays alike, with literal 0 and 1 where an entry is constant."""
    return ((0, y1, 0, y2, z),
            (-y2, x2, y1, -x1, 0),
            (x1, 0, x2, 0, 1))


def leaf_energy(c: float) -> float:
    """H = c^2/2 at the leaf equilibrium (0, 0, 0, 0, c); DomainError where
    it is not finite, as every formula on the leaf C = c squares c."""
    c = real_float(c)
    energy = 0.5 * (c * c)
    if not math.isfinite(energy):
        raise DomainError(f"the leaf energy c^2/2 overflows at c={c!r}")
    return energy
