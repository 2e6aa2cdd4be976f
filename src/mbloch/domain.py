"""The domain error of every operation, the two formulas of the flow
(the vector field and the conserved triple, unchecked, on the five
components), and the one domain check the leaf classification needs.

NumPy-free, so that the commands that need nothing else start without it:
``classify``, ``--help`` and an argparse usage error, and ``simulate``,
which integrates, checks and writes a short run on plain floats.  The two
formulas broadcast over floats and arrays alike; ``core`` checks states
before it applies them to arrays.
"""

import math


class DomainError(ValueError):
    """Input outside the domain of an operation (non-finite, off-chart...)."""


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


def leaf_energy(c: float) -> float:
    """H = c^2/2 at the leaf equilibrium (0, 0, 0, 0, c); DomainError where
    it is not finite, as every formula on the leaf C = c squares c."""
    c = float(c)
    energy = 0.5 * (c * c)
    if not math.isfinite(energy):
        raise DomainError(f"the leaf energy c^2/2 overflows at c={c!r}")
    return energy
