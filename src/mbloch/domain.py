"""The domain error of every operation, and the one domain check the leaf
classification needs; NumPy-free, so that the commands that need nothing
else (``classify``, ``--help``, an argparse usage error) start without
it."""

import math


class DomainError(ValueError):
    """Input outside the domain of an operation (non-finite, off-chart...)."""


def leaf_energy(c: float) -> float:
    """H = c^2/2 at the leaf equilibrium (0, 0, 0, 0, c); DomainError where
    it is not finite, as every formula on the leaf C = c squares c."""
    c = float(c)
    energy = 0.5 * (c * c)
    if not math.isfinite(energy):
        raise DomainError(f"the leaf energy c^2/2 overflows at c={c!r}")
    return energy
