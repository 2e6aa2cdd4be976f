"""The domain error of every operation, the cap on recorded samples
(``MAX_SAMPLES``), the one reader of real input (``finite_reals``) and its
check of a single state (``finite_state``), its twins for one number
(``real_float``, ``finite_float``) and for a count (``integer_at_least``),
and the formulas of the flow (the vector field, the conserved triple and its
three gradients, unchecked, on the five components).

The rule: a real number is what ``real_float`` converts and is finite; a
state, a stack of states or a grid of times is a regular nest of such
numbers in sized, ordered sequences.  A string, bytes, a mapping or a set is
not such a sequence, so a dict or a set is not a state.  A bad number or
state is a ``DomainError``, never an ``OverflowError`` or a ``TypeError``;
``core`` reads a real NumPy array by its dtype and any other input here.

NumPy-free, so that the commands that need nothing else start without it:
``classify``, ``--help`` and an argparse usage error, and ``simulate``,
which integrates, checks and writes a short run on plain floats, and
``rank``, which takes the singular values of the gradients on plain floats.
The formulas broadcast over floats and arrays alike.
"""

import math
import numbers
import operator
from collections.abc import Mapping, Set


class DomainError(ValueError):
    """Input outside the domain of an operation (non-finite, off-chart...)."""


# cap on the samples a run records and on the rows of an export: an rk4 run
# or an export over it is refused, an rk45 run that reaches it stalls.  Read
# as ``domain.MAX_SAMPLES`` when a run or an export starts
MAX_SAMPLES = 10 ** 6


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


def finite_float(x, name: str) -> float:
    """x as a finite float, where x is a real number; DomainError otherwise,
    naming ``name``."""
    value = real_float(x)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def integer_at_least(x, least: int, name: str) -> int:
    """x as an int of at least ``least``, where x is an integer of any type
    with ``__index__`` (NumPy's too); a bool or a float is refused, as 1.5
    would be no count.  DomainError otherwise, naming ``name``."""
    try:
        n = operator.index(x)
    except TypeError:
        n = least - 1
    if isinstance(x, bool) or n < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {x!r}")
    return n


def finite_reals(p) -> tuple[tuple[int, ...], list[float]]:
    """The one reader of real input: p, a real number or a regular nest of
    them in sized, ordered sequences, as its shape and its finite floats in
    row-major order; DomainError otherwise.  A real number is what
    ``real_float`` converts (so not a NumPy bool, a complex number, None or a
    0-d array); a string, bytes, a mapping or a set is not a sequence here."""
    floats = []
    try:
        shape = _read((p,), floats)[1:]  # p as the one item of a sequence
    except (TypeError, RecursionError) as exc:  # no items, no length, or nested too deep
        raise DomainError(f"expected real numbers in nested sequences: {exc}") from None
    if not all(map(math.isfinite, floats)):  # the first one that is not, by its key False
        raise DomainError(f"expected finite real numbers, got {min(floats, key=math.isfinite)!r}")
    return shape, floats


def _read(p, floats) -> tuple[int, ...]:
    """Append the numbers of the sequence p, a nest, to floats in row-major
    order, each number in this loop and each sequence by a call; the shape
    of p.  TypeError where p or a sequence in it has no items or no length
    (None, a complex number, a 0-d array, a generator)."""
    # a float, a list and a tuple skip the checks by ABC
    if type(p) is not list and type(p) is not tuple and isinstance(
            p, (str, bytes, bytearray, Mapping, Set)):
        raise DomainError(f"expected real numbers, got {type(p).__name__}")
    shapes = []
    for q in p:
        if type(q) is float or isinstance(q, numbers.Real):
            floats.append(q if type(q) is float else real_float(q))
            shapes.append(())
        else:
            shapes.append(_read(q, floats))
    shape = shapes[0] if shapes else ()
    if shapes.count(shape) != len(shapes):
        raise DomainError("expected a regular nest of real numbers, got a ragged one")
    return (len(p), *shape)


def finite_state(p) -> list[float]:
    """The one check of a single state: p, read by ``finite_reals`` with
    shape (5,), as a list of five finite floats; DomainError otherwise."""
    shape, point = finite_reals(p)
    if shape != (5,):
        raise DomainError(f"state must be 5 real numbers, got shape {shape}")
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
