"""Equilibrium families and their stability classification.

The system has three equilibrium families: the z-axis points (0,0,0,0,M)
with M != 0, the ring (M,0,N,0,0) with M^2+N^2 != 0, and the origin.  On a
leaf of the Casimir (C = c) the z-axis point e_c = (0,0,0,0,c) is isolated;
its type is decided by the eigenvalue pattern of a pencil

    L(alpha) = DX_H + alpha * DX_I

of the two commuting linearized flows restricted to the leaf.  Its
characteristic polynomial t^4 + (2 alpha^2 - 2c) t^2 + (alpha^2 + c)^2 has
the discriminant -16 alpha^2 c in s = t^2, so its spectrum is known in
closed form: focus-focus for c > 0 and center-center for c < 0.  At c = 0
every pencil member has repeated eigenvalues and stability is settled by
an algebraic level-set argument.

The classification and the c = 0 certificate run on plain floats, and the
module imports no NumPy: the matrix helpers that ``verify`` checks them
with import it where they use it.
"""

import cmath
import math
import numbers
from dataclasses import dataclass

from .domain import DomainError, leaf_energy

CENTER_CENTER = "center-center"
FOCUS_FOCUS = "focus-focus"
DEGENERATE = "degenerate"

STABLE = "stable"
UNSTABLE = "unstable"
NOT_DETERMINED = "not-determined"


@dataclass
class LeafLinearization:
    """Linearized leaf flows of H and I at (0,0,0,0,c), chart (x1,y1,x2,y2)."""

    c: float
    matrix_H: "numpy.ndarray"  # 4x4
    matrix_I: "numpy.ndarray"  # 4x4


def leaf_linearization(c: float) -> LeafLinearization:
    """Jacobians of the two reduced flows at the chart origin over (0,0,0,0,c)."""
    import numpy as np
    leaf_energy(c)
    m_h = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [c, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, c, 0.0],
    ])
    m_i = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    return LeafLinearization(c=c, matrix_H=m_h, matrix_I=m_i)


@dataclass
class QuarticPoly:
    """Monic real quartic; coeffs are (c3, c2, c1, c0) of t^4+c3 t^3+..."""

    c3: float
    c2: float
    c1: float
    c0: float

    def as_array(self) -> "numpy.ndarray":
        import numpy as np
        return np.array([1.0, self.c3, self.c2, self.c1, self.c0])


def char_poly_4x4(m) -> QuarticPoly:
    """Characteristic polynomial by the Faddeev-LeVerrier recursion."""
    import numpy as np
    m = np.asarray(m, dtype=float)
    eye = np.eye(4)
    coeffs = []
    mk = m.copy()
    for k in range(1, 5):
        ck = -np.trace(mk) / k
        coeffs.append(ck)
        if k < 4:
            mk = m @ (mk + ck * eye)
    return QuarticPoly(*coeffs)


def pencil_char_poly(c: float, alpha: float) -> QuarticPoly:
    """Characteristic polynomial of matrix_H + alpha * matrix_I, computed
    from the matrices: the independent check of the closed form
    t^4 + (2 alpha^2 - 2c) t^2 + (alpha^2 + c)^2 (``verify.pencil_closed_form``).
    """
    lin = leaf_linearization(c)
    return char_poly_4x4(lin.matrix_H + alpha * lin.matrix_I)


def quartic_roots(q: QuarticPoly):
    """All four complex roots of a monic real quartic.

    Biquadratic quartics (no odd terms) go through the s = t^2 substitution;
    otherwise a companion-matrix eigensolve is used.  Non-real roots come in
    bit-exact conjugate pairs, in no particular order: LAPACK's real
    eigensolver returns each as wr +- i wi, and the two s = (-c2 +- sq)/2
    are real (s < 0 gives +-i sqrt(-s)) or conjugate to the bit, with
    cmath.sqrt(conj(s)) == conj(cmath.sqrt(s)) off the cut.
    """
    import numpy as np
    arr = q.as_array()
    if not np.isfinite(arr).all():
        raise DomainError("non-finite quartic coefficients")
    if q.c3 == 0.0 and q.c1 == 0.0:
        disc = complex(q.c2 * q.c2 - 4.0 * q.c0)
        sq = cmath.sqrt(disc)
        t = [cmath.sqrt(s) for s in ((-q.c2 + sq) / 2.0, (-q.c2 - sq) / 2.0)]
        return [t[0], -t[0], t[1], -t[1]]
    return [complex(r) for r in np.roots(arr)]


def _finite_state(e) -> list:
    """The five components of the state e as finite floats, DomainError
    otherwise; a plain-float ``core.as_state`` for the classification, which
    needs no array."""
    try:
        real = len(e) == 5 and all(isinstance(v, numbers.Real) for v in e)
    except TypeError:  # e has no length or is not iterable
        real = False
    if not real:
        raise DomainError(f"state must be 5 real numbers, got {e!r}")
    point = [float(v) for v in e]
    if not all(map(math.isfinite, point)):
        raise DomainError(f"state has non-finite components: {point}")
    return point


@dataclass
class ClassificationResult:
    kind: str
    alpha: float | None
    roots: list  # 4 complex numbers (empty for degenerate)
    A: float | None
    B: float | None
    discriminant: float | None
    stable: str
    certificate: "OriginCertificate | None" = None  # at c = 0, the source of ``stable``


def cartan_classify(e, c: float) -> ClassificationResult:
    """Classify the leaf equilibrium (0,0,0,0,c) by the closed-form spectrum
    of the pencil member alpha = 1 (alpha = 2 on the leaf c = -1, where
    alpha^2 = -c would repeat an eigenvalue).

    For c > 0 the roots are +-sqrt(c) +- i alpha (focus-focus, unstable);
    for c < 0 they are +-i (alpha +- sqrt(-c)) (center-center, stable).  At
    c = 0 every pencil member repeats its eigenvalues, so the equilibrium is
    degenerate and ``stable`` comes from the ``certificate`` it carries.
    """
    point = _finite_state(e)
    if any(point[:4]):
        raise DomainError("cartan_classify handles the axis equilibria (K0) only")
    if point[4] != c:
        raise DomainError(f"point {point} is not on the leaf C={c}")
    leaf_energy(c)
    if c == 0.0:
        cert = origin_stability_certificate()
        return ClassificationResult(kind=DEGENERATE, alpha=None, roots=[],
                                    A=None, B=None, discriminant=None,
                                    stable=STABLE if cert.unique_solution else NOT_DETERMINED,
                                    certificate=cert)
    alpha = 2.0 if c == -1.0 else 1.0
    disc = -16.0 * alpha * alpha * c  # of the quadratic in s = t^2
    r = math.sqrt(abs(c))
    if c > 0:
        roots = [complex(s1 * r, s2 * alpha) for s1 in (1, -1) for s2 in (1, -1)]
        return ClassificationResult(kind=FOCUS_FOCUS, alpha=alpha, roots=roots,
                                    A=r, B=alpha, discriminant=disc, stable=UNSTABLE)
    roots = [complex(0.0, s * w) for w in (alpha + r, alpha - r) for s in (1, -1)]
    return ClassificationResult(kind=CENTER_CENTER, alpha=alpha, roots=roots,
                                A=alpha + r, B=abs(alpha - r), discriminant=disc,
                                stable=STABLE)


# the eps of the sublevel sets max(|H|, |I|, |C|) <= eps in the c = 0 certificate
CERTIFICATE_EPS = (1e-2, 1e-4, 1e-6)


def sublevel_norm_bound(eps: float) -> float:
    """R(eps) = sqrt(4 eps + 2 sqrt(2 eps)), a sharp bound on |p| where
    max(|H|, |I|, |C|) <= eps: H <= eps bounds y1^2 + y2^2 + z^2 by 2 eps,
    and then C <= eps bounds x1^2 + x2^2 = 2 (C - z) by 2 eps + 2 sqrt(2 eps).
    """
    return math.sqrt(4.0 * eps + 2.0 * math.sqrt(2.0 * eps))


@dataclass
class OriginCertificate:
    unique_solution: bool
    norm_bound_by_eps: dict


def origin_stability_certificate() -> OriginCertificate:
    """The degenerate origin is stable: H, I and C are conserved, so an orbit
    starting where max(|H|, |I|, |C|) <= eps stays within |p| <= R(eps),
    which shrinks to the origin with eps.  R(0) = 0, so the origin is the
    one point with H = I = C = 0 (``unique_solution``)."""
    return OriginCertificate(
        unique_solution=sublevel_norm_bound(0.0) == 0.0,
        norm_bound_by_eps={eps: sublevel_norm_bound(eps) for eps in CERTIFICATE_EPS})
