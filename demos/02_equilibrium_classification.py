"""Classify the axis equilibria (0,0,0,0,c) leaf by leaf.

On each symplectic leaf the linearizations of the energy and of the second
invariant span a pencil of 4x4 matrices. The characteristic polynomial of a
generic pencil member is biquadratic with a sign-definite discriminant, so a
single leaf parameter c decides the local picture: focus-focus and unstable
for c > 0, center-center and stable for c < 0. The boundary leaf c = 0 is
degenerate and needs an algebraic argument instead of eigenvalues.
"""

import math

from mbloch import equilibria
from mbloch.core import conserved

print("c      kind            stability        discriminant")
for c in (4.0, 1.0, 0.25, -0.25, -1.0, -4.0):
    res = equilibria.cartan_classify([0, 0, 0, 0, c], c)
    print(f"{c:5.2f}  {res.kind:<14}  {res.stable:<15}  {res.discriminant:.6g}")

print()
print("the degenerate leaf c = 0")
res = equilibria.cartan_classify([0, 0, 0, 0, 0.0], 0.0)
print(f"  spectral type: {res.kind}; verdict from the certificate: {res.stable}")

cert = res.certificate
print("  algebraic certificate: max(|H|, |I|, |C|) <= eps confines |p| to")
print("  R(eps) = sqrt(4 eps + 2 sqrt(2 eps)), so H = I = C = 0 only at the")
print(f"  origin; unique_solution = {cert.unique_solution}.  The bound is attained")
print("  at p* = (sqrt(2 eps + 2 sqrt(2 eps)), 0, 0, 0, -sqrt(2 eps)):")
for eps, bound in cert.norm_bound_by_eps.items():
    w = math.sqrt(2 * eps)
    p_star = [math.sqrt(2 * eps + 2 * w), 0.0, 0.0, 0.0, -w]
    level = max(abs(v) for v in conserved(p_star))
    print(f"    eps = {eps:.0e}: R = {bound:.4g}, |p*| = {math.hypot(*p_star):.4g},"
          f" max(|H|, |I|, |C|) at p* = {level:.4g}")
