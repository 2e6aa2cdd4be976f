"""Tour of the Hamilton-Poisson structure behind the five dimensional system.

The flow is generated by a Poisson tensor J(p) and the energy H. Two more
functions are constant along every orbit: a Casimir C that J annihilates
outright, and an invariant I that commutes with H in the bracket. This
script checks each statement on the exact sample of ``mbloch.verify``, one
array call each, and then watches the three quantities along a numerically
integrated orbit.
"""

import random

import numpy as np

from mbloch import core, verify
from mbloch.integrate import IntegratorConfig, drift_report, integrate

# the grid {-1, 0, 1, 2}^5 and 100 points of the 1/8 lattice: every residual
# below is a polynomial of degree at most 3 in each coordinate, computed
# without rounding there, so 0.0 on the grid proves the identity
points = verify.structure_points(random.Random(0))
J = core.poisson_tensor(points)
residuals = {
    "|field - J grad H|": core.vector_field(points) - (J @ core.grad_H(points)[..., None])[..., 0],
    "|J grad C|": J @ core.grad_C(points)[..., None],
    "|{H, I}|": core.poisson_bracket(core.grad_H, core.grad_I, points),
    "jacobi": core.jacobi_defect(points),
}
print(f"structural identities at {len(points)} points, largest residual of each")
for name, residual in residuals.items():
    print(f"  {name:20s} {float(np.abs(residual).max())!r}")

print()
print("conservation along a generic orbit, fixed-step RK4")
p0 = [1.0, 0.5, -0.3, 0.8, 0.2]
traj = integrate(p0, IntegratorConfig(method="rk4", t_end=50.0, dt=1e-3,
                                      sample_stride=1000))
rep = drift_report(traj)
print(f"  t_end = 50, dt = 1e-3")
print(f"  max |dH| = {rep.max_abs_dH:.2e}")
print(f"  max |dI| = {rep.max_abs_dI:.2e}")
print(f"  max |dC| = {rep.max_abs_dC:.2e}")
