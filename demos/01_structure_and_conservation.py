"""Tour of the Hamilton-Poisson structure behind the five dimensional system.

The flow is generated by a Poisson tensor J(p) and the energy H. Two more
functions are constant along every orbit: a Casimir C that J annihilates
outright, and an invariant I that commutes with H in the bracket. This
script checks each statement at a handful of points and then watches the
three quantities along a numerically integrated orbit.
"""

import numpy as np

from mbloch import core
from mbloch.integrate import IntegratorConfig, drift_report, integrate

rng = np.random.default_rng(0)

print("structural identities at five random points")
for _ in range(5):
    p = rng.uniform(-2, 2, size=5)
    J = core.poisson_tensor(p)
    field_gap = np.abs(core.vector_field(p) - J @ core.grad_H(p)).max()
    casimir = np.abs(J @ core.grad_C(p)).max()
    hi = core.poisson_bracket(core.grad_H, core.grad_I, p)
    jac = core.jacobi_defect(p)
    print(f"  |field - J grad H| = {field_gap:.1e}   |J grad C| = {casimir:.1e}"
          f"   {{H,I}} = {hi:.1e}   jacobi = {jac:.1e}")

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
