"""The explicit periodic orbits with constant z and their puncture times.

Each orbit is the flow through a point R(x1, x2, w) of the rank-two chart
with w != 0, and stays on R: a rigid rotation in the (x1, x2) plane with
angular rate w = y1(0)/x2(0); the momenta follow linearly and z sits at
-w^2. It leaves the paper's graph piece x2 != 0 at isolated times when x2
vanishes, and those puncture instants follow an arithmetic progression that
the chart point predicts exactly.
"""

import numpy as np

from mbloch import solutions
from mbloch.core import vector_field
from mbloch.integrate import IntegratorConfig, integrate
from mbloch.invariant_sets import RankTwoPoint

par = RankTwoPoint(x1=1.0, x2=0.5, w=2.0)  # y1 = w x2 = 1
print(f"w = {par.w}, period = {par.period:.6f}")

ts = np.linspace(0.0, par.period, 1000)
orbit = solutions.periodic_solution(par, ts)
deriv = solutions.periodic_derivative(par, ts)
field = np.array([vector_field(s) for s in orbit])
print(f"max ODE residual over one period: {np.abs(deriv - field).max():.2e}")

gap = np.abs(solutions.periodic_solution(par, par.period)
             - solutions.periodic_solution(par, 0.0)).max()
print(f"closed-form return gap after one period: {gap:.2e}")

p0 = solutions.periodic_solution(par, 0.0)
end = integrate(p0, IntegratorConfig(method="rk45", t_end=par.period,
                                     abs_tol=1e-10, rel_tol=1e-10,
                                     sample_stride=10 ** 9)).states[-1]
print(f"numerical loop closure: {np.linalg.norm(end - p0):.2e}")

print()
print("first punctures (x2 crosses zero):")
for k in range(4):
    t_k = par.puncture_time(k)
    x2 = solutions.periodic_solution(par, t_k)[2]
    print(f"  t_{k} = {t_k:.6f}   x2(t_{k}) = {x2:+.1e}")
print(f"punctures in [0, 20]: {par.punctures_in(20.0)}")
