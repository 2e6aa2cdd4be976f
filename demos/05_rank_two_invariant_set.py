"""The rank-two invariant set where the three conserved gradients collapse.

At a generic point the gradients of H, I and C are independent. On two
graph-like surfaces (one parametrized over x2 != 0, one over x1 != 0) the
rank drops to two, and their union is carried into itself by the flow. An
orbit can hop between the pieces only through the x2 = 0 punctures of the
periodic family.
"""

import numpy as np

from mbloch import invariant_sets as inv
from mbloch import solutions

rng = np.random.default_rng(3)

print("rank of the conserved-quantity Jacobian")
p = rng.uniform(-2, 2, size=5)
print(f"  generic point: rank {inv.rank_F(p).rank}")
q = inv.M1Point(0.7, -1.2, 0.9)
print(f"  embedded surface point: rank {inv.rank_F(q.state).rank}")
print(f"  axis equilibrium: rank {inv.rank_F([0, 0, 0, 0, 1.0]).rank}")
# one call takes a stack (..., 5): rank 3 off the pieces, 2 on them
pieces = [inv.M1Point(*rng.uniform(0.2, 2, size=3)).state for _ in range(300)]
for label, stack in (("300 random points", rng.uniform(-2, 2, size=(300, 5))),
                     ("300 points of the first piece", np.array(pieces))):
    ranks = inv.rank_F(stack).rank
    print(f"  {label}: ranks {sorted(set(ranks.tolist()))}, one batched call")

print()
print("reduced three dimensional dynamics on the first piece")
f1, f2 = inv.m1_conserved(q)
print(f"  conserved pair at the start: f1 = {f1:.6f}, f2 = {f2:.6f}")
par = solutions.PeriodicParams(q.x1, q.y1, q.x2)
# the reduced orbit is (x1, y1, x2) of the periodic family's closed form
pts = solutions.periodic_solution(par, np.linspace(0, par.period, 400))[..., [0, 1, 2]]
f1_drift = np.abs(pts[:, 0] ** 2 + pts[:, 2] ** 2 - f1).max()
print(f"  max |f1 drift| along the closed-form orbit: {f1_drift:.2e}")

print()
print("invariance probe: integrate in 5D, measure distance to the union")
rep = inv.invariance_probe(inv.M1Point(0.0, 1.0, 1.0), 20.0)
print(f"  max distance to the union over [0, 20]: "
      f"{rep.max_distance_to_union:.2e}")
print(f"  punctures observed: {rep.puncture_count},"
      f" predicted: {rep.predicted_punctures}")
