"""The rank-two invariant set where the three conserved gradients collapse.

At a generic point the gradients of H, I and C are independent. Off the
z-axis they drop to rank two exactly on one chart,
R(x1, x2, w) = (x1, w x2, x2, -w x1, -w^2), where dH - w dI + w^2 dC = 0.
The paper's two graph pieces are its parts x2 != 0 and x2 = 0. On R the
flow is the rotation of (x1, x2) at rate w, so R is invariant, and an orbit
passes from one graph to the other at the x2 = 0 punctures of the periodic
family.
"""

import numpy as np

from mbloch import invariant_sets as inv
from mbloch.core import conserved, vector_field
from mbloch.domain import gradient_components

rng = np.random.default_rng(3)

print("rank of the conserved-quantity Jacobian")
p = rng.uniform(-2, 2, size=5)
print(f"  generic point: rank {inv.rank_F(p).rank}")
q = inv.RankTwoPoint(0.7, 0.9, -4 / 3)
print(f"  chart point {tuple(round(v, 6) for v in q.state)}: rank {inv.rank_F(q.state).rank}")
print(f"  axis equilibrium: rank {inv.rank_F([0, 0, 0, 0, 1.0]).rank}")
# one call takes a stack (..., 5): rank 3 off the chart, 2 on it
pieces = [inv.RankTwoPoint(*xw).state for xw in rng.uniform(0.2, 2, size=(300, 3))]
for label, stack in (("300 random points", rng.uniform(-2, 2, size=(300, 5))),
                     ("300 chart points", np.array(pieces))):
    ranks = inv.rank_F(stack).rank
    print(f"  {label}: ranks {sorted(set(ranks.tolist()))}, one batched call")

print()
print("the chart in exact arithmetic, at R(2, -1, 3) and R(1, 0, -2)")
for q in (inv.RankTwoPoint(2, -1, 3), inv.RankTwoPoint(1, 0, -2)):
    w, s = q.w, q.x1 ** 2 + q.x2 ** 2
    combo = [h - w * i + w * w * c for h, i, c in zip(*gradient_components(*q.state))]
    rotation = [w * v for v in (q.x2, q.state[3], -q.x1, -q.state[1], 0.0)]
    H, I, C = conserved(q.state)
    print(f"  w = {w:+}: dH - w dI + w^2 dC = {combo}")
    print(f"          field = {vector_field(q.state).tolist()} = w K p = {rotation}")
    print(f"          I = {I} = w s, 2H = {2 * H} = w^2 s + w^4 = {w * w * s + w ** 4}")

print()
print("invariance probe: integrate in 5D, measure the distance to R")
rep = inv.invariance_probe(inv.RankTwoPoint(0.0, 1.0, 1.0), 20.0)
print(f"  max distance to R over [0, 20]: {rep.max_distance_to_union:.2e}")
print(f"  punctures observed: {rep.puncture_count},"
      f" predicted: {rep.predicted_punctures}")
