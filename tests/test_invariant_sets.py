import numpy as np
import pytest

from mbloch import invariant_sets as inv
from mbloch.core import DomainError, conserved, vector_field
from mbloch.verify import (invariant_I_factorizes, m1_reduced_flow_tangent,
                           pieces_not_invariant, rank2_on_pieces, rank3_generic)


class TestJacobian:
    def test_origin_rows_and_rank(self):
        jac = inv.jacobian_F(np.zeros(5))
        assert np.array_equal(jac, [[0, 0, 0, 0, 0],
                                    [0, 0, 0, 0, 0],
                                    [0, 0, 0, 0, 1]])
        assert inv.rank_F(np.zeros(5)).rank == 1

    def test_axis_equilibrium_rank_one(self):
        # grad H = c*e5 and grad C = e5 are parallel, grad I = 0
        for c in (1.0, -2.0):
            rep = inv.rank_F([0, 0, 0, 0, c])
            assert rep.rank == 1

    def test_generic_point_full_rank(self):
        p = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert inv.rank_F(p).rank == 3
        # SVD oracle from numpy agrees
        assert np.linalg.matrix_rank(inv.jacobian_F(p)) == 3

    def test_rows_are_gradients(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(10):
            p = rng.uniform(-2, 2, size=5)
            fd = np.empty((3, 5))
            for m in range(5):
                dp = np.zeros(5)
                dp[m] = h
                fd[:, m] = (np.array(conserved(p + dp))
                            - np.array(conserved(p - dp))) / (2 * h)
            assert np.abs(inv.jacobian_F(p) - fd).max() < 1e-8

    def test_rank_report_contract(self):
        rep = inv.rank_F([1, 2, 3, 4, 5])
        assert np.all(np.diff(rep.singular_values) <= 0)
        assert np.all(rep.singular_values >= 0)
        assert rep.rank == int(np.sum(rep.singular_values > rep.tol_used))

    def test_rank_two_at_a_large_coordinate(self):
        # the three gradients are about 1e100 long there and still dependent
        assert inv.rank_F(inv.m1_embed(inv.M1Point(1e100, 1.0, 1.0))).rank == 2


class TestEmbeddings:
    def test_m1_embed_example(self):
        q = inv.M1Point(1.0, 1.0, 1.0)
        assert np.array_equal(inv.m1_embed(q), [1, 1, 1, -1, -1])
        assert inv.rank_F(inv.m1_embed(q)).rank == 2

    def test_m2_embed_ring_equilibrium(self):
        p = inv.m2_embed(inv.M2Point(1.0, 0.0))
        assert np.array_equal(p, [1, 0, 0, 0, 0])
        assert np.array_equal(vector_field(p), np.zeros(5))

    def test_m2_embed_rank_two(self):
        p = inv.m2_embed(inv.M2Point(2.0, 1.0))
        assert np.array_equal(p, [2, 0, 0, 1, -0.25])
        assert inv.rank_F(p).rank == 2

    def test_constraints_rejected(self):
        with pytest.raises(ValueError):
            inv.M1Point(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            inv.M1Point(1.0, 1e100, 1e-100)  # z = -(y1/x2)^2 overflows
        with pytest.raises(ValueError):
            inv.M2Point(0.0, 1.0)
        with pytest.raises(DomainError):
            inv.M2Point(1e-200, 1.0)  # z = -(y2/x1)^2 overflows


class TestMembership:
    def test_embedded_points_belong(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            q1 = inv.M1Point(rng.uniform(-2, 2), rng.uniform(-2, 2),
                             rng.choice([-1, 1]) * rng.uniform(0.1, 2))
            assert inv.m1_defect(inv.m1_embed(q1)) < 1e-9
            q2 = inv.M2Point(rng.choice([-1, 1]) * rng.uniform(0.1, 2),
                             rng.uniform(-2, 2))
            assert inv.m2_defect(inv.m2_embed(q2)) < 1e-9

    def test_generic_point_excluded(self):
        p = [1, 2, 3, 4, 5]
        assert inv.m1_defect(p) > 1e-9  # y2 x2 + x1 y1 = 14
        assert inv.m2_defect(p) > 1e-9


class TestReducedDynamics:
    def test_zero_velocity_on_ring(self):
        assert inv.m1_reduced_field(inv.M1Point(1.0, 0.0, 1.0)) == (0, 0, 0)

    def test_example_value(self):
        assert inv.m1_reduced_field(inv.M1Point(1.0, 1.0, 1.0)) == (1, -1, -1)

    def test_tangency_through_embedding(self):
        # chain rule: 5D field at the embedded point equals the embedding
        # Jacobian applied to the reduced 3D field
        rng = np.random.default_rng(19)
        points = []
        for _ in range(30):
            x1, y1 = rng.uniform(-2, 2, size=2)
            x2 = rng.choice([-1, 1]) * rng.uniform(0.2, 2)
            points.append(inv.M1Point(x1, y1, x2))
        assert m1_reduced_flow_tangent(points)

    def test_conserved_pair(self):
        assert inv.m1_conserved(inv.M1Point(1.0, 1.0, 1.0)) == (2.0, 1.0)

    def test_f1_directional_derivative(self):
        q = inv.M1Point(1.0, 1.0, 1.0)
        dx1, _, dx2 = inv.m1_reduced_field(q)
        assert 2 * q.x1 * dx1 + 2 * q.x2 * dx2 == 0.0

    def test_f2_directional_derivative(self):
        q = inv.M1Point(2.0, 1.0, 1.0)
        dx1, dy1, dx2 = inv.m1_reduced_field(q)
        # quotient rule for y1/x2 along the flow
        val = dy1 / q.x2 - q.y1 * dx2 / q.x2 ** 2
        assert abs(val) < 1e-15

    def test_singularity_errors(self):
        q = inv.M1Point(1.0, 1.0, 1.0)
        q.x2 = 0.0  # bypass the constructor check
        with pytest.raises(DomainError):
            inv.m1_reduced_field(q)
        with pytest.raises(DomainError):
            inv.m1_conserved(q)

    def test_invariant_i_factorizes(self):
        rng = np.random.default_rng(20)
        points = [inv.M1Point(rng.uniform(-2, 2), rng.uniform(-2, 2),
                              rng.choice([-1, 1]) * rng.uniform(0.1, 2))
                  for _ in range(50)]
        assert invariant_I_factorizes(points)


class TestRankDichotomy:
    def test_generic_sample_full_rank(self):
        assert rank3_generic(np.random.default_rng(21), 200)

    def test_embedded_sample_rank_two(self):
        rng = np.random.default_rng(22)
        m1_points = [inv.M1Point(rng.uniform(-2, 2), rng.uniform(-2, 2),
                                 rng.choice([-1, 1]) * rng.uniform(0.05, 2))
                     for _ in range(100)]
        assert rank2_on_pieces(m1_points, [])


class TestInvarianceProbe:
    def test_equilibrium_member_constant(self):
        rep = inv.invariance_probe(inv.M1Point(1.0, 0.0, 1.0), 5.0)
        assert rep.max_distance_to_union == 0.0
        assert rep.puncture_count == 0

    def test_single_piece_not_invariant(self):
        # x2 crosses zero once by t = 2: the orbit leaves M1
        q0 = inv.M1Point(0.0, 1.0, 1.0)
        assert pieces_not_invariant(inv.invariance_probe(q0, 2.0), q0, 2.0)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            inv.invariance_probe(inv.M1Point(1.0, 1.0, 1.0), 0.0)
