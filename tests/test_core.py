import numpy as np
import pytest

from mbloch import core


def random_points(n=100, seed=0, half_width=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-half_width, half_width, size=(n, 5))


class TestVectorField:
    def test_axis_equilibria(self):
        for m in (-3.0, 0.5, 7.0):
            assert np.array_equal(core.vector_field([0, 0, 0, 0, m]), np.zeros(5))

    def test_ring_equilibrium(self):
        assert np.array_equal(core.vector_field([1, 0, 1, 0, 0]), np.zeros(5))

    def test_direct_substitution(self):
        assert np.array_equal(core.vector_field([1, 1, 0, 0, 1]),
                              [1, 1, 0, 0, -1])

    def test_rejects_non_finite(self):
        with pytest.raises(core.DomainError):
            core.vector_field([np.nan, 0, 0, 0, 0])
        with pytest.raises(core.DomainError):
            core.vector_field([0, np.inf, 0, 0, 0])

    def test_array_input_matches_rows(self):
        pts = random_points(60, seed=5).reshape(3, 20, 5)
        rows = np.array([core.vector_field(p) for p in pts.reshape(-1, 5)])
        assert core.vector_field(pts).shape == (3, 20, 5)
        assert np.array_equal(core.vector_field(pts).reshape(-1, 5), rows)

    def test_array_input_checked(self):
        pts = random_points(4, seed=6)
        pts[2, 3] = np.nan
        for bad in (pts, np.zeros((4, 3)), 1.0):
            with pytest.raises(core.DomainError):
                core.vector_field(bad)
            with pytest.raises(core.DomainError):
                core.conserved(bad)


class TestPoissonTensor:
    def test_origin_matrix(self):
        J = core.poisson_tensor(np.zeros(5))
        expected = np.zeros((5, 5))
        expected[0, 1] = expected[2, 3] = 1.0
        expected[1, 0] = expected[3, 2] = -1.0
        assert np.array_equal(J, expected)

    def test_antisymmetry_exact(self):
        for p in random_points(50, seed=1):
            J = core.poisson_tensor(p)
            assert np.array_equal(J, -J.T)

    def test_casimir_gradient_in_kernel_hand_case(self):
        # at (1,2,3,4,5): grad C = (1,0,3,0,1); multiplying the tensor
        # rows out by hand gives the zero vector
        p = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        prod = core.poisson_tensor(p) @ core.grad_C(p)
        assert np.abs(prod).max() < 1e-14 * (1 + p @ p)

    def test_casimir_kernel_random(self):
        for p in random_points(100, seed=2):
            prod = core.poisson_tensor(p) @ core.grad_C(p)
            assert np.abs(prod).max() < 1e-14 * (1 + p @ p)

    def test_hamiltonian_reproduces_field(self):
        for p in random_points(100, seed=3):
            lhs = core.vector_field(p)
            rhs = core.poisson_tensor(p) @ core.grad_H(p)
            scale = 1 + np.linalg.norm(p) ** 3
            assert np.abs(lhs - rhs).max() < 1e-14 * scale


class TestConserved:
    def test_origin(self):
        assert core.conserved(np.zeros(5)) == (0.0, 0.0, 0.0)

    def test_axis_point(self):
        for c in (-1.0, 0.5, 2.0):
            h, i, cas = core.conserved([0, 0, 0, 0, c])
            assert (h, i, cas) == (c * c / 2, 0.0, c)

    def test_homoclinic_anchor_point(self):
        assert core.conserved([2, 0, 0, 0, -1]) == (0.5, 0.0, 1.0)

    def test_array_input_matches_rows(self):
        pts = random_points(60, seed=7).reshape(3, 20, 5)
        rows = np.array([core.conserved(p) for p in pts.reshape(-1, 5)])
        triple = core.conserved(pts)
        assert isinstance(triple, core.ConservedTriple)
        assert triple.H.shape == (3, 20)
        assert np.array_equal(np.stack(triple, axis=-1).reshape(-1, 3), rows)

    def test_h_nonnegative(self):
        for p in random_points(200, seed=4, half_width=5.0):
            assert core.conserved(p).H >= 0.0


class TestBracket:
    def test_h_i_commute_hand_point(self):
        assert abs(core.poisson_bracket(core.grad_H, core.grad_I,
                                        [1, 2, 3, 4, 5])) < 1e-12

    def test_casimir_brackets_vanish(self):
        for p in random_points(50, seed=5):
            scale = 1 + np.linalg.norm(p) ** 3
            assert abs(core.poisson_bracket(core.grad_C, core.grad_H, p)) < 1e-13 * scale
            assert abs(core.poisson_bracket(core.grad_H, core.grad_C, p)) < 1e-13 * scale
            assert abs(core.poisson_bracket(core.grad_C, core.grad_I, p)) < 1e-13 * scale

    def test_self_bracket_exactly_zero(self):
        for p in random_points(100, seed=6):
            assert core.poisson_bracket(core.grad_H, core.grad_H, p) == 0.0
            assert core.poisson_bracket(core.grad_I, core.grad_I, p) == 0.0

    def test_h_i_commute_random(self):
        for p in random_points(100, seed=7):
            scale = 1 + np.linalg.norm(p) ** 3
            assert abs(core.poisson_bracket(core.grad_H, core.grad_I, p)) < 1e-12 * scale

    def test_rejects_bad_gradient_field(self):
        with pytest.raises(core.DomainError):
            core.poisson_bracket(lambda p: np.full(5, np.nan), core.grad_H,
                                 np.zeros(5))


class TestInvariantsAlongFlow:
    def test_directional_derivatives_vanish(self):
        for p in random_points(100, seed=8):
            v = core.vector_field(p)
            scale = 1 + np.linalg.norm(p) ** 3
            assert abs(core.grad_I(p) @ v) < 1e-13 * scale
            assert abs(core.grad_C(p) @ v) < 1e-13 * scale


class TestComplexConversion:
    def test_unpack_interleaving(self):
        p = core.to_real(core.ComplexState(X=1 + 2j, Y=3 + 4j, Z=5.0))
        assert np.array_equal(p, [1, 3, 2, 4, 5])

    def test_real_axis(self):
        assert np.array_equal(core.to_real(core.ComplexState(1, 0, 0)),
                              [1, 0, 0, 0, 0])

    def test_round_trip_exact(self):
        p = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert np.array_equal(core.to_real(core.to_complex(p)), p)
        q = core.ComplexState(X=0.3 - 1.7j, Y=-2.2 + 0.9j, Z=-4.0)
        assert core.to_complex(core.to_real(q)) == q


class TestJacobiIdentity:
    def rand_quadratic(self, rng):
        A = rng.uniform(-1, 1, size=(5, 5))
        return core.Quadratic(A + A.T, rng.uniform(-1, 1, size=5))

    def test_bracket_gradient_against_finite_differences(self):
        # independent oracle: central differences of the bracket value
        rng = np.random.default_rng(9)
        h = 1e-6
        for _ in range(20):
            F, G = self.rand_quadratic(rng), self.rand_quadratic(rng)
            p = rng.uniform(-2, 2, size=5)
            analytic = core.bracket_grad_of_quadratics(F, G, p)
            fd = np.empty(5)
            for m in range(5):
                dp = np.zeros(5)
                dp[m] = h
                fd[m] = (core.bracket_of_quadratics(F, G, p + dp)
                         - core.bracket_of_quadratics(F, G, p - dp)) / (2 * h)
            assert np.abs(analytic - fd).max() < 1e-7 * (1 + np.abs(fd).max())

    def test_cyclic_sum_named_invariants(self):
        for p in random_points(100, seed=10):
            scale = (1 + p @ p) ** 3
            defect = core.jacobi_defect(core.H_QUADRATIC, core.I_QUADRATIC,
                                        core.C_QUADRATIC, p)
            assert abs(defect) < 1e-12 * scale

    def test_cyclic_sum_random_quadratics(self):
        rng = np.random.default_rng(11)
        for p in random_points(100, seed=12):
            F, G, K = (self.rand_quadratic(rng) for _ in range(3))
            scale = (1 + p @ p) ** 3
            assert abs(core.jacobi_defect(F, G, K, p)) < 1e-12 * scale
