import random

import numpy as np
import pytest

from mbloch import core, verify


def random_points(n=100, seed=0, half_width=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-half_width, half_width, size=(n, 5))


def lattice_points(seed):
    # the structure checks compute exactly on these (see verify.structure_points)
    return verify.structure_points(random.Random(seed))


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
        assert verify.antisymmetry_exact(random_points(50, seed=1))

    def test_casimir_gradient_in_kernel_hand_case(self):
        # at (1,2,3,4,5): grad C = (1,0,3,0,1); multiplying the tensor
        # rows out by hand gives the zero vector
        p = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        prod = core.poisson_tensor(p) @ core.grad_C(p)
        assert np.abs(prod).max() < 1e-14 * (1 + p @ p)

    def test_casimir_kernel_random(self):
        assert verify.casimir_in_kernel(random_points(100, seed=2))

    def test_hamiltonian_reproduces_field(self):
        assert verify.hamiltonian_poisson_form(random_points(100, seed=3))


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
        assert verify.bracket_H_I_zero(lattice_points(7))

    def test_rejects_bad_gradient_field(self):
        with pytest.raises(core.DomainError):
            core.poisson_bracket(lambda p: np.full(5, np.nan), core.grad_H,
                                 np.zeros(5))
        # for a stack: a non-finite entry, or the shape of one state, of four
        # components or of a scalar, in either slot
        stack = random_points(6, seed=9).reshape(2, 3, 5)
        for bad in (lambda p: np.full(np.shape(p), np.inf),
                    lambda p: np.where(np.arange(30).reshape(2, 3, 5) == 7, np.nan, 1.0),
                    lambda p: np.zeros(5),
                    lambda p: np.zeros((2, 3, 4)),
                    lambda p: 1.0):
            for grads in ((bad, core.grad_H), (core.grad_H, bad)):
                with pytest.raises(core.DomainError):
                    core.poisson_bracket(*grads, stack)

    def test_overflowing_bracket_is_a_domain_error(self):
        # 1e200 * 1e200 overflows in a term of {C, I}, which is 0 everywhere;
        # the error names the first state whose bracket is not finite
        big = [1e200, 1.0, 1.0, 1.0, 1.0]
        with pytest.raises(core.DomainError, match=r"at \[1e\+200, 1\.0"):
            core.poisson_bracket(core.grad_C, core.grad_I, big)
        stack = np.vstack([random_points(3, seed=4), big, [3e200, 1, 1, 1, 1]])
        with pytest.raises(core.DomainError, match=r"at \[1e\+200, 1\.0"):
            core.poisson_bracket(core.grad_C, core.grad_I, stack)


class TestInvariantsAlongFlow:
    def test_directional_derivatives_vanish(self):
        assert verify.invariants_along_flow(lattice_points(8))


class TestJacobiIdentity:
    def test_cyclic_sum_exactly_zero(self):
        for half_width in (2.0, 1e150):
            assert verify.jacobi_identity_sampled(random_points(100, 10, half_width))

    @pytest.mark.parametrize("term", [0, 4])
    def test_poisson_deformation_passes(self, monkeypatch, term):
        # J_13 = x1 or z (and J_31 = -J_13) still satisfies the Jacobi
        # identity: the check tests the identity, not the entries of J
        tensor = core.poisson_tensor

        def deformed(p):
            J = tensor(p)
            J[..., 1, 3], J[..., 3, 1] = np.asarray(p)[..., term], -np.asarray(p)[..., term]
            return J

        monkeypatch.setattr(core, "poisson_tensor", deformed)
        assert verify.jacobi_identity_sampled(lattice_points(12))


def _stack_rows():
    """Seeded random states at three scales and two rows (1e200, 1, 1, 1, 1)."""
    rng = np.random.default_rng(41)
    big = [[1e200, 1.0, 1.0, 1.0, 1.0]] * 2
    return np.vstack([rng.uniform(-2, 2, size=(60, 5)), rng.normal(size=(20, 5)) * 1e3,
                      rng.integers(-16, 17, size=(20, 5)) / 8, big])


class TestArrayInputs:
    """The tensor, the bracket and the Jacobi defect take (5,) or (..., 5) and
    give the bits, signed zeros included, of one call per state."""

    @pytest.mark.parametrize("fn", [
        core.poisson_tensor,
        core.jacobi_defect,
        lambda p: core.poisson_bracket(core.grad_H, core.grad_H, p),
        lambda p: core.poisson_bracket(core.grad_H, core.grad_I, p),
    ], ids=["poisson_tensor", "jacobi_defect", "bracket_H_H", "bracket_H_I"])
    def test_matches_per_row_calls(self, fn):
        rows = _stack_rows()
        per_row = np.array([fn(r) for r in rows])
        stacked = fn(rows)
        assert stacked.shape == per_row.shape
        assert stacked.tobytes() == per_row.tobytes()
        pick = [0, 1, 60, 80, -2, -1]
        stacked = fn(rows[pick].reshape(2, 3, 5))
        assert stacked.shape == (2, 3, *per_row.shape[1:])
        assert stacked.tobytes() == per_row[pick].tobytes()
