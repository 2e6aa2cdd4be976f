import numpy as np
import pytest

from mbloch import equilibria
from mbloch.core import DomainError, conserved, grad_I
from mbloch.equilibria import (ALPHA_GRID, EquilibriumFamily, QuarticPoly,
                               cartan_classify, char_poly_4x4, is_equilibrium,
                               k_split, leaf_linearization,
                               origin_stability_certificate, pencil_char_poly,
                               quartic_roots)
from mbloch.verify import (C_GRID, classification_grid_refinement_stable,
                           leaf_flows_commute, quartic_root_reconstruction,
                           root_match_error)


class TestFamilies:
    def test_axis_point_is_equilibrium(self):
        assert is_equilibrium([0, 0, 0, 0, 7], 1e-12)

    def test_ring_point_is_equilibrium(self):
        assert is_equilibrium([3, 0, -4, 0, 0], 1e-12)

    def test_generic_point_is_not(self):
        assert not is_equilibrium([1, 1, 0, 0, 1], 1e-12)

    def test_family_constraints(self):
        with pytest.raises(ValueError):
            EquilibriumFamily("E1", M=0.0)
        with pytest.raises(ValueError):
            EquilibriumFamily("E2", M=0.0, N=0.0)

    def test_embed_vanishing_field(self):
        members = [EquilibriumFamily("E1", M=2.5),
                   EquilibriumFamily("E2", M=1.0, N=-2.0),
                   EquilibriumFamily("E3")]
        for e in members:
            assert is_equilibrium(e.embed(), 1e-15)


class TestKSplit:
    def test_axis_family_is_k0(self):
        for c in (-2.0, 0.5, 3.0):
            assert k_split(EquilibriumFamily("E1", M=c), c) == equilibria.K0

    def test_origin_is_k0(self):
        assert k_split(EquilibriumFamily("E3"), 0.0) == equilibria.K0

    def test_ring_family_is_k1_with_witness(self):
        m, n = 1.0, 2.0
        e = EquilibriumFamily("E2", M=m, N=n)
        assert k_split(e, (m * m + n * n) / 2) == equilibria.K1
        # the tangent vector (-N, N, M, -M, 0) witnesses dI != 0 on the leaf
        v = np.array([-n, n, m, -m, 0.0])
        point = e.embed()
        assert abs(v @ [m, 0, n, 0, 1]) < 1e-15  # v is leaf-tangent
        assert grad_I(point) @ v == pytest.approx(m * m + n * n)

    def test_off_leaf_rejected(self):
        with pytest.raises(DomainError):
            k_split(EquilibriumFamily("E1", M=1.0), 2.0)


class TestLeafLinearization:
    def test_paper_matrix_display_c1(self):
        lin = leaf_linearization([0, 0, 0, 0, 1], 1.0)
        assert np.array_equal(lin.matrix_H, [[0, 1, 0, 0], [1, 0, 0, 0],
                                             [0, 0, 0, 1], [0, 0, 1, 0]])

    def test_matrix_i_and_eigenvalues(self):
        lin = leaf_linearization([0, 0, 0, 0, -2], -2.0)
        assert np.array_equal(lin.matrix_I, [[0, 0, 1, 0], [0, 0, 0, 1],
                                             [-1, 0, 0, 0], [0, -1, 0, 0]])
        eig = np.sort_complex(np.linalg.eigvals(lin.matrix_I))
        assert np.allclose(eig, [-1j, -1j, 1j, 1j], atol=1e-10)

    def test_matrix_h_eigenvalues_positive_leaf(self):
        lin = leaf_linearization([0, 0, 0, 0, 4], 4.0)
        eig = np.sort(np.real(np.linalg.eigvals(lin.matrix_H)))
        assert np.allclose(eig, [-2, -2, 2, 2], atol=1e-10)

    def test_rejects_off_axis_point(self):
        with pytest.raises(DomainError):
            leaf_linearization([1, 0, 0, 0, 0], 0.5)

    def test_against_finite_difference_jacobian(self):
        # oracle: central differences of the chart-reduced flows
        h = 1e-6
        for c in C_GRID:
            lin = leaf_linearization([0, 0, 0, 0, c], c)
            for mat, field in ((lin.matrix_H, equilibria.reduced_hamiltonian_field),
                               (lin.matrix_I, equilibria.reduced_invariant_field)):
                fd = np.empty((4, 4))
                for j in range(4):
                    du = np.zeros(4)
                    du[j] = h
                    fd[:, j] = (field(du, c) - field(-du, c)) / (2 * h)
                assert np.abs(mat - fd).max() < 1e-8

    def test_commutator_vanishes(self):
        assert leaf_flows_commute(C_GRID)


class TestPencilPolynomial:
    def test_c1_alpha1(self):
        poly = pencil_char_poly(1.0, 1.0)
        assert np.array_equal(poly.as_array(), [1, 0, 0, 0, 4])
        roots = quartic_roots(poly)
        expected = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
        assert root_match_error(roots, expected) < 1e-12

    def test_negative_leaf_alpha_zero(self):
        poly = pencil_char_poly(-1.0, 0.0)
        assert np.array_equal(poly.as_array(), [1, 0, 2, 0, 1])

    def test_degenerate_leaf_collapses(self):
        for beta in (0.3, 1.0, 2.5):
            poly = pencil_char_poly(0.0, beta)
            # (t^2 + beta^2)^2
            assert poly.c2 == pytest.approx(2 * beta ** 2, rel=1e-12)
            assert poly.c0 == pytest.approx(beta ** 4, rel=1e-12)


class TestQuarticRoots:
    def test_root_match_pairs_by_least_total_distance(self):
        want = [1 + 1j, 1 - 1j, -2.0, 3.0]
        got = [3.1, -2.0, 1 - 1j, 1 + 1.2j]
        assert root_match_error(got, want) == pytest.approx(0.2)
        assert root_match_error(got[::-1], want) == pytest.approx(0.2)
        assert root_match_error(want, want) == 0.0

    def test_biquadratic_complex(self):
        roots = quartic_roots(QuarticPoly(0, 0, 0, 4))
        assert root_match_error(roots, [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) < 1e-12

    def test_repeated_imaginary_pair(self):
        roots = quartic_roots(QuarticPoly(0, 2, 0, 1))
        assert root_match_error(roots, [1j, 1j, -1j, -1j]) < 1e-12

    def test_biquadratic_real(self):
        roots = quartic_roots(QuarticPoly(0, -5, 0, 4))
        assert root_match_error(roots, [1, -1, 2, -2]) < 1e-12

    def test_conjugate_pairing_bit_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            coeffs = rng.uniform(-3, 3, size=4)
            roots = quartic_roots(QuarticPoly(*coeffs))
            conj_set = {r.conjugate() for r in roots}
            assert set(roots) == conj_set

    def test_reconstruction_from_known_roots(self):
        # oracle: np.poly of the drawn roots
        assert quartic_root_reconstruction(np.random.default_rng(14), 300)

    def test_char_poly_matches_numpy(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            m = rng.uniform(-2, 2, size=(4, 4))
            ours = char_poly_4x4(m).as_array()
            ref = np.poly(m)
            assert np.abs(ours - ref).max() < 1e-10 * (1 + np.abs(ref).max())


class TestCartanClassification:
    def test_positive_leaves_focus_focus(self):
        for c in (0.25, 1.0, 4.0):
            res = cartan_classify([0, 0, 0, 0, c], c)
            assert res.kind == equilibria.FOCUS_FOCUS
            assert res.stable == equilibria.UNSTABLE
            assert res.A != 0 and res.B != 0
            want = -16 * c * res.alpha ** 2
            assert res.discriminant == pytest.approx(want, rel=1e-12)

    def test_negative_leaves_center_center(self):
        for c in (-0.25, -1.0, -4.0):
            res = cartan_classify([0, 0, 0, 0, c], c)
            assert res.kind == equilibria.CENTER_CENTER
            assert res.stable == equilibria.STABLE
            assert all(abs(r.real) < 1e-9 * (1 + abs(r)) for r in res.roots)
            assert len({abs(r.imag) for r in res.roots}) == 2

    def test_focus_focus_root_quadruple(self):
        res = cartan_classify([0, 0, 0, 0, 1], 1.0)
        quad = {complex(s1 * res.A, s2 * res.B)
                for s1 in (1, -1) for s2 in (1, -1)}
        assert all(min(abs(r - q) for q in quad) < 1e-9 for r in res.roots)

    def test_origin_degenerate(self):
        res = cartan_classify([0, 0, 0, 0, 0], 0.0)
        assert res.kind == equilibria.DEGENERATE
        assert res.stable == equilibria.NOT_DETERMINED
        assert res.alpha is None and res.A is None and res.B is None

    def test_grid_refinement_invariance(self):
        assert classification_grid_refinement_stable(C_GRID)

    def test_rejects_ring_equilibria(self):
        with pytest.raises(DomainError):
            cartan_classify([1, 0, 2, 0, 0], 2.5)

    def test_small_alpha_center_evidence(self):
        # for c < 0, pencil members with |alpha| < sqrt(-c)/2 already have
        # four distinct purely imaginary roots
        for c in (-0.25, -1.0, -4.0):
            a = 0.4 * np.sqrt(-c)
            roots = quartic_roots(pencil_char_poly(c, a))
            assert all(abs(r.real) < 1e-9 * (1 + abs(r)) for r in roots)
            assert len(set(roots)) == 4


class TestOriginCertificate:
    def test_certificate_holds(self):
        cert = origin_stability_certificate(2.0, 21)
        assert cert.unique_solution
        assert cert.worst_offender is None
        norms = list(cert.max_norm_by_eps.values())
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_origin_satisfies_equalities(self):
        assert conserved(np.zeros(5)) == (0.0, 0.0, 0.0)

    def test_nearby_level_point_excluded(self):
        # (1, 0, 0, 0, -1/2) matches I and C but has H = 1/8 > 1e-2
        h, i, c = conserved([1, 0, 0, 0, -0.5])
        assert i == 0.0 and c == 0.0
        assert h == 0.125 > 1e-2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            origin_stability_certificate(-1.0, 21)
        with pytest.raises(ValueError):
            origin_stability_certificate(1.0, 2)
