import math
import random

import numpy as np
import pytest

from mbloch import equilibria
from mbloch.core import DomainError, conserved, vector_field
from mbloch.equilibria import (QuarticPoly, cartan_classify, char_poly_4x4,
                               leaf_linearization, origin_stability_certificate,
                               pencil_char_poly, quartic_roots)
from mbloch.verify import (C_GRID, classified_spectrum_matches_pencil,
                           discriminant_and_type_signs, equilibrium_families_fixed,
                           leaf_flows_commute, leaf_linearization_is_jacobian,
                           origin_sublevel_bound, quartic_root_reconstruction,
                           root_match_error)


class TestFamilies:
    def test_axis_point_is_equilibrium(self):
        assert equilibrium_families_fixed((7.0,), ())

    def test_ring_point_is_equilibrium(self):
        assert equilibrium_families_fixed((), ((3.0, -4.0),))

    def test_generic_point_is_not(self):
        assert vector_field([1, 1, 0, 0, 1]).any()

    def test_embed_vanishing_field(self):
        ring = ((-2.0, -1.5), (0.5, 0.0), (0.0, -3.0))
        assert equilibrium_families_fixed(C_GRID, ring)


class TestKSplit:
    def test_axis_family_is_k0(self):
        assert equilibrium_families_fixed((-2.0, 0.5, 3.0), ())

    def test_origin_is_k0(self):
        assert equilibrium_families_fixed((), ())

    def test_ring_family_is_k1_with_witness(self):
        assert equilibrium_families_fixed((), ((1.0, 2.0),))


class TestLeafLinearization:
    def test_paper_matrix_display_c1(self):
        lin = leaf_linearization(1.0)
        assert np.array_equal(lin.matrix_H, [[0, 1, 0, 0], [1, 0, 0, 0],
                                             [0, 0, 0, 1], [0, 0, 1, 0]])

    def test_matrix_i_and_eigenvalues(self):
        lin = leaf_linearization(-2.0)
        assert np.array_equal(lin.matrix_I, [[0, 0, 1, 0], [0, 0, 0, 1],
                                             [-1, 0, 0, 0], [0, -1, 0, 0]])
        eig = np.sort_complex(np.linalg.eigvals(lin.matrix_I))
        assert np.allclose(eig, [-1j, -1j, 1j, 1j], atol=1e-10)

    def test_matrix_h_eigenvalues_positive_leaf(self):
        lin = leaf_linearization(4.0)
        eig = np.sort(np.real(np.linalg.eigvals(lin.matrix_H)))
        assert np.allclose(eig, [-2, -2, 2, 2], atol=1e-10)

    def test_against_finite_difference_jacobian(self):
        # oracle: the five-point stencil of J grad H and J grad I in the leaf chart
        assert leaf_linearization_is_jacobian(C_GRID)

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
        assert quartic_root_reconstruction(random.Random(14), 300)

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

    def test_discriminant_is_the_pencils(self):
        # c2^2 - 4 c0 of the quadratic in s = t^2 of the pencil member that
        # classify takes, exactly on the dyadic grid: 64.0 at c = -1, alpha = 2
        for c in C_GRID:
            res = cartan_classify([0, 0, 0, 0, c], c)
            q = pencil_char_poly(c, res.alpha)
            assert res.discriminant == q.c2 * q.c2 - 4.0 * q.c0

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
        assert res.stable == equilibria.STABLE
        assert res.certificate == origin_stability_certificate()
        assert res.alpha is None and res.A is None and res.B is None

    def test_classified_spectrum_matches_pencil(self):
        assert classified_spectrum_matches_pencil(C_GRID)

    def test_spectrum_checks_run_on_huge_leaves(self):
        # c^2/2 is finite here, but Faddeev-LeVerrier's trace overflows
        leaves = (1e154, -1e154, 1.3e154)
        assert classified_spectrum_matches_pencil(leaves)
        assert discriminant_and_type_signs(leaves)

    @pytest.mark.parametrize("e, c", [
        pytest.param([0, 0, 0, 1], 1.0, id="shape-4"),
        pytest.param([0, 0, 0, 0, 1, 0], 1.0, id="shape-6"),
        pytest.param(np.zeros((1, 5)), 0.0, id="shape-1x5"),
        pytest.param(np.zeros((5, 1)), 0.0, id="shape-5x1"),
        pytest.param([math.nan, 0, 0, 0, 1], 1.0, id="nan"),
        pytest.param([0, 0, 0, 0, math.inf], math.inf, id="inf"),
        pytest.param([1, 0, 2, 0, 0], 2.5, id="ring"),
        pytest.param([0, 0, 0, 0, 1], 2.0, id="off-leaf"),
        pytest.param([0, 0, 0, 0, 1e155], 1e155, id="energy-overflow"),
    ])
    def test_rejects_points_off_the_axis_leaf(self, e, c):
        with pytest.raises(DomainError):
            cartan_classify(e, c)

    @pytest.mark.parametrize("e, c", [
        pytest.param([0, 0, 0, 0, 2], 2, id="int-list"),
        pytest.param((0.0, 0.0, 0.0, 0.0, -1.0), -1.0, id="tuple"),
        # what the rk45_sweep benchmark worker passes
        pytest.param(np.array([0.0, 0.0, 0.0, 0.0, 0.5]), 0.5, id="ndarray"),
        pytest.param([0, 0, 0, 0, 0.5], np.float64(0.5), id="float64-c"),
    ])
    def test_accepts_any_real_5_vector(self, e, c):
        assert cartan_classify(e, c) == cartan_classify([0.0, 0.0, 0.0, 0.0, float(c)],
                                                        float(c))

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
        cert = origin_stability_certificate()
        assert cert.unique_solution
        bounds = cert.norm_bound_by_eps
        assert list(bounds) == list(equilibria.CERTIFICATE_EPS)
        assert [round(r, 4) for r in bounds.values()] == [0.5682, 0.1694, 0.0532]
        assert origin_sublevel_bound(equilibria.CERTIFICATE_EPS)

    def test_origin_satisfies_equalities(self):
        assert conserved(np.zeros(5)) == (0.0, 0.0, 0.0)

    def test_nearby_level_point_excluded(self):
        # (1, 0, 0, 0, -1/2) matches I and C but has H = 1/8 > 1e-2
        h, i, c = conserved([1, 0, 0, 0, -0.5])
        assert i == 0.0 and c == 0.0
        assert h == 0.125 > 1e-2
