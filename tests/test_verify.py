"""The tests call ``mbloch.verify``'s checks instead of restating them, so
each case breaks one formula and asserts that the named checks of a suite
pass before the break and fail after it: none of them is vacuous."""

import dataclasses

import numpy as np
import pytest

from mbloch import core, equilibria, integrate, invariant_sets, verify

FIELD = core.field_components


def drop_x2y2_from_dz(monkeypatch):
    # z' = -x1 y1 instead of -(x1 y1 + x2 y2)
    def broken(x1, y1, x2, y2, z):
        dx1, dy1, dx2, dy2, _ = FIELD(x1, y1, x2, y2, z)
        return dx1, dy1, dx2, dy2, -(x1 * y1)

    for module in (core, integrate):
        monkeypatch.setattr(module, "field_components", broken)


def damp_dz(monkeypatch):
    # z' loses 1e-3 z: a dissipative term that breaks the reversing
    # involution R = diag(1, -1, 1, -1, 1) (drop_x2y2_from_dz keeps it)
    def broken(x1, y1, x2, y2, z):
        dx1, dy1, dx2, dy2, dz = FIELD(x1, y1, x2, y2, z)
        return dx1, dy1, dx2, dy2, dz - 1e-3 * z

    monkeypatch.setattr(integrate, "field_components", broken)


def _patch_tensor(monkeypatch, change):
    # change: (J, p) -> None, editing the entries of J(p) in place
    tensor = core.poisson_tensor

    def broken(p):
        J = tensor(p)
        change(J, p)
        return J

    monkeypatch.setattr(core, "poisson_tensor", broken)


def z_in_J02(monkeypatch):
    # J_02 = z and J_20 = -z: still antisymmetric, no longer Poisson
    def change(J, p):
        J[0, 2], J[2, 0] = p[4], -p[4]

    _patch_tensor(monkeypatch, change)


def skew_J10(monkeypatch):
    # J_10 = -1.01 against J_01 = 1
    def change(J, p):
        J[1, 0] = -1.01

    _patch_tensor(monkeypatch, change)


def flip_core_grad_I_entry(monkeypatch):
    grad = core.grad_I
    monkeypatch.setattr(core, "grad_I", lambda p: grad(p) * [1.0, 1.0, 1.0, -1.0, 1.0])


def scale_quartic_roots(monkeypatch):
    roots = equilibria.quartic_roots
    monkeypatch.setattr(equilibria, "quartic_roots",
                        lambda poly: [1.01 * r for r in roots(poly)])


def _patch_classify(monkeypatch, change):
    # change: ClassificationResult -> the fields to replace
    classify = equilibria.cartan_classify

    def broken(e, c):
        res = classify(e, c)
        return dataclasses.replace(res, **change(res))

    monkeypatch.setattr(equilibria, "cartan_classify", broken)


def scale_classified_roots(monkeypatch):
    _patch_classify(monkeypatch, lambda res: {"roots": [1.01 * r for r in res.roots]})


def scale_classified_alpha(monkeypatch):
    _patch_classify(monkeypatch, lambda res: {"alpha": 1.01 * res.alpha})


def flip_grad_I_entry(monkeypatch):
    grad = invariant_sets.grad_I
    monkeypatch.setattr(invariant_sets, "grad_I",
                        lambda p: grad(p) * [1.0, 1.0, 1.0, -1.0, 1.0])


def halve_sublevel_bound(monkeypatch):
    bound = equilibria.sublevel_norm_bound
    monkeypatch.setattr(equilibria, "sublevel_norm_bound", lambda eps: 0.5 * bound(eps))


def flip_c_in_matrix_H(monkeypatch):
    # (x1, y1)' = (y1, -c x1) instead of (y1, c x1), and the same for (x2, y2)
    linearize = equilibria.leaf_linearization

    def broken(e, c):
        lin = linearize(e, c)
        matrix_H = lin.matrix_H.copy()
        matrix_H[1, 0] = matrix_H[3, 2] = -c
        return dataclasses.replace(lin, matrix_H=matrix_H)

    monkeypatch.setattr(equilibria, "leaf_linearization", broken)


def scale_m1_reduced_field(monkeypatch):
    field = invariant_sets.m1_reduced_field
    monkeypatch.setattr(invariant_sets, "m1_reduced_field",
                        lambda q: tuple(1.01 * v for v in field(q)))


def shift_ring_embedding(monkeypatch):
    ring = verify.ring_equilibrium
    monkeypatch.setattr(verify, "ring_equilibrium", lambda m, n: ring(m, n) + [0, 0, 0, 0, 0.5])


def add_h5_to_dp_fifth_order(monkeypatch):
    # y5 gains h^5 in x1: an error of order 5 in place of 6
    step = integrate._dp_raw

    def broken(x1, y1, x2, y2, z, h, f):
        y5, y4 = step(x1, y1, x2, y2, z, h, f)
        return (y5[0] + h ** 5, *y5[1:]), y4

    monkeypatch.setattr(integrate, "_dp_raw", broken)


@pytest.mark.parametrize("suite,break_formula,names", [
    ("core", drop_x2y2_from_dz, {"hamiltonian_poisson_form", "invariants_along_flow"}),
    ("equilibria", scale_quartic_roots, {"quartic_root_reconstruction"}),
    ("integrate", drop_x2y2_from_dz, {"rk4_conserved_drift"}),
    ("solutions", drop_x2y2_from_dz, {"homoclinic_solves_system",
                                      "periodic_solves_system",
                                      "polar_chart_pushforward"}),
    ("invariant_sets", drop_x2y2_from_dz, {"union_is_invariant"}),
    ("invariant_sets", flip_grad_I_entry, {"rank2_on_pieces"}),
    ("equilibria", scale_classified_roots, {"classified_spectrum_matches_pencil"}),
    ("equilibria", scale_classified_alpha, {"classified_spectrum_matches_pencil"}),
    ("equilibria", halve_sublevel_bound, {"origin_sublevel_bound"}),
    ("equilibria", flip_c_in_matrix_H, {"leaf_linearization_is_jacobian"}),
    ("invariant_sets", scale_m1_reduced_field, {"m1_reduced_flow_tangent"}),
    ("equilibria", shift_ring_embedding, {"equilibrium_families_fixed"}),
    ("integrate", add_h5_to_dp_fifth_order, {"dp_local_order"}),
    ("integrate", damp_dz, {"time_reversal"}),
    ("core", z_in_J02, {"jacobi_identity_sampled", "casimir_in_kernel"}),
    ("core", skew_J10, {"antisymmetry_exact", "casimir_in_kernel"}),
    ("core", flip_core_grad_I_entry, {"bracket_H_I_zero", "invariants_along_flow"}),
])
def test_broken_formula_fails_named_checks(monkeypatch, suite, break_formula, names):
    def run():
        report = dict(verify.SUITES[suite](np.random.default_rng(0), verify.QUICK))
        return {name: report[name] for name in names}

    assert all(run().values())
    break_formula(monkeypatch)
    assert not any(run().values())


def test_rank3_generic_fails_when_no_point_survives_the_skips(monkeypatch):
    # grad I = 0 drops the Jacobian's rank everywhere, so every draw is
    # skipped as near a rank-degenerate locus
    assert verify.rank3_generic(np.random.default_rng(0), 50)
    monkeypatch.setattr(invariant_sets, "grad_I", lambda p: np.zeros(np.shape(p)))
    assert verify.rank3_generic(np.random.default_rng(0), 50) is False
