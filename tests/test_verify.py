"""The tests call ``mbloch.verify``'s checks instead of restating them, so
each case breaks one formula and asserts that the named checks of a suite
pass before the break and fail after it: none of them is vacuous."""

import dataclasses
import inspect
import math
import random
import textwrap

import numpy as np
import pytest

from mbloch import core, domain, equilibria, integrate, invariant_sets, solutions, verify

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


def damp_dz_in_rk4_builtin(monkeypatch):
    # the state an RK4 step returns loses 1e-3 h z in z: runs of the
    # built-in field step this fused kernel, which no patch of
    # field_components reaches
    step = integrate._rk4_builtin

    def broken(x1, y1, x2, y2, z, h, n):
        for i in range(1, n + 1):
            _, (*rest, w) = step(x1, y1, x2, y2, z, h, 1)
            x1, y1, x2, y2, z = *rest, w - 1e-3 * h * z
            if not math.isfinite(x1 + y1 + x2 + y2 + z):
                return i, (x1, y1, x2, y2, z)
        return n, (x1, y1, x2, y2, z)

    monkeypatch.setattr(integrate, "_rk4_builtin", broken)


def damp_dz_in_dp_builtin(monkeypatch):
    # both states a Dormand-Prince step returns lose 1e-3 h z in z
    step = integrate._dp_builtin

    def broken(x1, y1, x2, y2, z, h):
        return tuple((*rest, w - 1e-3 * h * z) for *rest, w in step(x1, y1, x2, y2, z, h))

    monkeypatch.setattr(integrate, "_dp_builtin", broken)


def add_quartic_in_x1_to_dx1(monkeypatch):
    # x1' = y1 + x1 (x1 - 1)(x1 + 1)(x1 - 2): degree 4 in x1, so it vanishes
    # on the grid {-1, 0, 1, 2}^5 and only the lattice sample can catch it
    def broken(x1, y1, x2, y2, z):
        dx1, *rest = FIELD(x1, y1, x2, y2, z)
        return dx1 + x1 * (x1 - 1) * (x1 + 1) * (x1 - 2), *rest

    monkeypatch.setattr(core, "field_components", broken)


def _patch_tensor(monkeypatch, change):
    # change: (J, p) -> None, editing the entries of J(p) in place; J and p
    # may be stacks (..., 5, 5) and (..., 5), so index from the end
    tensor = core.poisson_tensor

    def broken(p):
        J = tensor(p)
        change(J, p)
        return J

    monkeypatch.setattr(core, "poisson_tensor", broken)


def z_in_J02(monkeypatch):
    # J_02 = z and J_20 = -z: still antisymmetric, no longer Poisson
    def change(J, p):
        z = np.asarray(p)[..., 4]
        J[..., 0, 2], J[..., 2, 0] = z, -z

    _patch_tensor(monkeypatch, change)


def skew_J10(monkeypatch):
    # J_10 = -1.01 against J_01 = 1
    def change(J, p):
        J[..., 1, 0] = -1.01

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
    # the x1 entry of grad I, -x1, loses its sign in the rows rank_F reduces
    gradients = invariant_sets.gradient_components

    def broken(*comps):
        grad_h, (a, b, c, d, e), grad_c = gradients(*comps)
        return grad_h, (a, b, c, -d, e), grad_c

    monkeypatch.setattr(invariant_sets, "gradient_components", broken)


def _no_grad_I(monkeypatch):
    # grad I = 0 in the rows rank_F reduces
    gradients = invariant_sets.gradient_components

    def broken(*comps):
        grad_h, _, grad_c = gradients(*comps)
        return grad_h, (0.0 * comps[0],) * 5, grad_c

    monkeypatch.setattr(invariant_sets, "gradient_components", broken)


def one_jacobi_sweep(monkeypatch):
    # rank_F stops its Jacobi rotations after one sweep of the three pairs
    monkeypatch.setattr(invariant_sets, "_SWEEPS", 1)


def halve_sublevel_bound(monkeypatch):
    bound = equilibria.sublevel_norm_bound
    monkeypatch.setattr(equilibria, "sublevel_norm_bound", lambda eps: 0.5 * bound(eps))


def flip_c_in_matrix_H(monkeypatch):
    # (x1, y1)' = (y1, -c x1) instead of (y1, c x1), and the same for (x2, y2)
    linearize = equilibria.leaf_linearization

    def broken(c):
        lin = linearize(c)
        matrix_H = lin.matrix_H.copy()
        matrix_H[1, 0] = matrix_H[3, 2] = -c
        return dataclasses.replace(lin, matrix_H=matrix_H)

    monkeypatch.setattr(equilibria, "leaf_linearization", broken)


def _recompiled(function, right, wrong):
    """``function`` compiled from its source with the one text ``right``
    replaced by ``wrong``, in the namespace of its module."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(right) == 1
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source.replace(right, wrong), namespace)
    return namespace[function.__name__]


def chart_z_minus_w(monkeypatch):
    # the chart point's state takes z = -w in place of -w^2
    point = invariant_sets.RankTwoPoint
    monkeypatch.setattr(point, "__post_init__", _recompiled(
        point.__post_init__, "-w * x1, -w * w]", "-w * x1, -w]"))


def shift_ring_embedding(monkeypatch):
    ring = verify.ring_equilibrium
    monkeypatch.setattr(verify, "ring_equilibrium", lambda m, n: ring(m, n) + [0, 0, 0, 0, 0.5])


def scale_homoclinic_energy(monkeypatch):
    # the homoclinic level's H = c^2/2 read 1.01 c^2/2
    energy = solutions.leaf_energy
    monkeypatch.setattr(solutions, "leaf_energy", lambda c: 1.01 * energy(c))


def predict_one_more_puncture(monkeypatch):
    punctures_in = invariant_sets.RankTwoPoint.punctures_in
    monkeypatch.setattr(invariant_sets.RankTwoPoint, "punctures_in",
                        lambda par, t_end: punctures_in(par, t_end) + 1)


def halve_pulse_rate(monkeypatch):
    # sech(sqrt(c) t / 2): the pulse decays at half its rate sqrt(c)
    sech_tanh = solutions._sech_tanh
    monkeypatch.setattr(solutions, "_sech_tanh", lambda rc, t: sech_tanh(0.5 * rc, t))


def shift_punctures_quarter_spacing(monkeypatch):
    # each puncture time a quarter of the spacing late, where |x2| = r / sqrt(2)
    puncture_time = invariant_sets.RankTwoPoint.puncture_time
    monkeypatch.setattr(invariant_sets.RankTwoPoint, "puncture_time",
                        lambda par, k: puncture_time(par, k) + 0.25 * par.puncture_spacing)


def scale_periodic_z(monkeypatch):
    # z = -1.01 w^2 along the periodic orbit
    orbit = solutions.periodic_solution
    monkeypatch.setattr(solutions, "periodic_solution",
                        lambda par, t: orbit(par, t) * [1.0, 1.0, 1.0, 1.0, 1.01])


def scale_dy1(monkeypatch):
    # y1' = 1.01 x1 z
    def broken(x1, y1, x2, y2, z):
        dx1, dy1, *rest = FIELD(x1, y1, x2, y2, z)
        return dx1, 1.01 * dy1, *rest

    monkeypatch.setattr(core, "field_components", broken)


def three_c_squared_in_radial_cubic(monkeypatch):
    # P(s) with (8 H - 3 C^2) s in place of (8 H - 4 C^2) s
    cubic = solutions.radial_cubic
    monkeypatch.setattr(solutions, "radial_cubic",
                        lambda s, H, I, C: cubic(s, H, I, C) + C * C * s)


def turn_homoclinic(monkeypatch):
    # the orbit drawn at theta0 + 1e-3
    orbit = solutions.homoclinic
    monkeypatch.setattr(solutions, "homoclinic", lambda par, t: orbit(
        dataclasses.replace(par, theta0=par.theta0 + 1e-3), t))


def reverse_field(monkeypatch):
    # the field -f, which on the chart is the rotation at rate -w
    monkeypatch.setattr(domain, "field_components", lambda *p: tuple(-v for v in FIELD(*p)))


def defect_reads_half_w(monkeypatch):
    # the defect reads the chart parameter as w = I/(2s)
    monkeypatch.setattr(invariant_sets, "rank_two_defect", _recompiled(
        invariant_sets.rank_two_defect, "/ s\n", "/ (2 * s)\n"))


def add_h5_to_dp_fifth_order(monkeypatch):
    # y5 gains h^5 in x1: an error of order 5 in place of 6, in the kernel
    # that runs of the built-in field step
    step = integrate._dp_builtin

    def broken(x1, y1, x2, y2, z, h):
        y5, y4 = step(x1, y1, x2, y2, z, h)
        return (y5[0] + h ** 5, *y5[1:]), y4

    monkeypatch.setattr(integrate, "_dp_builtin", broken)


def flip_x2_in_dp_builtin_stage_2(monkeypatch):
    # the fused Dormand-Prince kernel takes its second stage at x2 - h y2 / 5:
    # the kernel compiled from the generated text with that one sign flipped,
    # which leaves _dp_raw as it is
    right, wrong = "x2 + h * (1 / 5 * y2)", "x2 - h * (1 / 5 * y2)"
    assert integrate._KERNEL_SOURCE.count(right) == 1
    namespace = {"math": math}
    exec(integrate._KERNEL_SOURCE.replace(right, wrong), namespace)
    monkeypatch.setattr(integrate, "_dp_builtin", namespace["_dp_builtin"])


def grow_rk45_step_on_error(monkeypatch):
    # the rk45 step control scales the step by err ** 0.2 in place of
    # err ** -0.2: the driver compiled from its source with that one sign
    # flipped, so a large error grows the next step and a small one shrinks it
    right = "factor = grow if err == 0.0 else safety * err ** -0.2"
    monkeypatch.setattr(integrate, "_integrate_rk45", _recompiled(
        integrate._integrate_rk45, right, right.replace("** -0.2", "** 0.2")))


@pytest.mark.parametrize("suite,break_formula,names", [
    ("core", drop_x2y2_from_dz, {"hamiltonian_poisson_form", "invariants_along_flow"}),
    ("equilibria", scale_quartic_roots, {"quartic_root_reconstruction"}),
    ("integrate", drop_x2y2_from_dz, {"rk4_conserved_drift"}),
    ("solutions", drop_x2y2_from_dz, {"homoclinic_solves_system", "periodic_solves_system"}),
    ("invariant_sets", drop_x2y2_from_dz, {"union_is_invariant"}),
    ("invariant_sets", flip_grad_I_entry, {"rank2_on_pieces"}),
    ("equilibria", scale_classified_roots, {"classified_spectrum_matches_pencil"}),
    ("equilibria", scale_classified_alpha, {"classified_spectrum_matches_pencil"}),
    ("equilibria", halve_sublevel_bound, {"origin_sublevel_bound"}),
    ("equilibria", flip_c_in_matrix_H, {"leaf_linearization_is_jacobian"}),
    ("invariant_sets", chart_z_minus_w, {"rank2_multiplier_identity", "rank2_field_is_rotation",
                                         "invariant_I_factorizes", "rank2_on_pieces"}),
    ("equilibria", shift_ring_embedding, {"equilibrium_families_fixed"}),
    ("integrate", add_h5_to_dp_fifth_order, {"dp_local_order"}),
    ("integrate", damp_dz, {"time_reversal"}),
    ("core", z_in_J02, {"jacobi_identity_sampled", "casimir_in_kernel"}),
    ("core", skew_J10, {"antisymmetry_exact", "casimir_in_kernel"}),
    ("core", flip_core_grad_I_entry, {"bracket_H_I_zero", "invariants_along_flow"}),
    ("core", add_quartic_in_x1_to_dx1, {"hamiltonian_poisson_form", "invariants_along_flow"}),
    ("solutions", scale_homoclinic_energy, {"homoclinic_level_set"}),
    ("invariant_sets", predict_one_more_puncture, {"pieces_not_invariant"}),
    ("solutions", halve_pulse_rate, {"homoclinic_biasymptotic"}),
    ("solutions", shift_punctures_quarter_spacing, {"punctures_leave_chart"}),
    ("solutions", scale_periodic_z, {"periodic_linear_relations"}),
    ("solutions", scale_dy1, {"radial_cubic_identity", "homoclinic_solves_system"}),
    ("solutions", three_c_squared_in_radial_cubic, {"radial_cubic_identity"}),
    ("solutions", turn_homoclinic, {"homoclinic_theta_frozen"}),
    ("invariant_sets", reverse_field, {"rank2_field_is_rotation"}),
    ("integrate", damp_dz_in_rk4_builtin, {"rk4_conserved_drift"}),
    ("integrate", damp_dz_in_dp_builtin, {"time_reversal"}),
    ("integrate", flip_x2_in_dp_builtin_stage_2, {"dp_local_order"}),
    ("integrate", grow_rk45_step_on_error, {"rk45_step_count"}),
    ("invariant_sets", one_jacobi_sweep, {"singular_values_match_svd"}),
    ("invariant_sets", defect_reads_half_w, {"union_is_invariant"}),
])
def test_broken_formula_fails_named_checks(monkeypatch, suite, break_formula, names):
    def run():
        report = dict(verify.SUITES[suite](random.Random(0), verify.QUICK))
        return {name: report[name] for name in names}

    assert all(run().values())
    break_formula(monkeypatch)
    assert not any(run().values())


def test_rank3_generic_fails_when_no_point_survives_the_skips(monkeypatch):
    # grad I = 0 drops the Jacobian's rank everywhere, so every draw is
    # skipped as near a rank-degenerate locus
    assert verify.rank3_generic(random.Random(0), 50)
    _no_grad_I(monkeypatch)
    assert verify.rank3_generic(random.Random(0), 50) is False
