"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

from mbloch import equilibria, invariant_sets, solutions, verify
from mbloch.integrate import IntegratorConfig, integrate


class Criterion:
    """Context manager: times the body and prints one PASS/FAIL line."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.label} "
              f"({elapsed:.2f}s / budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"criterion {self.number} exceeded its runtime budget"
        return False


def test_criterion_1_leaf_classification():
    with Criterion(1, "leaf equilibria classified focus-focus / center-center", 1.0):
        assert verify.discriminant_and_type_signs((0.25, 1.0, 4.0, -0.25, -1.0, -4.0))
        for c in (0.25, 1.0, 4.0):
            res = equilibria.cartan_classify([0, 0, 0, 0, c], c)
            assert res.stable == equilibria.UNSTABLE
            want = -16.0 * c * res.alpha ** 2
            assert abs(res.discriminant - want) <= 1e-12 * abs(want)
        for c in (-0.25, -1.0, -4.0):
            res = equilibria.cartan_classify([0, 0, 0, 0, c], c)
            assert res.stable == equilibria.STABLE


def test_criterion_2_pencil_polynomial():
    with Criterion(2, "pencil characteristic polynomial closed form", 1.0):
        assert verify.pencil_closed_form((-4.0, -1.0, -0.25, 0.25, 1.0, 4.0),
                                         (0.1, 0.5, 1.0, 2.0))


def test_criterion_3_linearization_matrices():
    with Criterion(3, "leaf linearization matrices and eigenvalues", 1.0):
        for c in (0.25, 1.0, 4.0, -1.0):
            lin = equilibria.leaf_linearization([0, 0, 0, 0, c], c)
            expected_h = np.array([[0, 1, 0, 0], [c, 0, 0, 0],
                                   [0, 0, 0, 1], [0, 0, c, 0]], dtype=float)
            expected_i = np.array([[0, 0, 1, 0], [0, 0, 0, 1],
                                   [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
            assert np.array_equal(lin.matrix_H, expected_h)
            assert np.array_equal(lin.matrix_I, expected_i)
            eig_i = np.sort_complex(np.linalg.eigvals(lin.matrix_I))
            assert np.abs(eig_i - np.array([-1j, -1j, 1j, 1j])).max() < 1e-10
            if c > 0:
                rc = math.sqrt(c)
                eig_h = np.sort(np.real(np.linalg.eigvals(lin.matrix_H)))
                assert np.abs(eig_h - [-rc, -rc, rc, rc]).max() < 1e-10


def test_criterion_4_degenerate_origin():
    with Criterion(4, "origin is degenerate yet stable (algebraic certificate)", 30.0):
        res = equilibria.cartan_classify([0, 0, 0, 0, 0], 0.0)
        assert res.kind == equilibria.DEGENERATE
        assert verify.pencil_closed_form((0.0,), (0.25, 0.5, 1.0, 2.0))
        cert = equilibria.origin_stability_certificate(
            2.0, 21, eps_values=(1e-2, 1e-4, 1e-6))
        assert cert.unique_solution


def test_criterion_5_homoclinic_identity():
    with Criterion(5, "closed-form homoclinics solve the system exactly", 5.0):
        ts = np.linspace(-10, 10, 1000)
        params = verify.HOMOCLINIC_PARAMS
        assert verify.homoclinic_solves_system(params, ts)
        assert verify.homoclinic_level_set(params, ts)
        for par in params:
            e_c = np.array([0, 0, 0, 0, par.c])
            far = 20.0 / math.sqrt(par.c)
            for t_far in (far, -far):
                assert np.linalg.norm(solutions.homoclinic(par, t_far) - e_c) < 1e-6


def test_criterion_6_numerical_homoclinic_tracking():
    with Criterion(6, "adaptive integration tracks the homoclinic", 5.0):
        par = solutions.HomoclinicParams(c=1.0, theta0=0.0, sign=1)
        p0 = solutions.homoclinic(par, -3.0)
        cfg = IntegratorConfig(method="rk45", t_end=6.0,
                               abs_tol=1e-10, rel_tol=1e-10)
        traj = integrate(p0, cfg)
        exact = solutions.homoclinic(par, traj.times - 3.0)
        assert np.abs(traj.states - exact).max() <= 1e-5


def test_criterion_7_periodic_family():
    with Criterion(7, "explicit periodic family: residuals and loop closure", 10.0):
        params = verify.random_periodic_params(np.random.default_rng(2024), 20)
        assert verify.periodic_solves_system(params, 1000)
        for par in params:
            p0 = solutions.periodic_solution(par, 0.0)
            pT = solutions.periodic_solution(par, par.period)
            assert np.abs(pT - p0).max() < 1e-12
            cfg = IntegratorConfig(method="rk45", t_end=par.period,
                                   abs_tol=1e-10, rel_tol=1e-10,
                                   sample_stride=10 ** 9)
            end = integrate(p0, cfg).states[-1]
            assert np.linalg.norm(end - p0) < 1e-8


def test_criterion_8_conservation_drift():
    with Criterion(8, "fixed-step conservation drift and order factor", 60.0):
        rng = np.random.default_rng(99)
        starts = []
        for _ in range(20):
            p0 = rng.uniform(-1, 1, size=5)
            starts.append(p0 * (rng.uniform(0.2, 2.0) / np.linalg.norm(p0)))
        assert verify.rk4_conserved_drift(verify.rk4_runs(starts, 100.0))
        assert verify.rk4_order_factor()


def test_criterion_9_invariant_set_suite():
    with Criterion(9, "rank dichotomy and invariance of the rank-2 set", 30.0):
        rng = np.random.default_rng(31)
        assert verify.rank3_generic(rng, 1000)
        m1_points, m2_points = [], []
        for _ in range(200):
            m1_points.append(invariant_sets.M1Point(
                rng.uniform(-2, 2), rng.uniform(-2, 2),
                rng.choice([-1, 1]) * rng.uniform(0.05, 2)))
            m2_points.append(invariant_sets.M2Point(
                rng.choice([-1, 1]) * rng.uniform(0.05, 2), rng.uniform(-2, 2)))
        assert verify.rank2_on_pieces(m1_points, m2_points)

        q0 = invariant_sets.M1Point(0.0, 1.0, 1.0)
        probe = invariant_sets.invariance_probe(q0, 20.0)
        assert verify.union_is_invariant(probe)
        assert verify.pieces_not_invariant(probe, q0, 20.0)
        assert probe.puncture_count == 6

        assert verify.m1_conserved_pair(verify.random_periodic_params(rng, 10), 500)


def test_criterion_10_structure_suite():
    with Criterion(10, "Poisson structure identities at seeded random points", 1.0):
        points = np.random.default_rng(7).uniform(-2, 2, size=(100, 5))
        assert verify.antisymmetry_exact(points)
        assert verify.casimir_in_kernel(points)
        assert verify.hamiltonian_poisson_form(points)
        assert verify.bracket_H_I_zero(points)
        assert verify.jacobi_identity_sampled(points, [verify.NAMED_QUADRATICS])


def test_criterion_11_instability_witness():
    with Criterion(11, "dynamic instability above, confinement below", 10.0):
        delta = np.array([1e-6, 0, 0, 0, 0])

        e_plus = np.array([0, 0, 0, 0, 1.0])
        traj = integrate(e_plus + delta, IntegratorConfig(
            method="rk45", t_end=25.0, abs_tol=1e-10, rel_tol=1e-10,
            dt_max=0.1))
        dist = np.linalg.norm(traj.states - e_plus, axis=1)
        escaped = traj.times[dist > 0.1]
        assert escaped.size > 0 and escaped[0] < 25.0

        e_minus = np.array([0, 0, 0, 0, -1.0])
        traj = integrate(e_minus + delta, IntegratorConfig(
            method="rk45", t_end=100.0, abs_tol=1e-10, rel_tol=1e-10,
            dt_max=0.1))
        dist = np.linalg.norm(traj.states - e_minus, axis=1)
        assert dist.max() < 1e-4
