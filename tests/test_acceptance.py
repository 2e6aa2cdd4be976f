"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
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
                                         (-1.5, 0.0, 0.5, 1.0, 2.0))


def test_criterion_3_linearization_matrices():
    with Criterion(3, "leaf linearization matrices and eigenvalues", 1.0):
        for c in (0.25, 1.0, 4.0, -1.0):
            lin = equilibria.leaf_linearization(c)
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
        cert = equilibria.origin_stability_certificate()
        assert cert.unique_solution
        assert verify.origin_sublevel_bound(tuple(cert.norm_bound_by_eps))


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
        params = verify.random_periodic_params(random.Random(2024), 20)
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
        rng = random.Random(31)
        assert verify.rank3_generic(rng, 1000)
        # chart points of both graph pieces, M1 (x2 != 0) and M2 (x2 = 0)
        points = [invariant_sets.RankTwoPoint(
            rng.choice([-1, 1]) * rng.uniform(0.05, 2), x2, rng.uniform(-3, 3))
            for x2 in [rng.uniform(-2, 2) for _ in range(200)] + [0.0] * 200]
        assert verify.rank2_on_pieces(points)

        q0 = invariant_sets.RankTwoPoint(0.0, 1.0, 1.0)
        probe = invariant_sets.invariance_probe(q0, 20.0)
        assert verify.union_is_invariant(probe)
        assert verify.pieces_not_invariant(probe)
        assert probe.puncture_count == 6

        # exact on the chart: the rank drop, the field as the rotation at
        # rate w (s and w conserved) and the levels I = w s, 2H, 2C
        grid = verify.chart_grid()
        assert verify.rank2_multiplier_identity(grid)
        assert verify.rank2_field_is_rotation(grid)
        assert verify.invariant_I_factorizes(grid)


def test_criterion_10_structure_suite():
    with Criterion(10, "Poisson structure identities, exact on a grid and a lattice sample", 1.0):
        points = verify.structure_points(random.Random(7))
        for check in verify.STRUCTURE_CHECKS:
            assert check(points), check.__name__


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
