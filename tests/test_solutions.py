import math

import numpy as np
import pytest

from mbloch import solutions
from mbloch.verify import homoclinic_solves_system
from mbloch.core import DomainError, conserved, vector_field
from mbloch.solutions import (HomoclinicParams, PeriodicParams, PolarState,
                              homoclinic, homoclinic_derivative, m1_solution,
                              periodic_derivative, periodic_solution,
                              polar_to_state, puncture_times,
                              reduced_polar_field, second_order_profile,
                              state_to_polar)


class TestPolarChart:
    def test_forward_map(self):
        q = PolarState(r1=2.0, theta=0.0, y1=0.0, y2=0.0, c=1.0)
        assert np.array_equal(polar_to_state(q), [2, 0, 0, 0, -1])

    def test_forward_map_quarter_turn(self):
        q = PolarState(r1=1.0, theta=math.pi / 2, y1=1.0, y2=1.0, c=0.0)
        assert np.allclose(polar_to_state(q), [0, 1, 1, 1, -0.5], atol=1e-15)

    def test_round_trip(self):
        q = PolarState(r1=1.0, theta=math.pi / 3, y1=0.5, y2=-0.5, c=2.0)
        p = polar_to_state(q)
        back = state_to_polar(p, 2.0)
        for a, b in zip((back.r1, back.theta, back.y1, back.y2, back.c),
                        (q.r1, q.theta, q.y1, q.y2, q.c)):
            assert a == pytest.approx(b, abs=1e-15)

    def test_axis_excluded(self):
        with pytest.raises(DomainError):
            polar_to_state(PolarState(r1=0.0, theta=0.0, y1=0, y2=0, c=1.0))
        with pytest.raises(DomainError):
            state_to_polar([0, 1, 0, 1, 1], 1.0)

    def test_off_leaf_rejected(self):
        with pytest.raises(DomainError):
            state_to_polar([1, 0, 0, 0, 0], 3.0)


class TestReducedPolarField:
    def test_planar_slice(self):
        q = PolarState(r1=1.5, theta=0.0, y1=0.7, y2=0.0, c=1.0)
        dr, dth, dy1, dy2 = reduced_polar_field(q)
        assert (dr, dth) == (0.7, 0.0)
        assert dy1 == pytest.approx(1.5 * (1.0 - 0.5 * 1.5 ** 2))
        assert dy2 == 0.0

    def test_pushforward_through_chart(self):
        q = PolarState(r1=1.0, theta=math.pi / 4, y1=1.0, y2=1.0, c=1.0)
        dr, dth, dy1, dy2 = reduced_polar_field(q)
        ct, st = math.cos(q.theta), math.sin(q.theta)
        pushed = np.array([dr * ct - q.r1 * st * dth,
                           dy1,
                           dr * st + q.r1 * ct * dth,
                           dy2,
                           -q.r1 * dr])
        full = vector_field(polar_to_state(q))
        assert np.abs(pushed - full).max() < 1e-13

    def test_theta_frozen_on_zero_invariant_level(self):
        # y1 sin(theta) = y2 cos(theta) makes the angular velocity vanish
        theta = 0.3
        q = PolarState(r1=1.2, theta=theta, y1=2.0 * math.cos(theta),
                       y2=2.0 * math.sin(theta), c=0.5)
        _, dth, _, _ = reduced_polar_field(q)
        assert abs(dth) < 1e-15

    def test_singular_axis(self):
        with pytest.raises(DomainError):
            reduced_polar_field(PolarState(r1=0.0, theta=0, y1=1, y2=0, c=1))


class TestHomoclinic:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            HomoclinicParams(c=-1.0)
        with pytest.raises(ValueError):
            HomoclinicParams(c=1.0, sign=2)

    def test_anchor_point(self):
        par = HomoclinicParams(c=1.0, theta0=0.0, sign=1)
        assert np.array_equal(homoclinic(par, 0.0), [2, 0, 0, 0, -1])

    def test_biasymptotic_to_leaf_equilibrium(self):
        par = HomoclinicParams(c=1.0)
        e = np.array([0, 0, 0, 0, 1.0])
        for t in (20.0, -20.0):
            assert np.linalg.norm(homoclinic(par, t) - e) < 1e-7

    def test_conserved_pinned_on_orbit(self):
        par = HomoclinicParams(c=2.0, theta0=math.pi / 3, sign=1)
        for t in (-1.0, 0.0, 2.0):
            h, i, c = conserved(homoclinic(par, t))
            assert abs(h - 2.0) < 1e-13
            assert abs(i) < 1e-13
            assert abs(c - 2.0) < 1e-13

    def test_derivative_matches_field(self):
        params = [HomoclinicParams(c=c, theta0=0.7, sign=sign)
                  for c in (0.5, 1.0, 2.0) for sign in (1, -1)]
        assert homoclinic_solves_system(params, np.linspace(-10, 10, 1000))

    def test_derivative_anchor_values(self):
        par = HomoclinicParams(c=1.0, theta0=0.0, sign=1)
        d0 = homoclinic_derivative(par, 0.0)
        assert d0[0] == 0.0  # dx1/dt = y1(0) = 0
        assert d0[4] == 0.0  # dz/dt vanishes at the symmetric point
        assert d0[1] == pytest.approx(-2.0)  # dy1/dt = x1 z = 2 * (-1)


class TestSecondOrderProfile:
    def test_peak_value(self):
        r1, r1_dot = second_order_profile(1.0, 0.0)
        assert (r1, r1_dot) == (2.0, 0.0)

    def test_second_order_equation_residual(self):
        for c in (0.5, 1.0, 2.0):
            rc = math.sqrt(c)
            for t in (-1.3, 0.7, 2.1):
                r1, _ = second_order_profile(c, t)
                sech = 1.0 / math.cosh(rc * t)
                tanh = math.tanh(rc * t)
                r1_ddot = -2.0 * c * rc * (sech ** 3 - sech * tanh ** 2)
                assert abs(r1_ddot - r1 * (c - 0.5 * r1 ** 2)) < 1e-13

    def test_rescaled_profile_is_normalized_pulse(self):
        # r1 = 2 sqrt(c) u(sqrt(c) t) with u'' = u - 2u^3, u = sech
        c = 2.0
        rc = math.sqrt(c)
        h = 1e-4
        for tt in (-1.0, 0.4, 2.0):
            u = lambda s: second_order_profile(c, s / rc)[0] / (2 * rc)
            u_ddot = (u(tt + h) - 2 * u(tt) + u(tt - h)) / h ** 2
            assert abs(u_ddot - (u(tt) - 2 * u(tt) ** 3)) < 1e-6

    def test_rejects_nonpositive_c(self):
        with pytest.raises(DomainError):
            second_order_profile(0.0, 1.0)


class TestPeriodic:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            PeriodicParams(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            PeriodicParams(1.0, 0.0, 1.0)

    def test_initial_point(self):
        par = PeriodicParams(x1_0=0.5, y1_0=1.5, x2_0=-0.75)
        w = par.omega
        assert np.allclose(periodic_solution(par, 0.0),
                           [0.5, 1.5, -0.75, -w * 0.5, -w * w],
                           rtol=0, atol=1e-15)

    def test_period_return(self):
        par = PeriodicParams(1.0, 1.0, 1.0)
        gap = np.abs(periodic_solution(par, par.period)
                     - periodic_solution(par, 0.0)).max()
        assert gap < 1e-13

    def test_residual_against_field(self):
        par = PeriodicParams(1.0, 1.0, 1.0)
        ts = np.linspace(0, 2 * math.pi, 500)
        deriv = periodic_derivative(par, ts)
        field = np.array([vector_field(s) for s in periodic_solution(par, ts)])
        assert np.abs(deriv - field).max() < 1e-13

    def test_linear_relations_and_constant_z(self):
        par = PeriodicParams(-0.8, 0.6, 1.7)
        w = par.omega
        ts = np.linspace(0, par.period, 300)
        orbit = periodic_solution(par, ts)
        assert np.abs(orbit[:, 1] - w * orbit[:, 2]).max() < 1e-13
        assert np.abs(orbit[:, 3] + w * orbit[:, 0]).max() < 1e-13
        assert np.abs(orbit[:, 4] + w * w).max() == 0.0

    def test_m1_solution_shares_formulas(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            par = PeriodicParams(rng.uniform(-2, 2),
                                 rng.uniform(0.1, 2), rng.uniform(0.1, 2))
            t = rng.uniform(-10, 10)
            assert np.array_equal(m1_solution(par, t),
                                  periodic_solution(par, t)[[0, 1, 2]])

    def test_m1_conserved_quantities_constant(self):
        par = PeriodicParams(1.0, -1.3, 0.7)
        f1_0 = par.x1_0 ** 2 + par.x2_0 ** 2
        f2_0 = par.y1_0 / par.x2_0
        ts = np.linspace(0, par.period, 400)
        pts = m1_solution(par, ts)
        f1 = pts[:, 0] ** 2 + pts[:, 2] ** 2
        assert np.abs(f1 - f1_0).max() < 1e-13 * (1 + f1_0)
        keep = np.abs(pts[:, 2]) > 0.1
        f2 = pts[keep, 1] / pts[keep, 2]
        assert np.abs(f2 - f2_0).max() < 1e-12 * (1 + abs(f2_0))


class TestPunctures:
    def test_quarter_phase_schedule(self):
        sched = puncture_times(PeriodicParams(0.0, 1.0, 1.0))
        assert sched.vartheta == pytest.approx(math.pi / 2)
        for k in range(4):
            assert sched.t_k(k) == pytest.approx(math.pi / 2 + k * math.pi)
            # x2(t) = cos t indeed vanishes there
            assert abs(periodic_solution(PeriodicParams(0.0, 1.0, 1.0),
                                         sched.t_k(k))[2]) < 1e-12

    def test_phase_identities(self):
        par = PeriodicParams(1.3, 0.9, -0.4)
        sched = puncture_times(par)
        r = math.hypot(par.x1_0, par.x2_0)
        assert 0.0 <= sched.vartheta < 2 * math.pi
        assert math.sin(sched.vartheta) == pytest.approx(par.x2_0 / r, abs=1e-14)
        assert math.cos(sched.vartheta) == pytest.approx(par.x1_0 / r, abs=1e-14)

    @pytest.mark.parametrize("x2_sign,y1_sign", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_count_matches_sign_changes_in_every_quadrant(self, x2_sign, y1_sign):
        for x1 in (0.3, -0.9):
            par = PeriodicParams(x1, y1_sign * 1.2, x2_sign * 0.7)
            grid = np.linspace(0.0, 20.0, 200001)
            x2 = periodic_solution(par, grid)[:, 2]
            changes = int(np.sum(np.sign(x2[1:]) * np.sign(x2[:-1]) < 0))
            sched = puncture_times(par)
            assert sched.count_in(20.0) == changes
            assert 0.0 < sched.t_k(0) < sched.t_k(1)
            assert abs(periodic_solution(par, sched.t_k(0))[2]) < 1e-12

    def test_x2_zero_excluded(self):
        with pytest.raises(ValueError):
            PeriodicParams(1.0, 1.0, 0.0)

    def test_puncture_point_lies_in_m2(self):
        par = PeriodicParams(0.6, 1.1, -0.8)
        sched = puncture_times(par)
        w = par.omega
        for k in (0, 1, 2):
            p = periodic_solution(par, sched.t_k(k))
            assert abs(p[1]) < 1e-12  # y1 = 0
            assert abs(p[2]) < 1e-12  # x2 = 0
            assert abs(p[0]) > 1e-6  # x1 != 0 since x1^2 + x2^2 is conserved
            assert abs(p[4] * p[0] ** 2 + p[3] ** 2) < 1e-12  # z = -y2^2/x1^2
