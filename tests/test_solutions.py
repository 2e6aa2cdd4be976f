import math

import numpy as np
import pytest

from mbloch.verify import homoclinic_solves_system
from mbloch.core import DomainError, conserved, vector_field
from mbloch.solutions import (HomoclinicParams, PeriodicParams, homoclinic,
                              homoclinic_derivative, periodic_derivative,
                              periodic_solution, puncture_times, radial_cubic)


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


def homoclinic_radius(c, t):
    """r1 = |(x1, x2)| along the homoclinic on the leaf C = c."""
    x1, _, x2, _, _ = homoclinic(HomoclinicParams(c=c, theta0=0.4), t)
    return math.hypot(x1, x2)


class TestSecondOrderProfile:
    # the homoclinic's radius is the pulse 2 sqrt(c) sech(sqrt(c) t), which
    # solves the radial equation r1'' = r1 (c - r1^2 / 2)
    def test_peak_value(self):
        x1, y1, x2, y2, _ = homoclinic(HomoclinicParams(c=1.0), 0.0)
        assert (math.hypot(x1, x2), x1 * y1 + x2 * y2) == (2.0, 0.0)

    def test_second_order_equation_residual(self):
        for c in (0.5, 1.0, 2.0):
            rc = math.sqrt(c)
            for t in (-1.3, 0.7, 2.1):
                r1 = homoclinic_radius(c, t)
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
            u = lambda s: homoclinic_radius(c, s / rc) / (2 * rc)
            u_ddot = (u(tt + h) - 2 * u(tt) + u(tt - h)) / h ** 2
            assert abs(u_ddot - (u(tt) - 2 * u(tt) ** 3)) < 1e-6

    def test_rejects_nonpositive_c(self):
        with pytest.raises(DomainError):
            HomoclinicParams(c=0.0)

    def test_radial_cubic_at_homoclinic_level(self):
        # at (H, I, C) = (c^2/2, 0, c), P(s) = s^2 (4c - s): the double root
        # s = 0 is the leaf equilibrium the pulse leaves and returns to;
        # exact on dyadic s and c
        s, c = np.meshgrid(np.arange(-8, 33) / 4, np.arange(-8, 17) / 4)
        assert np.array_equal(radial_cubic(s, c * c / 2, 0.0, c), s * s * (4 * c - s))


class TestPeriodic:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            PeriodicParams(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            PeriodicParams(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            PeriodicParams(1e200, 1.0, 1.0)  # x1_0^2 overflows
        with pytest.raises(ValueError):
            PeriodicParams(1.0, 1e-320, 1.0)  # the period overflows

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

    def test_m1_conserved_quantities_constant(self):
        par = PeriodicParams(1.0, -1.3, 0.7)
        f1_0 = par.x1_0 ** 2 + par.x2_0 ** 2
        f2_0 = par.y1_0 / par.x2_0
        ts = np.linspace(0, par.period, 400)
        pts = periodic_solution(par, ts)[..., [0, 1, 2]]  # (x1, y1, x2) on M1
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
