import math

import numpy as np
import pytest

from mbloch import solutions, verify
from mbloch.core import DomainError, conserved, vector_field
from mbloch.integrate import (DriftReport, IntegrationStalledError,
                              IntegratorConfig, StateOverflowError, Trajectory,
                              drift_report, integrate, rk4_step)


class TestConfigValidation:
    def test_rejects_bad_method(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")

    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(abs_tol=0.0)

    def test_rejects_inconsistent_step_bounds(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt_initial=1e-13, dt_min=1e-12)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            IntegratorConfig(sample_stride=0)


class TestRk4Step:
    def test_axis_equilibrium_fixed(self):
        for h in (1e-3, 0.1, -0.5):
            assert np.array_equal(rk4_step([0, 0, 0, 0, 3], h), [0, 0, 0, 0, 3])

    def test_ring_equilibrium_fixed(self):
        assert np.array_equal(rk4_step([1, 0, 1, 0, 0], 0.1), [1, 0, 1, 0, 0])

    def test_zero_step_rejected(self):
        with pytest.raises(DomainError):
            rk4_step([1, 0, 0, 0, 0], 0.0)

    def test_against_richardson_reference(self):
        # oracle: two half-steps plus Richardson extrapolation is one
        # order more accurate than the step under test
        p = np.array([1.0, 1.0, 0.0, 0.0, 1.0])
        h = 1e-3
        full = rk4_step(p, h)
        half = rk4_step(rk4_step(p, h / 2), h / 2)
        reference = half + (half - full) / 15.0
        assert np.abs(full - reference).max() <= 1e-14
        assert abs(conserved(full).H - conserved(p).H) <= 1e-15


class TestIntegrate:
    def test_equilibrium_stays_fixed(self):
        p0 = [0, 0, 0, 0, -1]
        for method in ("rk4", "rk45"):
            traj = integrate(p0, IntegratorConfig(method=method, t_end=10.0,
                                                  dt=0.01))
            assert np.array_equal(traj.states, np.tile(p0, (len(traj), 1)))

    def test_periodic_orbit_closes(self):
        par = solutions.PeriodicParams(1.0, 1.0, 1.0)
        p0 = solutions.periodic_solution(par, 0.0)
        cfg = IntegratorConfig(method="rk45", t_end=2 * math.pi,
                               abs_tol=1e-10, rel_tol=1e-10, sample_stride=10 ** 9)
        end = integrate(p0, cfg).states[-1]
        assert np.linalg.norm(end - p0) < 1e-8

    def test_tracks_homoclinic_closed_form(self):
        par = solutions.HomoclinicParams(c=1.0)
        cfg = IntegratorConfig(method="rk45", t_end=3.0,
                               abs_tol=1e-10, rel_tol=1e-10)
        traj = integrate([2, 0, 0, 0, -1], cfg)
        exact = solutions.homoclinic(par, traj.times)
        assert np.abs(traj.states - exact).max() <= 1e-5

    def test_trajectory_contract(self):
        traj = integrate([1, 1, 0, 0, 1], IntegratorConfig(
            method="rk4", t_end=1.0, dt=0.01, sample_stride=7))
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)
        assert np.all(np.diff(traj.times) > 0)
        assert np.isfinite(traj.states).all()
        # each sample carries its conserved triple
        for s, c in zip(traj.states, traj.conserved):
            assert np.allclose(c, conserved(s), rtol=0, atol=0)

    def test_overflow_carries_time(self):
        blow_up = lambda p: p ** 3
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(StateOverflowError) as info:
            integrate(np.full(5, 5.0), IntegratorConfig(
                method="rk4", t_end=10.0, dt=0.1), field=blow_up)
        assert info.value.time > 0

    def test_overflow_reports_time_reached_and_partial_trajectory(self):
        # constant unit field until x1 reaches 2.5: steps 1 and 2 stay
        # finite, the second stage of step 3 returns inf
        def field(p):
            return np.full(5, 1.0 if p[0] < 2.5 else np.inf)

        with pytest.raises(StateOverflowError) as info:
            integrate(np.zeros(5), IntegratorConfig(method="rk4", t_end=10.0,
                                                    dt=1.0), field=field)
        assert info.value.time == 3.0
        partial = info.value.trajectory
        assert np.array_equal(partial.times, [0.0, 1.0, 2.0])
        assert np.array_equal(partial.states[:, 0], [0.0, 1.0, 2.0])

    def test_start_triple_overflow_is_domain_error(self):
        # the state is finite but H = z^2/2 is not
        for method in ("rk4", "rk45"):
            with pytest.raises(DomainError):
                integrate([0, 0, 0, 0, 1e160], IntegratorConfig(method=method))

    def test_triple_overflow_stops_at_its_sample(self):
        # z = 1e154 t: H is finite at t = 1 and overflows at t = 2
        field = lambda p: np.array([0.0, 0.0, 0.0, 0.0, 1e154])
        with pytest.raises(StateOverflowError) as info:
            integrate(np.zeros(5), IntegratorConfig(method="rk4", t_end=5.0, dt=1.0),
                      field=field)
        assert info.value.time == 2.0
        partial = info.value.trajectory
        assert np.array_equal(partial.times, [0.0, 1.0])
        assert np.isfinite(partial.conserved).all()

    def test_custom_field_takes_the_same_kernels(self):
        p0 = [1, 1, 0.5, -0.5, 0.2]
        for cfg in (IntegratorConfig(method="rk4", t_end=2.0, dt=0.01),
                    IntegratorConfig(method="rk45", t_end=2.0, abs_tol=1e-10,
                                     rel_tol=1e-10)):
            plain = integrate(p0, cfg)
            custom = integrate(p0, cfg, field=vector_field)
            assert np.array_equal(plain.times, custom.times)
            assert np.array_equal(plain.states, custom.states)
        assert np.array_equal(rk4_step(p0, 0.1), rk4_step(p0, 0.1, field=vector_field))

    def test_stall_returns_partial_trajectory(self):
        jitter = lambda p: np.full(5, 100.0 + 100.0 * math.sin(1e8 * p[0]))
        cfg = IntegratorConfig(method="rk45", t_end=1.0, abs_tol=1e-12,
                               rel_tol=1e-12, dt_initial=1e-3, dt_min=1e-3)
        with pytest.raises(IntegrationStalledError) as info:
            integrate([0.1, 0, 0, 0, 0], cfg, field=jitter)
        partial = info.value.trajectory
        assert isinstance(partial, Trajectory)
        assert np.isfinite(partial.states).all()

    def test_time_reversal(self):
        assert verify.time_reversal()

    def test_rk4_order_factor(self):
        assert verify.rk4_order_factor()


class TestDriftReport:
    def test_equilibrium_trajectory_zero_drift(self):
        traj = integrate([0, 0, 0, 0, -1], IntegratorConfig(method="rk4",
                                                            t_end=10.0, dt=0.01))
        assert drift_report(traj) == DriftReport(0.0, 0.0, 0.0)

    def test_single_sample(self):
        c = conserved([1, 2, 3, 4, 5])
        traj = Trajectory(np.array([0.0]), np.array([[1, 2, 3, 4, 5.0]]),
                          np.array([list(c)]))
        assert drift_report(traj) == DriftReport(0.0, 0.0, 0.0)

    def test_empty_trajectory_rejected(self):
        traj = Trajectory(np.empty(0), np.empty((0, 5)), np.empty((0, 3)))
        with pytest.raises(DomainError):
            drift_report(traj)

    def test_long_run_drift_small(self):
        assert verify.rk4_conserved_drift(verify.rk4_runs([[1, 1, 0.5, -0.5, 0.2]], 100.0))
