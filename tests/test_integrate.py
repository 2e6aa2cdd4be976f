import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from mbloch import integrate as integration
from mbloch import solutions, verify
from mbloch.core import DomainError, conserved, field_components, vector_field
from mbloch.integrate import (DT_INITIAL, MAX_SAMPLES, MAX_STEPS, DriftReport,
                              IntegrationStalledError, IntegratorConfig,
                              StateOverflowError, Trajectory, _dp_raw,
                              drift_report, integrate, rk4_step)

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, II.5);
# the last row of DP_A is the fifth-order solution, where the seventh stage
# is taken
DP_A = [
    [],
    [F(1, 5)],
    [F(3, 40), F(9, 40)],
    [F(44, 45), F(-56, 15), F(32, 9)],
    [F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)],
    [F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)],
    [F(35, 384), 0, F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)],
]
DP_B5 = DP_A[-1] + [0]
DP_B4 = [F(5179, 57600), 0, F(7571, 16695), F(393, 640), F(-92097, 339200),
         F(187, 2100), F(1, 40)]


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
        # dt_max below the fixed first adaptive step
        with pytest.raises(DomainError):
            IntegratorConfig(dt_max=DT_INITIAL / 2)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            IntegratorConfig(sample_stride=0)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_horizon(self, t_end):
        with pytest.raises(DomainError):
            IntegratorConfig(t_end=t_end)

    def test_rk4_step_cap(self):
        # a stride that keeps the 10^8 steps under the sample cap
        IntegratorConfig(method="rk4", t_end=1.0, dt=1.0 / MAX_STEPS, sample_stride=1000)
        for t_end, dt in ((1.0, 1e-9), (1e10, 1e-320)):  # 1e9 and inf steps
            with pytest.raises(DomainError):
                IntegratorConfig(method="rk4", t_end=t_end, dt=dt)
        IntegratorConfig(method="rk45", t_end=1.0, dt=1e-9)  # rk45 ignores dt
        # rk45 is capped by t_end / dt_max
        IntegratorConfig(method="rk45", t_end=MAX_STEPS * 0.5, dt_max=0.5)
        with pytest.raises(DomainError):
            IntegratorConfig(method="rk45", t_end=1e300)


    def test_rk4_sample_cap(self):
        # 10^6 steps record 10^6 + 1 samples at stride 1, one over the cap
        with pytest.raises(DomainError, match="samples"):
            IntegratorConfig(method="rk4", t_end=1.0, dt=1e-6)
        IntegratorConfig(method="rk4", t_end=1.0, dt=1e-6, sample_stride=2)
        IntegratorConfig(method="rk4", t_end=MAX_SAMPLES - 1.0, dt=1.0)


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


def dp_by_table(p, h):
    """One Dormand-Prince step read off the table: each row summed left to
    right in an explicit loop (not ``sum``, whose float summation order is
    not fixed across Python versions)."""
    def advance(row, ks):
        out = []
        for i, y in enumerate(p):
            acc = 0.0
            for a, k in zip(row, ks):
                acc += float(a) * k[i]
            out.append(y + h * acc)
        return out

    ks = [field_components(*p)]
    for row in DP_A[1:]:
        ks.append(field_components(*advance(row, ks)))
    return tuple(advance(DP_B5, ks)), tuple(advance(DP_B4, ks))


class TestDormandPrinceStep:
    def test_unrolled_kernel_is_the_table(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = tuple((rng.normal(size=5) * 10 ** rng.uniform(-2, 2, size=5)).tolist())
            h = float(rng.choice([-1, 1]) * 10 ** rng.uniform(-4, 0))
            assert _dp_raw(*p, h, field_components) == dp_by_table(p, h)

    def test_local_order(self):
        assert verify.dp_local_order()


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
        # the field oscillates on a scale below the 1e-12 step floor
        jitter = lambda p: np.full(5, 100.0 + 100.0 * math.sin(1e12 * p[0]))
        cfg = IntegratorConfig(method="rk45", t_end=1.0, abs_tol=1e-12,
                               rel_tol=1e-12)
        start = time.perf_counter()
        with pytest.raises(IntegrationStalledError) as info:
            integrate([0.1, 0, 0, 0, 0], cfg, field=jitter)
        assert time.perf_counter() - start < 5.0
        partial = info.value.trajectory
        assert isinstance(partial, Trajectory)
        assert np.isfinite(partial.states).all()
        assert partial.times[0] == 0.0 and partial.times[-1] == info.value.time

    def test_rk45_sample_cap_stalls_with_partial_trajectory(self, monkeypatch):
        p0, cfg = [1, 1, 0.5, -0.5, 0.2], IntegratorConfig(method="rk45", t_end=10.0)
        full = integrate(p0, cfg)
        monkeypatch.setattr(integration, "MAX_SAMPLES", 50)
        with pytest.raises(IntegrationStalledError, match="MAX_SAMPLES = 50") as info:
            integrate(p0, cfg)
        partial = info.value.trajectory
        assert np.array_equal(partial.states, full.states[:50])
        assert info.value.time == full.times[50]

    def test_rk45_step_cap_stalls(self, monkeypatch):
        # the cap counts attempted steps, rejected ones included
        monkeypatch.setattr(integration, "MAX_STEPS", 30)
        cfg = IntegratorConfig(method="rk45", t_end=10.0)
        with pytest.raises(IntegrationStalledError, match="MAX_STEPS = 30") as info:
            integrate([1, 1, 0.5, -0.5, 0.2], cfg)
        assert 1 < len(info.value.trajectory) <= 1 + 30

    def test_rk4_horizon_below_dt_takes_one_step(self):
        traj = integrate([1, 0, 0, 0, 1], IntegratorConfig(method="rk4", t_end=1e-20, dt=1.0))
        assert traj.times.tolist() == [0.0, 1e-20]

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_stride_samples_every_kth_step_and_the_last(self, method):
        p0 = [1, 1, 0.5, -0.5, 0.2]
        cfg = IntegratorConfig(method=method, t_end=3.0, dt=0.01)
        full = integrate(p0, cfg)
        strided = integrate(p0, IntegratorConfig(method=method, t_end=3.0, dt=0.01,
                                                 sample_stride=7))
        keep = list(range(0, len(full), 7))
        assert keep[-1] != len(full) - 1  # the last step is not a 7th one
        keep.append(len(full) - 1)
        assert np.array_equal(strided.times, full.times[keep])
        assert np.array_equal(strided.states, full.states[keep])
        assert np.array_equal(strided.conserved, full.conserved[keep])

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
