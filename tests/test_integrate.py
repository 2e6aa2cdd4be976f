import dataclasses
import hashlib
import inspect
import itertools
import math
import sys
import time
import traceback
import tracemalloc
from array import array
from fractions import Fraction as F

import numpy as np
import pytest

from mbloch import integrate as integration
from mbloch import domain, invariant_sets, solutions, verify
from mbloch.core import DomainError, conserved, field_components, vector_field
from mbloch.integrate import (DT_INITIAL, MAX_STEPS, DriftReport,
                              IntegrationStalledError, IntegratorConfig,
                              StateOverflowError, Trajectory, _dp_builtin, _dp_raw,
                              _rk4_builtin, _rk4_raw, drift_report, integrate,
                              rk4_step)

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

    @pytest.mark.parametrize("stride", [-1, 1.5, 3.0, "3", None, True, False,
                                        np.float64(3.0)])
    def test_rejects_non_integer_stride(self, stride):
        # 1.5 once recorded every third step (1.5 * 2 == 3) and "3" raised a
        # TypeError; a bool is refused although True is an integer
        with pytest.raises(DomainError, match="sample_stride"):
            IntegratorConfig(method="rk4", t_end=1.0, dt=0.1, sample_stride=stride)

    @pytest.mark.parametrize("stride", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_integer_stride_is_taken_as_an_int(self, stride):
        cfg = IntegratorConfig(method="rk4", t_end=1.0, dt=0.1, sample_stride=stride)
        assert type(cfg.sample_stride) is int and cfg.sample_stride == 3
        assert integrate([1, 1, 0.5, -0.5, 0.2], cfg).times.tolist() == pytest.approx(
            [0.0, 0.3, 0.6, 0.9, 1.0], rel=1e-12)

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


    @pytest.mark.parametrize("cfg,name,value", [
        (IntegratorConfig(method="rk4", t_end=1.0, dt=0.1), "sample_stride", 0),
        (IntegratorConfig(method="rk4", t_end=1.0, dt=0.1), "dt", 0.0),
        (IntegratorConfig(), "method", "euler")])
    def test_a_checked_config_is_frozen(self, cfg, name, value):
        # a reassigned stride 0 once made an rk4 run step 0 steps forever,
        # dt 0 raised ZeroDivisionError and method "euler" ran rk45
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
        with pytest.raises(DomainError):
            dataclasses.replace(cfg, **{name: value})

    def test_rk4_sample_cap(self):
        # 10^6 steps record 10^6 + 1 samples at stride 1, one over the cap
        with pytest.raises(DomainError, match="samples"):
            IntegratorConfig(method="rk4", t_end=1.0, dt=1e-6)
        IntegratorConfig(method="rk4", t_end=1.0, dt=1e-6, sample_stride=2)
        IntegratorConfig(method="rk4", t_end=domain.MAX_SAMPLES - 1.0, dt=1.0)


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
    not fixed across Python versions), from its first nonzero entry and
    skipping the zero ones, so that a row's sum keeps the sign of a zero."""
    def advance(row, ks):
        out = []
        for i, y in enumerate(p):
            acc = None
            for a, k in zip(row, ks):
                if a:
                    acc = float(a) * k[i] if acc is None else acc + float(a) * k[i]
            out.append(y + h * acc)
        return out

    ks = [field_components(*p)]
    for row in DP_A[1:]:
        ks.append(field_components(*advance(row, ks)))
    return tuple(advance(DP_B5, ks)), tuple(advance(DP_B4, ks))


def rk4_by_table(p, h, n):
    """Up to n classical RK4 steps read off the formula, a component at a
    time: k1 at y, k2 at y + (h / 2) k1, k3 at y + (h / 2) k2 and k4 at
    y + h k3, and the step y + (h / 6) (k1 + 2 (k2 + k3) + k4).  Stops after
    the first step whose x1 + y1 + x2 + y2 + z is not finite; returns the
    steps taken and the state."""
    for i in range(1, n + 1):
        k1 = field_components(*p)
        k2 = field_components(*(y + 0.5 * h * k for y, k in zip(p, k1)))
        k3 = field_components(*(y + 0.5 * h * k for y, k in zip(p, k2)))
        k4 = field_components(*(y + h * k for y, k in zip(p, k3)))
        p = tuple(y + h / 6.0 * (a + 2.0 * (b + c) + d)
                  for y, a, b, c, d in zip(p, k1, k2, k3, k4))
        if not math.isfinite(p[0] + p[1] + p[2] + p[3] + p[4]):
            return i, p
    return n, p


def _random_states():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = tuple((rng.normal(size=5) * 10 ** rng.uniform(-2, 2, size=5)).tolist())
        yield p, float(rng.choice([-1, 1]) * 10 ** rng.uniform(-4, 0))


def _zero_rich_states():
    # about a third of the components +-0.0: a sum of exact zeros rounds to
    # +0.0, so the sign of a zero update of z shows whether a kernel adds the
    # negated terms of -(x1 y1 + x2 y2) or subtracts their sum
    rng = np.random.default_rng(12)
    for _ in range(3000):
        p = rng.normal(size=5) * 10 ** rng.uniform(-2, 2, size=5)
        p[rng.random(5) < 1 / 3] = 0.0
        p = tuple(np.copysign(p, rng.choice([-1.0, 1.0], size=5)).tolist())
        yield p, float(rng.choice([-1, 1]) * 10 ** rng.uniform(-4, 0))


class TestDormandPrinceStep:
    def test_unrolled_kernel_is_the_table(self):
        for p, h in itertools.chain(_random_states(), _zero_rich_states()):
            assert _hex(_dp_raw(*p, h, field_components)) == _hex(dp_by_table(p, h)), (p, h)

    def test_local_order(self):
        assert verify.dp_local_order()


class TestRk4Kernel:
    def test_generic_kernel_is_the_formula(self):
        for p, h in itertools.chain(_random_states(), _zero_rich_states()):
            for n in (1, 7):
                assert (_hex(_rk4_raw(*p, h, n, field_components))
                        == _hex(rk4_by_table(p, h, n))), (p, h, n)
        # a block of 20 steps whose 12th overflows
        p = (1.0, 1.0, 0.5, -0.5, 1e20)
        out = _rk4_raw(*p, 3e-10, 20, field_components)
        assert out[0] == 12 and _hex(out) == _hex(rk4_by_table(p, 3e-10, 20))


class TestGeneratedKernels:
    """The four kernels are compiled from ``_KERNEL_SOURCE``, which the
    module generates from its tableaus."""

    def test_source_is_pinned(self):
        # a change to a coefficient or to the generator shows here; the bit
        # comparisons above and in TestBuiltinKernels show what it changed
        digest = hashlib.sha256(integration._KERNEL_SOURCE.encode()).hexdigest()
        assert digest == "5431ab18202df5ae3944d27173b4c833108925caf3051f49c5e1b4dc3cb18316"

    def test_fused_source_is_pinned(self):
        # the fused kernels alone, the hot path of every built-in run: a
        # change to the generic kernels' text leaves this digest as it is
        source = integration._KERNEL_SOURCE
        fused = source[source.index("def _rk4_builtin"):]
        digest = hashlib.sha256(fused.encode()).hexdigest()
        assert digest == "891435c1788911e19547da4b7ff3581829a919aa2244468cec2df5d1a099b77e"

    def test_traceback_quotes_the_generated_line(self):
        def refuse(p):
            raise ArithmeticError("field refused")

        with pytest.raises(ArithmeticError) as info:
            integrate(P0, _rk45(), field=refuse)
        lines = integration._KERNEL_SOURCE.splitlines()
        line = lines.index("def _dp_raw(x1, y1, x2, y2, z, h, f):") + 2
        quoted = (f'File "{integration._KERNEL_FILE}", line {line}, in _dp_raw\n'
                  f"    {lines[line - 1].strip()}\n")
        assert quoted in "".join(traceback.format_exception(info.value))
        assert lines[line - 1].strip() == "a1, b1, c1, d1, e1 = f(x1, y1, x2, y2, z)"
        assert inspect.getsource(_rk4_builtin) in integration._KERNEL_SOURCE


def _hex(values):
    """The bits of a kernel's output, flattened: ``float.hex`` tells signed
    zeros apart and makes every NaN equal; the step count an RK4 block
    returns first is kept as it is."""
    if isinstance(values[0], int):
        return [values[0], *_hex(values[1])]
    if isinstance(values[0], tuple):
        return [v.hex() for part in values for v in part]
    return [v.hex() for v in values]


def _kernel_outputs(p, h):
    """Each built-in kernel's output from p and its generic twin's: RK4
    blocks of one and of seven steps, and one Dormand-Prince step."""
    for n in (1, 7):
        yield _rk4_builtin(*p, h, n), _rk4_raw(*p, h, n, field_components)
    yield _dp_builtin(*p, h), _dp_raw(*p, h, field_components)


class TestBuiltinKernels:
    """``_rk4_builtin`` and ``_dp_builtin`` are ``_rk4_raw`` and ``_dp_raw``
    with the built-in field written into their stages, bit for bit: for
    RK4, the step count and the state of a block."""

    @pytest.mark.parametrize("h", [1.0, -1.0, 2.0 ** -3, -(2.0 ** -10)])
    def test_integer_grid(self, h):
        for p in itertools.product(range(-3, 4), repeat=5):
            p = tuple(map(float, p))
            for fused, generic in _kernel_outputs(p, h):
                assert _hex(fused) == _hex(generic)

    def test_random_states(self):
        for p, h in _random_states():
            for fused, generic in _kernel_outputs(p, h):
                assert _hex(fused) == _hex(generic)

    def test_zero_rich_states(self):
        for p, h in _zero_rich_states():
            for fused, generic in _kernel_outputs(p, h):
                assert _hex(fused) == _hex(generic), (p, h)

    @pytest.mark.parametrize("p", [(1.0, 1.0, 0.0, 0.0, 1e200),
                                   (1e200, -1e200, 1e200, 1.0, 1e200),
                                   (1e308, 0.0, -0.0, 1e-308, -1e308),
                                   (-0.0, 1e160, 0.0, -1e160, 1e154)])
    @pytest.mark.parametrize("h", [1.0, -0.5])
    def test_overflowing_states(self, p, h):
        for fused, generic in _kernel_outputs(p, h):
            assert _hex(fused) == _hex(generic)
        assert not all(map(math.isfinite, fused[0]))

    @pytest.mark.parametrize("h,count", [(1e-3, 3), (3e-9, 5), (1e-9, 7), (1e-10, 7)])
    def test_block_stops_after_the_first_overflowing_step(self, h, count):
        # seven steps from a state that overflows at step 3, 5 or 7, or not
        # at all: the block returns the count and the state of one-step
        # blocks up to the first state that fails the test
        p = (1.0, 1.0, 0.5, -0.5, 1e20)
        out = _rk4_builtin(*p, h, 7)
        assert _hex(out) == _hex(_rk4_raw(*p, h, 7, field_components))
        state, fails = p, []
        for _ in range(count):
            state = _rk4_builtin(*state, h, 1)[1]
            fails.append(not math.isfinite(state[0] + state[1] + state[2] + state[3] + state[4]))
        assert _hex(out) == _hex((count, state))
        assert fails == [False] * (count - 1) + [h != 1e-10]

    def test_rk4_step_steps_the_builtin_kernel(self, monkeypatch):
        p = [1.0, 1.0, 0.5, -0.5, 0.2]
        assert rk4_step(p, 0.1).tolist() == list(_rk4_raw(*p, 0.1, 1, field_components)[1])
        monkeypatch.setattr(integration, "_rk4_builtin", lambda *s: (1, (0.0,) * 5))
        assert rk4_step(p, 0.1).tolist() == [0.0] * 5


class TestIntegrate:
    def test_equilibrium_stays_fixed(self):
        p0 = [0, 0, 0, 0, -1]
        for method in ("rk4", "rk45"):
            traj = integrate(p0, IntegratorConfig(method=method, t_end=10.0,
                                                  dt=0.01))
            assert np.array_equal(traj.states, np.tile(p0, (len(traj), 1)))

    def test_periodic_orbit_closes(self):
        p0 = solutions.periodic_solution(invariant_sets.RankTwoPoint(1.0, 1.0, 1.0), 0.0)
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

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_start_type_does_not_change_the_bits(self, method):
        # every start goes through domain.finite_state, whatever its type
        p0 = [2, -1, 1, 0, -3]
        cfg = IntegratorConfig(method=method, t_end=2.0, dt=0.01, sample_stride=3)
        runs = [integrate(p, cfg) for p in (p0, tuple(p0), np.array(p0, dtype=np.float64),
                                            np.array(p0, dtype=np.int64))]
        assert len({(t._times.tobytes(), t._states.tobytes()) for t in runs}) == 1
        assert runs[0]._states[:5].tolist() == p0

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

    def test_triple_overflow_between_samples_stops_at_the_next(self):
        # z = 1e154 t with every third step recorded: H overflows from the
        # unrecorded step 2 on, and the run stops at the sample of step 3
        field = lambda p: np.array([0.0, 0.0, 0.0, 0.0, 1e154])
        with pytest.raises(StateOverflowError) as info:
            integrate(np.zeros(5), IntegratorConfig(method="rk4", t_end=5.0, dt=1.0,
                                                    sample_stride=3), field=field)
        assert info.value.time == 3.0
        assert np.array_equal(info.value.trajectory.times, [0.0])

    def test_triple_overflow_between_samples_only_is_not_a_stop(self):
        # the clock x1 = t turns z' from +1e154 to -1e154 at the last stage
        # of step 2: z is 1e154, 5e154/3 and 2e154/3 at t = 1, 2, 3, so H
        # overflows at the unrecorded t = 2 only, and the samples at t = 0
        # and 3 are finite
        field = lambda p: np.array([1.0, 0.0, 0.0, 0.0, 1e154 if p[0] < 1.75 else -1e154])
        traj = integrate(np.zeros(5), IntegratorConfig(method="rk4", t_end=3.0, dt=1.0,
                                                       sample_stride=3), field=field)
        assert np.array_equal(traj.times, [0.0, 3.0])
        assert np.isfinite(traj.conserved).all()

    def test_triple_overflow_then_state_overflow_reports_the_triple(self):
        # H overflows at the sample t = 2, the state at the step to t = 3
        field = lambda p: np.array([1.0, 0.0, 0.0, 0.0, 1e154 if p[0] < 2.75 else np.inf])
        with pytest.raises(StateOverflowError) as info:
            integrate(np.zeros(5), IntegratorConfig(method="rk4", t_end=5.0, dt=1.0),
                      field=field)
        assert info.value.time == 2.0
        assert np.array_equal(info.value.trajectory.times, [0.0, 1.0])

    # z' = 1e154 is stepped exactly, so rk45 accepts every step and grows it
    # five-fold up to dt_max = 1: samples at 0, 1e-3, 6e-3, 0.031, 0.156,
    # 0.781 and 1.781, the first where z * z, so H, overflows
    TRIPLE_T = 1e-3 * (1 + 5 + 25 + 125 + 625) + 1.0

    def test_triple_overflow_before_the_sample_cap_reports_the_triple(self, monkeypatch):
        monkeypatch.setattr(domain, "MAX_SAMPLES", 10)
        field = lambda p: np.array([0.0, 0.0, 0.0, 0.0, 1e154])
        with pytest.raises(StateOverflowError) as info:
            integrate(np.zeros(5), IntegratorConfig(method="rk45", t_end=20.0), field=field)
        assert info.value.time == pytest.approx(self.TRIPLE_T, rel=1e-12)
        partial = info.value.trajectory
        assert len(partial) == 6 and np.isfinite(partial.conserved).all()

    def test_sample_cap_before_the_triple_overflow_stalls(self, monkeypatch):
        # the cap refuses the seventh sample, the first with an overflowing
        # triple, before its triple is taken
        monkeypatch.setattr(domain, "MAX_SAMPLES", 6)
        field = lambda p: np.array([0.0, 0.0, 0.0, 0.0, 1e154])
        with pytest.raises(IntegrationStalledError, match="MAX_SAMPLES = 6") as info:
            integrate(np.zeros(5), IntegratorConfig(method="rk45", t_end=20.0), field=field)
        assert info.value.time == pytest.approx(self.TRIPLE_T, rel=1e-12)
        assert len(info.value.trajectory) == 6

    @pytest.mark.parametrize("p0", [[0.0, 0.0, 0.0, 0.0, 1e154],
                                    [1.2e154, 0.0, 0.0, 1.2e154, 0.0],
                                    [1e154, 1e153, 1e153, 1e153, -1e154]])
    def test_triple_check_past_the_safe_bound(self, p0):
        # a sum of squares at or above TRIPLE_SAFE_SQUARES takes the exact
        # triple: these are finite (as the start check found), so the run
        # records them; a field of zero keeps the state
        zero = lambda p: np.zeros(5)
        assert sum(v * v for v in p0) >= integration.TRIPLE_SAFE_SQUARES
        for method in ("rk4", "rk45"):
            traj = integrate(p0, IntegratorConfig(method=method, t_end=1.0, dt=0.5),
                             field=zero)
            assert np.array_equal(traj.states, [p0] * len(traj))
            assert np.isfinite(traj.conserved).all()

    def test_custom_field_takes_the_same_kernels(self):
        # the built-in field steps the fused kernels, a custom one the
        # generic kernels: the same bytes at every stride
        for stride in (1, 7, 100):
            for cfg in (IntegratorConfig(method="rk4", t_end=5.0, dt=0.01,
                                         sample_stride=stride),
                        IntegratorConfig(method="rk45", t_end=30.0, sample_stride=stride)):
                for p0 in ([1, 1, 0.5, -0.5, 0.2], [1e-3, -1e-3, 0.0, -0.0, 1.0],
                           # exact-zero updates of a zero z: the kernels agree on its sign
                           [0, 0, 0, 0, -0.0], [2, 0, 0, 0, -0.0],
                           [0.5, -0.0, 0.25, -0.0, -0.0]):
                    assert _outcome(p0, cfg) == _outcome(p0, cfg, vector_field)

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
        monkeypatch.setattr(domain, "MAX_SAMPLES", 50)
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

    def test_record_memory_per_sample(self):
        # the record holds 48 bytes a sample (a time and five float64
        # components) and the conserved triple 24 more; the bound leaves
        # room for the temporaries of computing the triple, not for a
        # Python object per sample
        cfg = IntegratorConfig(method="rk4", t_end=200.0, dt=1e-2)
        tracemalloc.start()
        try:
            traj = integrate([1, 1, 0.5, -0.5, 0.2], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == 20_001
        assert peak / len(traj) < 160

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


def _reference_rk45(times, states, cfg, step):
    # the loop form of the rk45 driver, kept as the oracle of the unrolled
    # one: the caps are read from the module, so that a patch applies to
    # both, and it steps the Dormand-Prince kernel it is handed, as the
    # driver does
    t, y, k = 0.0, tuple(states), 0
    dt = min(integration.DT_INITIAL, cfg.t_end)
    safety, shrink, grow = 0.9, 0.2, 5.0
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    attempts = 0
    while t < cfg.t_end:
        attempts += 1
        if attempts > integration.MAX_STEPS:
            raise IntegrationStalledError(
                t, f"MAX_STEPS = {integration.MAX_STEPS} steps attempted")
        h = min(dt, cfg.t_end - t)
        y5, y4 = step(*y, h)
        if not math.isfinite(y5[0] + y5[1] + y5[2] + y5[3] + y5[4]):
            raise StateOverflowError(t + h)
        total = 0.0
        for old, new, low in zip(y, y5, y4):
            e = (new - low) / (abs_tol + rel_tol * max(abs(old), abs(new)))
            total += e * e
        err = math.sqrt(total / 5)
        if err <= 1.0:
            t += h
            y = y5
            k += 1
            if (k % cfg.sample_stride == 0 or t >= cfg.t_end) and t != times[-1]:
                if len(times) == domain.MAX_SAMPLES:
                    raise IntegrationStalledError(
                        t, f"MAX_SAMPLES = {domain.MAX_SAMPLES} samples recorded")
                times.append(t)
                states.extend(y)
        elif h <= integration.DT_MIN:
            raise IntegrationStalledError(t)
        factor = grow if err == 0.0 else min(grow, max(shrink, safety * err ** -0.2))
        dt = max(min(h * factor, cfg.dt_max), integration.DT_MIN)


def _drive(driver, p0, cfg, field=None):
    """One run of a driver on fresh buffers, stepping the Dormand-Prince
    kernel that ``integrate._kernels`` gives a counting field (the field, or
    ``vector_field`` for None), in its context: the buffers' bytes, the stop
    (exception type, time, reason) or None, and the field calls made."""
    calls, base = [0], vector_field if field is None else field

    def counting(p):
        calls[0] += 1
        return base(p)

    _, step, quiet = integration._kernels(counting)
    times, states = array("d", [0.0]), array("d", p0)
    stop = None
    with quiet:
        try:
            driver(times, states, cfg, step)
        except (IntegrationStalledError, StateOverflowError) as exc:
            stop = (type(exc), exc.time, getattr(exc, "reason", None))
    return (times.tobytes(), states.tobytes(), stop), calls[0]


def _rk45(t_end=10.0, tol=1e-10, stride=1):
    return IntegratorConfig(method="rk45", t_end=t_end, abs_tol=tol, rel_tol=tol,
                            sample_stride=stride)


class EndStateFault:
    """The field of a uniform drift (1, ..., 1), except that the seventh
    stage of every ``period``-th attempted step, the one taken at the
    fifth-order end state, returns ``value``: y5 stays finite while y4
    and the error norm do not."""

    def __init__(self, value, period):
        self.value, self.period, self.calls = value, period, 0

    def __call__(self, p):
        self.calls += 1
        bad = self.calls % (7 * self.period) == 0
        return np.full(5, self.value if bad else 1.0)


# a kick of size 1e-3 off each axis equilibrium, as in the rk45_sweep benchmark
KICK = 1e-3 * np.array([0.6, -0.3, 0.5, 0.4, -0.35]) / math.sqrt(0.9825)
P0 = [1.0, 1.0, 0.5, -0.5, 0.2]
DRIVER_CASES = {
    **{f"leaf{c:+}": ((KICK + [0, 0, 0, 0, c]).tolist(), _rk45(30.0), None)
       for c in (0.25, -0.25, 1.0, -1.0, 2.0, -2.0)},
    "stride1": (P0, _rk45(), None),
    "stride7": (P0, _rk45(stride=7), None),
    "tol1e-6": (P0, _rk45(tol=1e-6), None),
    "tol1e-13": (P0, _rk45(tol=1e-13), None),
    "numpy_field": (P0, _rk45(stride=3), vector_field),
    # a uniform drift until x1 reaches 2.5, then an infinite field
    "overflow": ([0.0] * 5, _rk45(), lambda p: np.full(5, 1.0 if p[0] < 2.5 else np.inf)),
    "dt_min_stall": ([0.1, 0, 0, 0, 0], _rk45(1.0, 1e-12),
                     lambda p: np.full(5, 100.0 + 100.0 * math.sin(1e12 * p[0]))),
}


class TestRk45Driver:
    """The rk45 driver against ``_reference_rk45``, bit for bit: the same
    samples, the same stop, the same field calls."""

    def _same(self, p0, cfg, field_factory):
        new, new_calls = _drive(integration._integrate_rk45, p0, cfg, field_factory())
        ref, ref_calls = _drive(_reference_rk45, p0, cfg, field_factory())
        assert new == ref
        assert new_calls == ref_calls
        return ref, ref_calls

    @pytest.mark.parametrize("case", DRIVER_CASES)
    def test_matches_reference(self, case):
        p0, cfg, field = DRIVER_CASES[case]
        (times, _, stop), calls = self._same(p0, cfg, lambda: field)
        if case == "tol1e-6":
            assert calls // 7 > len(times) // 8 - 1  # rejected steps were taken
        if case == "overflow":
            assert stop[0] is StateOverflowError
        if case == "dt_min_stall":
            assert stop[0] is IntegrationStalledError and "underflow" in stop[2]

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_low_order_state_is_rejected(self, value):
        (times, _, stop), calls = self._same([0.0] * 5, _rk45(1.0),
                                             lambda: EndStateFault(value, 3))
        assert stop is None
        assert calls // 7 > len(times) // 8 - 1  # every third attempt is rejected

    def test_caps_match_reference(self, monkeypatch):
        monkeypatch.setattr(domain, "MAX_SAMPLES", 50)
        (_, _, stop), _ = self._same(P0, _rk45(), lambda: None)
        assert "MAX_SAMPLES = 50" in stop[2]
        monkeypatch.setattr(domain, "MAX_SAMPLES", 10 ** 6)
        monkeypatch.setattr(integration, "MAX_STEPS", 30)
        (_, _, stop), _ = self._same(P0, _rk45(tol=1e-13), lambda: None)
        assert "MAX_STEPS = 30" in stop[2]

    def test_step_below_half_an_ulp_keeps_one_sample(self, monkeypatch):
        # a rotation at 1e10 rad/s switched on by the clock x1 = t at 1e6:
        # the accepted steps there fall below half an ulp of t, so t stops
        monkeypatch.setattr(integration, "MAX_STEPS", 3000)

        def late_rotation(p):
            w = 1e10 if p[0] > 1e6 else 0.0
            return np.array([1.0, w * p[3], 0.0, -w * p[1], 0.0])

        cfg = IntegratorConfig(method="rk45", t_end=2e6, dt_max=1e3, abs_tol=1e-6,
                               rel_tol=1e-6)
        (times, _, stop), _ = self._same([0.0, 1.0, 0.0, 0.0, 0.0], cfg,
                                         lambda: late_rotation)
        assert stop[1] == 1e6 and "MAX_STEPS" in stop[2]
        assert np.all(np.diff(np.frombuffer(times)) > 0)

    def test_steps_through_the_module_kernel(self, monkeypatch):
        # the driver reaches ``_dp_raw`` through the module, so patching it
        # there breaks rk45 runs: one kernel call per attempted step
        kernel, count = integration._dp_raw, [0]

        def counted(*args):
            count[0] += 1
            return kernel(*args)

        # the references step the module's kernel before it is patched
        (ref, _, _), calls = _drive(_reference_rk45, P0, _rk45(tol=1e-6))
        (_, ref_states, _), _ = _drive(_reference_rk45, P0, _rk45())
        monkeypatch.setattr(integration, "_dp_raw", counted)
        (times, _, _), _ = _drive(integration._integrate_rk45, P0, _rk45(tol=1e-6))
        assert times == ref
        # accepted and rejected steps
        assert count[0] == calls // 7 > len(ref) // 8 - 1

        def nudged(*args):
            (x1, *rest), y4 = kernel(*args)
            return (x1 + 1e-9, *rest), y4

        monkeypatch.setattr(integration, "_dp_raw", nudged)
        (_, states, _), _ = _drive(integration._integrate_rk45, P0, _rk45())
        assert states != ref_states

    def test_default_run_steps_the_module_builtin_kernel(self, monkeypatch):
        # a run of the built-in field reaches ``_dp_builtin`` through the
        # module: one kernel call per attempted step, and a patch applies
        kernel, count = integration._dp_builtin, [0]

        def counted(*args):
            count[0] += 1
            return kernel(*args)

        (ref, ref_states, _), calls = _drive(_reference_rk45, P0, _rk45(tol=1e-6))
        monkeypatch.setattr(integration, "_dp_builtin", counted)
        traj = integrate(P0, _rk45(tol=1e-6))
        assert traj._times.tobytes() == ref and traj._states.tobytes() == ref_states
        assert count[0] == calls // 7 > len(ref) // 8 - 1

        def nudged(*args):
            (x1, *rest), y4 = kernel(*args)
            return (x1 + 1e-9, *rest), y4

        monkeypatch.setattr(integration, "_dp_builtin", nudged)
        cfg = _rk45(tol=1e-6)
        assert _outcome(P0, cfg)[1] != _outcome(P0, cfg, vector_field)[1]

    def test_default_rk4_run_steps_the_module_builtin_kernel(self, monkeypatch):
        # steps counted as the kernel reports them: 100, in one call a sample
        kernel, steps, calls = integration._rk4_builtin, [0], [0]

        def counted(*args):
            out = kernel(*args)
            steps[0] += out[0]
            calls[0] += 1
            return out

        cfg = IntegratorConfig(method="rk4", t_end=1.0, dt=0.01, sample_stride=7)
        want = integrate(P0, cfg, field=vector_field)
        monkeypatch.setattr(integration, "_rk4_builtin", counted)
        assert integrate(P0, cfg).states.tobytes() == want.states.tobytes()
        assert steps[0] == 100
        assert calls[0] == len(want) - 1 == 15


def _outcome(p0, cfg, field=None):
    """The bytes of a run's two buffers and its stop (type and time), or None."""
    try:
        traj, stop = integrate(p0, cfg, field=field), None
    except (IntegrationStalledError, StateOverflowError) as exc:
        traj, stop = exc.trajectory, (type(exc), exc.time)
    return traj._times.tobytes(), traj._states.tobytes(), stop


class TestBuiltinDispatch:
    """A run of the built-in field steps the built-in kernels; any other
    field steps the generic ones, with the same samples and the same stop
    (the samples of finished runs: ``test_custom_field_takes_the_same_kernels``)."""

    @pytest.mark.parametrize("p0,cfg", [
        # overflows at the 12th and at the first step, and a stall at the
        # step floor
        ([1.0, 1.0, 0.5, -0.5, 1e20], IntegratorConfig(method="rk4", t_end=1e-6, dt=3e-10)),
        ([1.0, 1.0, 0.5, -0.5, 1e20], IntegratorConfig(method="rk45", t_end=1e-6)),
        ([1.0, 1.0, 0.5, -0.5, 1e60], IntegratorConfig(method="rk45", t_end=10.0)),
        ([1.0, 1.0, 0.0, 0.0, 1e100], IntegratorConfig(method="rk4", t_end=10.0, dt=1.0)),
    ])
    def test_stops_are_the_same(self, p0, cfg):
        # the field of ``vector_field`` without its check of the state, which
        # refuses the non-finite stages an overflowing step takes
        out = _outcome(p0, cfg)
        assert out[2] is not None
        assert out == _outcome(p0, cfg, lambda p: np.array(field_components(*p)))

    @pytest.mark.parametrize("p0,cfg", [
        ([1e50, 1.0, 0.5, -0.5, 1e120], IntegratorConfig(method="rk4", t_end=10.0, dt=0.1)),
        ([1.0, 1.0, 0.5, -0.5, 1e60], IntegratorConfig(method="rk45", t_end=10.0)),
    ])
    def test_checked_field_stops_as_the_builtin_one(self, p0, cfg):
        # an overflowing step takes a non-finite stage state, which
        # ``vector_field`` refuses: that stage gets a NaN field without a
        # call, and the step fails the finiteness test as with the built-in
        out = _outcome(p0, cfg)
        assert out[2][0] is StateOverflowError
        assert out == _outcome(p0, cfg, vector_field)

    @pytest.mark.parametrize("stride", [1, 7, 100, 10 ** 9])
    def test_overflow_inside_a_block(self, stride):
        # the 12th of 3334 steps overflows: inside the second block of
        # steps at stride 7, inside the first at strides 100 and 10^9.  The
        # run stops at 12 h with the stride-1 run's samples at 0, k, 2k, ...
        p0 = [1.0, 1.0, 0.5, -0.5, 1e20]
        cfg = IntegratorConfig(method="rk4", t_end=1e-6, dt=3e-10, sample_stride=stride)
        times, states, stop = out = _outcome(p0, cfg)
        every = _outcome(p0, dataclasses.replace(cfg, sample_stride=1))
        assert stop == every[2] == (StateOverflowError, 12 * (1e-6 / 3334))
        assert times == np.frombuffer(every[0])[::stride].tobytes()
        assert states == np.frombuffer(every[1]).reshape(-1, 5)[::stride].tobytes()
        assert len(times) == 8 * len(range(0, 12, stride))
        assert out == _outcome(p0, cfg, vector_field)

    def test_sample_cap_stall_is_the_same(self, monkeypatch):
        monkeypatch.setattr(domain, "MAX_SAMPLES", 50)
        out = _outcome(P0, _rk45())
        assert out[2][0] is IntegrationStalledError and len(out[0]) == 8 * 50
        assert out == _outcome(P0, _rk45(), vector_field)

    @pytest.mark.parametrize("method,builtin", [("rk4", "_rk4_builtin"),
                                                ("rk45", "_dp_builtin")])
    def test_patched_field_steps_the_generic_kernel(self, monkeypatch, method, builtin):
        # a patch of ``integrate.field_components`` is a field other than
        # the built-in one, so the run never reaches the built-in kernel
        cfg = IntegratorConfig(method=method, t_end=1.0, dt=0.01)
        want = _outcome(P0, cfg)
        monkeypatch.setattr(integration, builtin, None)
        monkeypatch.setattr(integration, "field_components",
                            lambda *s: field_components(*s))
        assert _outcome(P0, cfg) == want


class TestKernelsDoor:
    """``integrate._kernels`` is the one door from a field to a run's
    kernels: ``integrate`` and ``verify.dp_local_order`` both pass it."""

    def test_builtin_field_takes_the_fused_kernels(self):
        rk4, dp, _ = integration._kernels(None)
        assert rk4 is _rk4_builtin and dp is _dp_builtin

    @pytest.mark.parametrize("how", ["field_components", "field", "_dp_builtin"])
    def test_reaches_integrate_and_dp_local_order(self, monkeypatch, how):
        # a patched ``integrate.field_components``, a custom field= and a
        # patched ``_dp_builtin`` are each stepped by an rk45 run, with the
        # samples of the unpatched run; dp_local_order asks the door for the
        # kernels of the built-in field, so it steps both patches and leaves
        # the custom field, which no run of it is given, alone
        cfg = _rk45(1.0)
        want = _outcome(P0, cfg)
        door, doors, calls = integration._kernels, [], [0]

        def spy(field):
            doors.append(field)
            return door(field)

        def counted(fn):
            def wrapper(*args):
                calls[0] += 1
                return fn(*args)
            return wrapper

        field = counted(vector_field) if how == "field" else None
        if field is None:
            monkeypatch.setattr(integration, how, counted(getattr(integration, how)))
        monkeypatch.setattr(integration, "_kernels", spy)
        assert _outcome(P0, cfg, field) == want
        assert doors == [field] and calls[0] > 0
        doors.clear()
        calls[0] = 0
        assert verify.dp_local_order()
        assert doors == [None]
        assert (calls[0] > 0) is (how != "field")


class TestPinnedRuns:
    """The sample count and the SHA-256 of both buffers of fixed runs, so
    that any change to the step arithmetic, the RK4 sample blocks or the
    rk45 step control shows.  The rk45 runs depend on the bits of
    ``err ** -0.2``, as glibc's ``pow`` rounds it."""

    RUNS = {
        **{f"leaf{c:+}": ((KICK + [0, 0, 0, 0, c]).tolist(), _rk45(30.0))
           for c in (0.25, -1.0, 2.0)},
        "rk4_stride100": (P0, IntegratorConfig(method="rk4", t_end=20.0, dt=1e-2,
                                               sample_stride=100)),
        # 300 steps at stride 7: the last block has 6
        "rk4_ragged_end": (P0, IntegratorConfig(method="rk4", t_end=3.0, dt=1e-2,
                                                sample_stride=7)),
    }
    PINS = {
        "leaf+0.25": (217, "ee79dff7c2dc9d849370c547b0b60379c2d12bdd8bc2891a395680e902f49db8",
                      "fb76bc58b31bed618b82bb80416539c66627b336dda79f6fbfbd16981e733e68"),
        "leaf-1.0": (174, "e2557312c74fc564363e09ccc7404da32d68795f7fa47cea38c5bf19ee195c37",
                     "b310ba02afdfbbff74d068873c16717b9bfe287e2435427b0f363b0125f001ba"),
        "leaf+2.0": (660, "3ecdc8d9acf9827e3cd385addbc8878849147a1aa5be7c9d39b89a3b377c5747",
                     "721eff02740a87cb3efbbbabb04ad02e42176ad7db28c8883f7fcc09d5317a72"),
        "rk4_stride100": (21, "576b531337d3197c5410a9d1bf8e7354eebd2c0a382544d1d61427b26c2fc685",
                          "5b6de62ce8542244eef9c4db5462c23800a8797d79cba37fe35e0cd303eae75b"),
        "rk4_ragged_end": (44, "e7d288b077b64125cbef749836c7ff798546df82798c4a67dbabdb28dedbd08d",
                           "a880e67eaa9d86018278bcbb08e375171f1d7c91142b0dfe325e336a01eb9b2c"),
    }

    @pytest.mark.parametrize("case", RUNS)
    def test_buffers_are_pinned(self, case):
        traj = integrate(*self.RUNS[case])
        digests = [hashlib.sha256(buf).hexdigest() for buf in (traj._times, traj._states)]
        assert (len(traj), *digests) == self.PINS[case]


class TestDriftReport:
    def test_equilibrium_trajectory_zero_drift(self):
        traj = integrate([0, 0, 0, 0, -1], IntegratorConfig(method="rk4",
                                                            t_end=10.0, dt=0.01))
        assert drift_report(traj) == DriftReport(0.0, 0.0, 0.0)

    def test_single_sample(self):
        traj = Trajectory(array("d", [0.0]), array("d", [1, 2, 3, 4, 5]))
        assert np.array_equal(traj.conserved, [conserved([1, 2, 3, 4, 5])])
        assert drift_report(traj) == DriftReport(0.0, 0.0, 0.0)

    def test_empty_trajectory_rejected(self):
        traj = Trajectory(array("d"), array("d"))
        with pytest.raises(DomainError):
            drift_report(traj)

    def test_plain_reduction_is_the_array_reduction(self, monkeypatch):
        # drift_report reduces on plain floats where NumPy is not loaded:
        # the same bits as the array reduction, signed zeros included
        runs = [integrate(P0, _rk45(tol=1e-6)), integrate(P0, _rk45(stride=7)),
                integrate(P0, IntegratorConfig(method="rk4", t_end=3.0, dt=0.1)),
                integrate([0, 0, 0, 0, -1], IntegratorConfig(method="rk4", t_end=1.0)),
                integrate([0.5, -0.0, 0.0, -0.0, -2e-300], _rk45(1.0))]
        for traj in runs:
            table = np.column_stack((traj.times, traj.states, traj.conserved))
            assert np.column_stack(traj.columns()).tobytes() == table.tobytes()
        bits = lambda rep: [x.hex() for x in dataclasses.astuple(rep)]
        arrays = [bits(drift_report(traj)) for traj in runs]
        monkeypatch.delitem(sys.modules, "numpy")
        assert [bits(drift_report(traj)) for traj in runs] == arrays
        assert arrays[3] == [0.0.hex()] * 3

    def test_both_branches_give_the_largest_absolute_deviation(self, monkeypatch):
        # both branches give the bits of max |q - q0| a column, as the array
        # reduction np.abs(conserved - conserved[0]).max(axis=0) does, on
        # 1200 seeded runs; starts with x2 = y2 = +-0.0 have an I column of
        # +0.0 and -0.0, where np.max and np.min may return -0.0, so that
        # the formula's leading 0.0 decides the sign of some of them
        rng = np.random.default_rng(41)
        runs = []
        for k in range(1200):
            p0 = rng.uniform(-2.0, 2.0, 5)
            if k % 3 == 1:
                p0[[2, 3]] = rng.choice([0.0, -0.0], 2)
            elif k % 3 == 2:
                p0[rng.choice(5, 2, replace=False)] = rng.choice([0.0, -0.0], 2)
            method = ("rk4", "rk45")[k % 2]
            runs.append(integrate(p0, IntegratorConfig(
                method=method, t_end=rng.uniform(0.05, 1.0), dt=0.05, abs_tol=1e-6,
                rel_tol=1e-6, sample_stride=int(rng.integers(1, 4)))))
        bits = lambda values: [x.hex() for x in values]
        want = [bits(np.abs(t.conserved - t.conserved[0]).max(axis=0).tolist()) for t in runs]
        assert [bits(dataclasses.astuple(drift_report(t))) for t in runs] == want
        assert any(math.copysign(1.0, max(np.max(q) - q[0], q[0] - np.min(q))) < 0
                   for t in runs for q in t.conserved.T)
        monkeypatch.delitem(sys.modules, "numpy")
        assert [bits(dataclasses.astuple(drift_report(t))) for t in runs] == want

    def test_long_run_drift_small(self):
        assert verify.rk4_conserved_drift(verify.rk4_runs([[1, 1, 0.5, -0.5, 0.2]], 100.0))
