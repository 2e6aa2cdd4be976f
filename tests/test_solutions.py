import dataclasses
import math

import numpy as np
import pytest

from mbloch import solutions
from mbloch.verify import homoclinic_solves_system
from mbloch.core import DomainError, conserved, vector_field
from mbloch.solutions import (HomoclinicParams, PeriodicParams, homoclinic,
                              homoclinic_derivative, periodic_derivative,
                              periodic_solution, radial_cubic)


class TestHomoclinic:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            HomoclinicParams(c=-1.0)
        with pytest.raises(ValueError):
            HomoclinicParams(c=1.0, sign=2)
        # read as the package's counts are: any integer type, stored as an int
        sign = HomoclinicParams(c=1.0, sign=np.int64(-1)).sign
        assert type(sign) is int and sign == -1

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

    def test_energy_guard_adds_both_squares(self):
        # omega = 1.14e77: the period and the residual scale (6.5e307) are
        # finite, and only x2_0^2 takes omega^2 (x1_0^2 + x2_0^2 + omega^2) past
        # the largest double, to 2.3e308 (1.69e308 with x1_0^2 - x2_0^2)
        par = dict(x1_0=5e76, y1_0=5.7e153, x2_0=5e76)
        w = par["y1_0"] / par["x2_0"]
        assert math.isfinite((1 + w * w) * (1 + 2 * par["x1_0"] ** 2))
        with pytest.raises(DomainError, match="energy"):
            PeriodicParams(**par)

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


# the float.hex of puncture_time(k), k = 0..5, and punctures_in(20.0): the
# families of TestPunctures and the invariant-probe families of the
# cli_session benchmark at seeds 0-9, whose values these keep bit for bit
PUNCTURE_PINS = {
    (0.0, 1.0, 1.0):
        ("0x1.921fb54442d18p+0 0x1.2d97c7f3321d2p+2 0x1.f6a7a2955385ep+2 "
         "0x1.5fdbbe9bba775p+3 0x1.c463abeccb2bbp+3 0x1.1475cc9eedf00p+4", 6),
    (1.3, 0.9, -0.4):
        ("0x1.0fb34ad914540p-3 0x1.8767ee0996d30p+0 0x1.766cb95c058dcp+1 "
         "0x1.1492bdd99fd90p+2 0x1.6def1f053ceb2p+2 0x1.c74b8030d9fd4p+2", 15),
    (0.3, 1.2, -0.7):
        ("0x1.5c3781b25f450p-1 0x1.41a05f7f1420dp+1 0x1.16196f48c8383p+2 "
         "0x1.8b62aed206600p+2 0x1.0055f72da243ep+3 0x1.3afa96f24157cp+3", 11),
    (0.6, 1.1, -0.8):
        ("0x1.594a803e9fc98p-1 0x1.7ac6c6ccefd09p+1 0x1.4f9d76c51bd76p+2 "
         "0x1.e1d78a23bfc67p+2 0x1.3a08cec131dacp+3 0x1.8325d87083d26p+3", 9),
    (0.3, 1.2, 0.7):
        ("0x1.5c3781b25f451p-1 0x1.41a05f7f1420dp+1 0x1.16196f48c8383p+2 "
         "0x1.8b62aed206600p+2 0x1.0055f72da243ep+3 0x1.3afa96f24157cp+3", 11),
    (-0.9, 1.2, 0.7):
        ("0x1.726dc0cb49931p+0 0x1.a3c95f7821192p+1 0x1.472def454eb45p+2 "
         "0x1.bc772ece8cdc2p+2 0x1.18e0372be581fp+3 0x1.5384d6f08495dp+3", 11),
    (0.3, -1.2, 0.7):
        ("0x1.27093d4bc8fcap+0 0x1.7e171db860cdep+1 0x1.3454ce656e8ecp+2 "
         "0x1.a99e0deeacb68p+2 0x1.0f73a6bbf56f2p+3 0x1.4a18468094830p+3", 11),
    (-0.9, -1.2, 0.7):
        ("0x1.8adcf566bc304p-2 0x1.1bee1dbf53d5ap+1 0x1.03404e68e8129p+2 "
         "0x1.78898df2263a6p+2 0x1.edd2cd7b64622p+2 0x1.318e06825144fp+3", 11),
    (-0.9, 1.2, -0.7):
        ("0x1.726dc0cb49932p+0 0x1.a3c95f7821192p+1 0x1.472def454eb46p+2 "
         "0x1.bc772ece8cdc2p+2 0x1.18e0372be581fp+3 0x1.5384d6f08495dp+3", 11),
    (0.3, -1.2, -0.7):
        ("0x1.27093d4bc8fcap+0 0x1.7e171db860cdep+1 0x1.3454ce656e8ecp+2 "
         "0x1.a99e0deeacb68p+2 0x1.0f73a6bbf56f2p+3 0x1.4a18468094830p+3", 11),
    (-0.9, -1.2, -0.7):
        ("0x1.8adcf566bc300p-2 0x1.1bee1dbf53d59p+1 0x1.03404e68e8129p+2 "
         "0x1.78898df2263a6p+2 0x1.edd2cd7b64622p+2 0x1.318e06825144fp+3", 11),
    (0.7350132223266828, 0.9217324690302564, 1.4455269879665096):
        ("0x1.b9c8681efc196p+0 0x1.a9c3f4bf892fcp+2 0x1.728ae7bba9ac9p+3 "
         "0x1.0819ea8bc760ap+4 0x1.56ee6139b9eafp+4 0x1.a5c2d7e7ac755p+4", 4),
    (-0.6904548694991911, 0.5904917323230515, 1.0803150624469557):
        ("0x1.f5057f79d9b3ep+1 0x1.352db5392e95cp+3 0x1.ed1a0a93e6be8p+3 "
         "0x1.52832ff74f73ap+4 0x1.ae795aa4ab880p+4 0x1.0537c2a903ce3p+5", 3),
    (1.439874757834775, 0.673647060174884, 0.6663575177000088):
        ("0x1.b7099bc81397fp-2 0x1.c4a6f4404a03fp+1 0x1.a9365a83c8ca7p+2 "
         "0x1.380c9d73b6497p+3 0x1.9b7e0da5882dbp+3 0x1.feef7dd75a11fp+3", 7),
    (-0.6014922013869107, 1.0626433737719143, 1.4648616584517025):
        ("0x1.59e9ef629cda0p+1 0x1.c21f4b6a11733p+2 0x1.6ba4cf916a3cbp+3 "
         "0x1.f639f96dcbbfcp+3 0x1.406791a516a17p+4 0x1.85b2269347630p+4", 4),
    (0.25176980259868653, 0.9784998809208645, 0.8725652694284134):
        ("0x1.267626b2b15b4p+0 0x1.f9d1dd6705bf5p+1 0x1.b03453ba59688p+2 "
         "0x1.31bfdc6097f8ap+3 0x1.8b658ee4033d2p+3 0x1.e50b41676e818p+3", 7),
    (1.4394868858145196, 0.9585057456516982, 1.3591031694759692):
        ("0x1.12ab997a03443p+0 0x1.61c2e01fe0257p+2 0x1.3f6d6cf09fbcep+3 "
         "0x1.cdf969d14f671p+3 0x1.2e42b358ff88ap+4 0x1.7588b1c9575dcp+4", 5),
    (1.1813009024680228, 0.8686905077736771, 1.0309401361746566):
        ("0x1.b3feaf2392eb9p-1 0x1.251d57b7f39ffp+2 0x1.09dd6cc5ba713p+3 "
         "0x1.812c2daf7b127p+3 0x1.f87aee993bb3bp+3 0x1.37e4d7c17e2a7p+4", 6),
    (1.4739967594837453, 0.815888285927046, 1.029521537480921):
        ("0x1.89e5b0e1a9490p-1 0x1.2ef205d071fd4p+2 0x1.1653aac25768cp+3 "
         "0x1.952e529c75d2dp+3 0x1.0a047d3b4a1e7p+4 0x1.4971d12859538p+4", 5),
    (1.4664149245236238, 1.057127903413915, 1.1124036621085585):
        ("0x1.5da6284543bc7p-1 0x1.fe900822bae5fp+1 0x1.d2db431a126e6p+2 "
         "0x1.5337411163b4ep+3 0x1.bd00e095be329p+3 0x1.1365400d0c582p+4", 6),
    (-1.0478903613589725, 1.453459635244089, 0.8072517178102723):
        ("0x1.6159a5e3fb9cap+0 0x1.9003c6b5d07a7p+1 0x1.37ad5d3cd1934p+2 "
         "0x1.a758d71ebae96p+2 0x1.0b822880521fbp+3 0x1.4357e57146cabp+3", 11),
}


class TestPunctures:
    def test_quarter_phase_schedule(self):
        par = PeriodicParams(0.0, 1.0, 1.0)
        for k in range(4):
            assert par.puncture_time(k) == pytest.approx(math.pi / 2 + k * math.pi)
            # x2(t) = cos t indeed vanishes there
            assert abs(periodic_solution(par, par.puncture_time(k))[2]) < 1e-12

    def test_phase_identities(self):
        # the first puncture lies within one spacing of t = 0, where (x1, x2)
        # has turned to (+-r, 0)
        par = PeriodicParams(1.3, 0.9, -0.4)
        r, t0 = math.hypot(par.x1_0, par.x2_0), par.puncture_time(0)
        assert 0.0 <= t0 < par.puncture_spacing == pytest.approx(math.pi * 0.4 / 0.9)
        assert abs(periodic_solution(par, t0)[0]) == pytest.approx(r, abs=1e-14)
        assert par.puncture_time(1) - t0 == pytest.approx(par.puncture_spacing)

    @pytest.mark.parametrize("x2_sign,y1_sign", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_count_matches_sign_changes_in_every_quadrant(self, x2_sign, y1_sign):
        for x1 in (0.3, -0.9):
            par = PeriodicParams(x1, y1_sign * 1.2, x2_sign * 0.7)
            grid = np.linspace(0.0, 20.0, 200001)
            x2 = periodic_solution(par, grid)[:, 2]
            changes = int(np.sum(np.sign(x2[1:]) * np.sign(x2[:-1]) < 0))
            assert par.punctures_in(20.0) == changes
            assert 0.0 < par.puncture_time(0) < par.puncture_time(1)
            assert abs(periodic_solution(par, par.puncture_time(0))[2]) < 1e-12

    @pytest.mark.parametrize("family", list(PUNCTURE_PINS))
    def test_punctures_keep_their_bits(self, family):
        par = PeriodicParams(*family)
        times = " ".join(par.puncture_time(k).hex() for k in range(6))
        assert (times, par.punctures_in(20.0)) == PUNCTURE_PINS[family]

    def test_x2_zero_excluded(self):
        with pytest.raises(ValueError):
            PeriodicParams(1.0, 1.0, 0.0)

    def test_family_is_frozen(self):
        # no field can change under omega, the period or the puncture times
        par = PeriodicParams(0.3, 1.2, -0.7)
        for field in dataclasses.fields(par):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(par, field.name, 1.0)
        with pytest.raises(DomainError):
            dataclasses.replace(par, x2_0=0.0)

    @pytest.mark.parametrize("call", [
        lambda s: s.punctures_in(math.inf), lambda s: s.punctures_in(math.nan),
        lambda s: s.punctures_in("3"), lambda s: s.punctures_in(10 ** 400),
        lambda s: s.puncture_time(10 ** 400), lambda s: s.puncture_time(10 ** 308),
        lambda s: s.puncture_time(1.5), lambda s: s.puncture_time(2.0),
        lambda s: s.puncture_time(True), lambda s: s.puncture_time(-1),
        lambda s: s.puncture_time("1"), lambda s: s.puncture_time(None),
    ], ids=["count-inf", "count-nan", "count-string", "count-huge", "t_k-huge", "t_k-overflow",
            "t_k-1.5", "t_k-float", "t_k-bool", "t_k-negative", "t_k-string", "t_k-none"])
    def test_bad_index_or_time_is_a_domain_error(self, call):
        # k is an integer >= 0 (k = 1.5 is no puncture) and t_end a finite real
        with pytest.raises(DomainError) as info:
            call(PeriodicParams(0.3, 1.2, -0.7))
        assert type(info.value) is DomainError

    def test_numpy_integers_and_reals_are_read(self):
        par = PeriodicParams(0.3, 1.2, -0.7)
        assert par.puncture_time(np.int64(3)) == par.puncture_time(3)
        assert par.punctures_in(np.float32(20)) == par.punctures_in(20) == par.punctures_in(20.0)
        assert par.punctures_in(-1e308) == 0

    def test_puncture_point_lies_in_m2(self):
        par = PeriodicParams(0.6, 1.1, -0.8)
        w = par.omega
        for k in (0, 1, 2):
            p = periodic_solution(par, par.puncture_time(k))
            assert abs(p[1]) < 1e-12  # y1 = 0
            assert abs(p[2]) < 1e-12  # x2 = 0
            assert abs(p[0]) > 1e-6  # x1 != 0 since x1^2 + x2^2 is conserved
            assert abs(p[4] * p[0] ** 2 + p[3] ** 2) < 1e-12  # z = -y2^2/x1^2


CLOSED_FORMS = {
    "homoclinic": (homoclinic, HomoclinicParams(c=1.5, theta0=0.4, sign=-1)),
    "homoclinic_derivative": (homoclinic_derivative, HomoclinicParams(c=1.5, theta0=0.4)),
    "periodic_solution": (periodic_solution, PeriodicParams(0.3, 1.2, -0.7)),
    "periodic_derivative": (periodic_derivative, PeriodicParams(0.3, 1.2, -0.7)),
}


class TestTimes:
    """The closed forms take real, finite times, as a state takes real, finite
    components; anything else is a DomainError."""

    @pytest.mark.parametrize("t", ["0.5", 1j, 10 ** 400, None, math.nan, math.inf])
    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_bad_time_is_a_domain_error(self, name, t):
        fn, par = CLOSED_FORMS[name]
        with pytest.raises(DomainError):
            fn(par, t)

    @pytest.mark.parametrize("t", [0.5, 3, np.array([-2.0, 0.0, 0.25, 7.5])])
    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_real_time_keeps_the_bits_of_a_float_conversion(self, monkeypatch, name, t):
        fn, par = CLOSED_FORMS[name]
        checked = fn(par, t)
        monkeypatch.setattr(solutions, "_times", lambda t: np.asarray(t, dtype=float))
        assert checked.tobytes() == fn(par, t).tobytes()
        assert checked.shape == np.shape(t) + (5,)
