import dataclasses
import hashlib
import math

import numpy as np
import pytest

from mbloch import solutions
from mbloch.verify import homoclinic_solves_system
from mbloch.core import DomainError, conserved, vector_field
from mbloch.invariant_sets import RankTwoPoint
from mbloch.solutions import (HomoclinicParams, homoclinic, homoclinic_derivative,
                              orbit_errors, periodic_derivative, periodic_orbit,
                              periodic_solution, radial_cubic)


def member(x1, y1, x2):
    """The member of the periodic family through the M1 point (x1, y1, x2)."""
    return RankTwoPoint(x1, x2, y1 / x2)


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
        for q in (RankTwoPoint(1.0, 1.0, 0.0),  # w = 0: an equilibrium
                  RankTwoPoint(1e200, 1.0, 1.0),  # x1^2 overflows
                  RankTwoPoint(1.0, 1.0, 1e-320)):  # the period overflows
            for call in (lambda: q.period, lambda: periodic_orbit(q),
                         lambda: q.puncture_time(0), lambda: q.punctures_in(1.0)):
                with pytest.raises(DomainError):
                    call()

    def test_m2_start_has_an_orbit_but_no_punctures(self):
        # x2 = 0: the rotation through an M2 point is a member of the family,
        # but its puncture times, read off x2 / y1, are not defined
        q = RankTwoPoint(1.0, 0.0, 0.5)
        orbit, derivative, level, tol, level_tol = periodic_orbit(q)
        resid, dev = orbit_errors(orbit, derivative, level, np.linspace(0.0, q.period, 500))
        assert resid < tol and dev < level_tol
        assert np.array_equal(orbit(0.0), q.state)
        for call in (lambda: q.puncture_time(0), lambda: q.punctures_in(20.0),
                     lambda: q.puncture_spacing):
            with pytest.raises(DomainError):
                call()

    def test_energy_guard_adds_both_squares(self):
        # w = 1.14e77: the period and the residual scale (6.5e307) are
        # finite, and only x2^2 takes w^2 (x1^2 + x2^2 + w^2) past the largest
        # double, to 2.3e308 (1.69e308 with x1^2 - x2^2)
        x1 = x2 = 5e76
        w = 5.7e153 / x2
        assert math.isfinite((1 + w * w) * (1 + 2 * x1 ** 2))
        for call in (lambda q: q.period, periodic_orbit):
            with pytest.raises(DomainError, match="energy"):
                call(RankTwoPoint(x1, x2, w))

    def test_initial_point(self):
        par = member(0.5, 1.5, -0.75)
        w = par.w
        assert np.allclose(periodic_solution(par, 0.0),
                           [0.5, 1.5, -0.75, -w * 0.5, -w * w],
                           rtol=0, atol=1e-15)

    def test_period_return(self):
        par = member(1.0, 1.0, 1.0)
        gap = np.abs(periodic_solution(par, par.period)
                     - periodic_solution(par, 0.0)).max()
        assert gap < 1e-13

    def test_residual_against_field(self):
        par = member(1.0, 1.0, 1.0)
        ts = np.linspace(0, 2 * math.pi, 500)
        deriv = periodic_derivative(par, ts)
        field = np.array([vector_field(s) for s in periodic_solution(par, ts)])
        assert np.abs(deriv - field).max() < 1e-13

    def test_linear_relations_and_constant_z(self):
        par = member(-0.8, 0.6, 1.7)
        w = par.w
        ts = np.linspace(0, par.period, 300)
        orbit = periodic_solution(par, ts)
        assert np.abs(orbit[:, 1] - w * orbit[:, 2]).max() < 1e-13
        assert np.abs(orbit[:, 3] + w * orbit[:, 0]).max() < 1e-13
        assert np.abs(orbit[:, 4] + w * w).max() == 0.0

    def test_m1_conserved_quantities_constant(self):
        par = member(1.0, -1.3, 0.7)
        f1_0 = par.x1 ** 2 + par.x2 ** 2
        f2_0 = par.w
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


# the SHA-256 of the bytes of periodic_solution and then periodic_derivative
# on TIME_GRID: the families of PUNCTURE_PINS and the periodic families of the
# cli_session benchmark at seeds 0-9, each (x1, y1, x2) read as the chart
# point R(x1, x2, y1 / x2)
TIME_GRID = np.linspace(-7.5, 20.0, 1001)
CLOSED_FORM_DIGESTS = {
    (0.0, 1.0, 1.0):
        "9794d97f24de5f61a1c5e66ccecbca48192cce878c7a65bb64a7c7108e93e261",
    (1.3, 0.9, -0.4):
        "4184cf790b08a72ff63e21ccc84c52ac9bf07b25d8ce301614218c6e6b3577ce",
    (0.3, 1.2, -0.7):
        "48979848f61da7f824e06b3e637f1bc776cb03793bfa7e704bc8c0c703113101",
    (0.6, 1.1, -0.8):
        "2c4cbb089d17c61da1c20a42d80048f84d9c4ad6da348a938c44a7a7fb8d1a6e",
    (0.3, 1.2, 0.7):
        "e72e2304ed02096fd0aedb24c63f875d4f5a7c487d61f98f1194d15a18c0b4cc",
    (-0.9, 1.2, 0.7):
        "1475c283411f310da941bca303cc2885b222c77d8a60e6baed9f418b780c397c",
    (0.3, -1.2, 0.7):
        "c19a6e9ef7cef11b1b10aafec2aae6ad87879a822151055e411a71d0b66078dc",
    (-0.9, -1.2, 0.7):
        "cfee63e17915183fcf9f78b8cb57dcba1b9e9662e5b052d24c4da0348d22b8f9",
    (-0.9, 1.2, -0.7):
        "ccb2bbec58140c9ada4fe41ef98f05a0ecdd92228202d639e6d52bb2ab494e6a",
    (0.3, -1.2, -0.7):
        "85e98051bc5bed907e21429e91b5179bbddc64ce7c641372d22640a2ad6eabb9",
    (-0.9, -1.2, -0.7):
        "0043411b57ba8af8e370d8fceb7a304ad10e11625e531d8867aca5653dc10efc",
    (0.7350132223266828, 0.9217324690302564, 1.4455269879665096):
        "5fdabd302e7db36973d7238d2dc9aad810d262e3ad1490a361218b8067188aac",
    (-0.6904548694991911, 0.5904917323230515, 1.0803150624469557):
        "5133d3c524c5a296224179e8a8ad8ca52676432688bda7479f3ae6f0fd5d1934",
    (1.439874757834775, 0.673647060174884, 0.6663575177000088):
        "eea071fbe73def4bdb32b72369c6eaeab1e2b69dc2ef9a5bb2659231677dd613",
    (-0.6014922013869107, 1.0626433737719143, 1.4648616584517025):
        "9d81bc87a75cd039dee9a310f33626392914496cbb0c6df86d4ebf6271b96789",
    (0.25176980259868653, 0.9784998809208645, 0.8725652694284134):
        "78864109e8540e2ea2564c8bdb7f22b224534ebd9c0bd3c3188790f29406d186",
    (1.4394868858145196, 0.9585057456516982, 1.3591031694759692):
        "ae659115b4e0519d622a8b2b8d4c38c869a6129ed299f5fa427a959a69deb6db",
    (1.1813009024680228, 0.8686905077736771, 1.0309401361746566):
        "fa2ad500c8f1f2ea8636a737eb0007e01de97ccb05d3a5ffd33f1e77464ecad2",
    (1.4739967594837453, 0.815888285927046, 1.029521537480921):
        "ad6623ad3d1ea58cefd155c1487c294fc68fc469c1addeceae671b129ef3fcb3",
    (1.4664149245236238, 1.057127903413915, 1.1124036621085585):
        "6ec03af693522f97825c9ff053a58e7206f0c6a444169ae434093c5ee8f17fc2",
    (-1.0478903613589725, 1.453459635244089, 0.8072517178102723):
        "e94cb3adde2f060dd71224e7fb50edcdb328ac525bc96804a5027033433877c9",
    (0.6778017532880192, -1.323733607542597, -0.9176467931327809):
        "5b6965abfbdf657590e97e0ceda934052f740b48ca23f63023b07f7fd898fd5a",
    (-1.3666292566378102, 1.38126768751407, -1.0383889641920934):
        "56af353c4c568b30a4b8cb6c01953f824bc82193c41f27a77aee00b5d444263c",
    (-0.2177473083947219, 1.202600603821315, 0.6074742648135749):
        "a7f555740d70a3ee82b6d1c0ec7374d6366f72b1345078b0eee8bbb232be49b9",
    (0.6084649903956887, -1.100351634713374, 0.8183613256556694):
        "0cf5a1b1100d0e252b6531aeb11d212bb1bbe617e40c31507b4fa346d06e5773",
    (0.2033483654849193, -1.3148970768708748, 1.180438545817037):
        "3cc2132316fecdb2718321f68a99b85569b3f1dea75068e237a73b890bd13c22",
    (0.3249906636732156, 0.9532716765561947, 0.746724364840694):
        "93c49b1d324c5d7bfd2b154760337aa4674c20d7db9754a9f0e7d75cfc337e37",
    (0.5615256970636233, 0.5880566721664492, 0.796258643914288):
        "22cd7061269b1f4485eba3a6698375c633129ca1bbcae9149919457a45503e4d",
    (1.1992823144456999, -1.0145011560604273, -0.7508514408215013):
        "b36440a3fe75221a70ce973358a23c62d404af59fcb6b66eb93e8f8e75174e72",
    (-0.4835650157844933, 1.1672956315500151, -1.4047774276933274):
        "55c6d3dfb437e83411af823c9bd55fe20c026405f206094b88ac87582a9afa45",
    (0.5819732749764954, 1.2944423289857825, 0.9230952113082679):
        "56b174081cb172353a713124d3268fbc9dc5a8dbd5923007e782fdab36957716",
}


class TestPunctures:
    def test_quarter_phase_schedule(self):
        par = member(0.0, 1.0, 1.0)
        for k in range(4):
            assert par.puncture_time(k) == pytest.approx(math.pi / 2 + k * math.pi)
            # x2(t) = cos t indeed vanishes there
            assert abs(periodic_solution(par, par.puncture_time(k))[2]) < 1e-12

    def test_phase_identities(self):
        # the first puncture lies within one spacing of t = 0, where (x1, x2)
        # has turned to (+-r, 0)
        par = member(1.3, 0.9, -0.4)
        r, t0 = math.hypot(par.x1, par.x2), par.puncture_time(0)
        assert 0.0 <= t0 < par.puncture_spacing == pytest.approx(math.pi * 0.4 / 0.9)
        assert abs(periodic_solution(par, t0)[0]) == pytest.approx(r, abs=1e-14)
        assert par.puncture_time(1) - t0 == pytest.approx(par.puncture_spacing)

    @pytest.mark.parametrize("x2_sign,y1_sign", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_count_matches_sign_changes_in_every_quadrant(self, x2_sign, y1_sign):
        for x1 in (0.3, -0.9):
            par = member(x1, y1_sign * 1.2, x2_sign * 0.7)
            grid = np.linspace(0.0, 20.0, 200001)
            x2 = periodic_solution(par, grid)[:, 2]
            changes = int(np.sum(np.sign(x2[1:]) * np.sign(x2[:-1]) < 0))
            assert par.punctures_in(20.0) == changes
            assert 0.0 < par.puncture_time(0) < par.puncture_time(1)
            assert abs(periodic_solution(par, par.puncture_time(0))[2]) < 1e-12

    @pytest.mark.parametrize("family", list(PUNCTURE_PINS))
    def test_punctures_keep_their_bits(self, family):
        par = member(*family)
        times = " ".join(par.puncture_time(k).hex() for k in range(6))
        assert (times, par.punctures_in(20.0)) == PUNCTURE_PINS[family]

    @pytest.mark.parametrize("family", list(CLOSED_FORM_DIGESTS))
    def test_closed_form_keeps_its_bits(self, family):
        par = member(*family)
        digest = hashlib.sha256(periodic_solution(par, TIME_GRID).tobytes())
        digest.update(periodic_derivative(par, TIME_GRID).tobytes())
        assert digest.hexdigest() == CLOSED_FORM_DIGESTS[family]

    def test_x2_zero_excluded(self):
        with pytest.raises(ValueError):
            RankTwoPoint(1.0, 0.0, 1.0).puncture_time(0)

    def test_family_is_frozen(self):
        # no field can change under w, the period or the puncture times
        par = member(0.3, 1.2, -0.7)
        for field in dataclasses.fields(par):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(par, field.name, 1.0)
        with pytest.raises(DomainError):
            dataclasses.replace(par, x1=0.0, x2=0.0)

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
            call(member(0.3, 1.2, -0.7))
        assert type(info.value) is DomainError

    def test_numpy_integers_and_reals_are_read(self):
        par = member(0.3, 1.2, -0.7)
        assert par.puncture_time(np.int64(3)) == par.puncture_time(3)
        assert par.punctures_in(np.float32(20)) == par.punctures_in(20) == par.punctures_in(20.0)
        assert par.punctures_in(-1e308) == 0

    def test_puncture_point_lies_in_m2(self):
        par = member(0.6, 1.1, -0.8)
        w = par.w
        for k in (0, 1, 2):
            p = periodic_solution(par, par.puncture_time(k))
            assert abs(p[1]) < 1e-12  # y1 = 0
            assert abs(p[2]) < 1e-12  # x2 = 0
            assert abs(p[0]) > 1e-6  # x1 != 0 since x1^2 + x2^2 is conserved
            assert abs(p[4] * p[0] ** 2 + p[3] ** 2) < 1e-12  # z = -y2^2/x1^2


CLOSED_FORMS = {
    "homoclinic": (homoclinic, HomoclinicParams(c=1.5, theta0=0.4, sign=-1)),
    "homoclinic_derivative": (homoclinic_derivative, HomoclinicParams(c=1.5, theta0=0.4)),
    "periodic_solution": (periodic_solution, member(0.3, 1.2, -0.7)),
    "periodic_derivative": (periodic_derivative, member(0.3, 1.2, -0.7)),
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
