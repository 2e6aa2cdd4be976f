import dataclasses
import hashlib
import random
import sys

import numpy as np
import pytest

from mbloch import core
from mbloch import invariant_sets as inv
from mbloch.core import DomainError, conserved, vector_field
from mbloch.integrate import integrate
from mbloch.verify import (chart_grid, invariant_I_factorizes, pieces_not_invariant,
                           rank2_field_is_rotation, rank2_on_pieces, rank3_generic,
                           union_is_invariant)


def _lattice_points(seed, n):
    """n chart points with x1, x2, w on the 1/8 lattice of [-2, 2], (x1, x2)
    != 0, where the chart identities compute exactly."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        x1, x2, w = rng.integers(-16, 17, size=3) / 8
        if x1 or x2:
            points.append(inv.RankTwoPoint(x1, x2, w))
    return points


class TestJacobian:
    def test_origin_rows_and_rank(self):
        jac = inv.jacobian_F(np.zeros(5))
        assert np.array_equal(jac, [[0, 0, 0, 0, 0],
                                    [0, 0, 0, 0, 0],
                                    [0, 0, 0, 0, 1]])
        assert inv.rank_F(np.zeros(5)).rank == 1

    def test_axis_equilibrium_rank_one(self):
        # grad H = c*e5 and grad C = e5 are parallel, grad I = 0
        for c in (1.0, -2.0):
            rep = inv.rank_F([0, 0, 0, 0, c])
            assert rep.rank == 1

    def test_generic_point_full_rank(self):
        p = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert inv.rank_F(p).rank == 3
        # SVD oracle from numpy agrees
        assert np.linalg.matrix_rank(inv.jacobian_F(p)) == 3

    def test_rows_are_gradients(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(10):
            p = rng.uniform(-2, 2, size=5)
            fd = np.empty((3, 5))
            for m in range(5):
                dp = np.zeros(5)
                dp[m] = h
                fd[:, m] = (np.array(conserved(p + dp))
                            - np.array(conserved(p - dp))) / (2 * h)
            assert np.abs(inv.jacobian_F(p) - fd).max() < 1e-8

    def test_rank_report_contract(self):
        rep = inv.rank_F([1, 2, 3, 4, 5])
        assert np.all(np.diff(rep.singular_values) <= 0)
        assert np.all(rep.singular_values >= 0)
        assert rep.rank == int(np.sum(rep.singular_values > rep.tol_used))

    def test_rank_two_at_a_large_coordinate(self):
        # the three gradients are about 1e100 long there and still dependent
        assert inv.rank_F(inv.RankTwoPoint(1e100, 1.0, 1.0).state).rank == 2


class TestEmbeddings:
    def test_m1_embed_example(self):
        q = inv.RankTwoPoint(1.0, 1.0, 1.0)
        assert np.array_equal(q.state, [1, 1, 1, -1, -1])
        assert inv.rank_F(q.state).rank == 2

    def test_a_point_keeps_its_embedded_state(self):
        # read once, at construction, as a tuple of five floats
        q1, q2 = inv.RankTwoPoint(2, -0.5, -2), inv.RankTwoPoint(np.float64(2.0), 0, -0.5)
        assert q1.state == (2.0, 1.0, -0.5, 4.0, -4.0) and q2.state == (2.0, 0.0, 0.0, 1.0, -0.25)
        assert all(type(v) is float for v in q1.state + q2.state)
        assert repr(q1) == "RankTwoPoint(x1=2.0, x2=-0.5, w=-2.0)"
        assert q1 == inv.RankTwoPoint(2.0, -0.5, -2.0)

    def test_m2_embed_ring_equilibrium(self):
        p = inv.RankTwoPoint(1.0, 0.0, 0.0).state
        assert np.array_equal(p, [1, 0, 0, 0, 0])
        assert np.array_equal(vector_field(p), np.zeros(5))

    def test_m2_embed_rank_two(self):
        p = inv.RankTwoPoint(2.0, 0.0, -0.5).state
        assert np.array_equal(p, [2, 0, 0, 1, -0.25])
        assert inv.rank_F(p).rank == 2

    def test_constraints_rejected(self):
        with pytest.raises(DomainError):
            inv.RankTwoPoint(0.0, -0.0, 1.0)  # the z-axis is not in the chart
        with pytest.raises(DomainError, match=r"the chart state R\(x1, x2, w\) = "
                                              r"\(1.0, 1e\+100, 1e-100, -1e\+200, -inf\) is not"):
            inv.RankTwoPoint(1.0, 1e-100, 1e200)  # z = -w^2 overflows
        with pytest.raises(DomainError):
            inv.RankTwoPoint(1e-200, 0.0, 1e200)  # the same with x2 = 0
        with pytest.raises(DomainError):
            inv.RankTwoPoint(1.0, 1.0, float("nan"))

    def test_from_m1_is_the_chart_point_at_w_y1_over_x2(self):
        q = inv.RankTwoPoint.from_m1(1, np.float64(3.0), 2)
        assert q == inv.RankTwoPoint(1.0, 2.0, 1.5)
        assert q.state == (1.0, 3.0, 2.0, -1.5, -2.25)

    @pytest.mark.parametrize("m1, match", [
        ((1.0, 1.0, 0.0), "needs x2 != 0"),
        ((1.0, 1.0, -0.0), "needs x2 != 0"),
        ((0.0, 2.2250738585e-313, 90071992548.0), "underflows to 0"),  # y1 / x2 rounds to 0
        ((1.0, float("nan"), 1.0), "not finite"),
        # w overflows, and the refusal names it before the chart state,
        # whose y2 = -w x1 would be a NaN at x1 = -0.0
        ((-0.0, 1.283575537728834e+202, -1.9400371845242413e-284),
         r"^w = y1 / x2 = -inf is not finite at y1 = 1.283575537728834e\+202, "
         r"x2 = -1.9400371845242413e-284$"),
    ], ids=["x2-zero", "x2-minus-zero", "w-underflows", "nan", "w-overflows"])
    def test_from_m1_refusals(self, m1, match):
        with pytest.raises(DomainError, match=match):
            inv.RankTwoPoint.from_m1(*m1)


def _scaled(rng):
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-100, 100)


def test_chart_states_keep_their_bits():
    # the SHA-256 of float.hex of every state component, signed zeros
    # included, on the chart grid and 10^4 seeded points, a third of whose
    # coordinates are 0.0 or -0.0, pinned from (x1, w x2, x2, -w x1, -w^2)
    rng = random.Random(2040)
    points = chart_grid()
    total = len(points) + 10 ** 4
    while len(points) < total:
        x1, x2, w = (rng.choice((_scaled(rng), 0.0, -0.0)) for _ in range(3))
        if x1 or x2:
            points.append(inv.RankTwoPoint(x1, x2, w))
    text = "\n".join(" ".join(v.hex() for v in q.state) for q in points)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "82ac4a5c4d3c8a71094c51d9f9507129d0351835fa7611e9ffae9137e144309b")


class TestMembership:
    def test_embedded_points_belong(self):
        # the defect reads a chart point's own w = I/s back to rounding
        rng = np.random.default_rng(18)
        for _ in range(50):
            w = rng.uniform(-5, 5)
            q1 = inv.RankTwoPoint(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.1, 2), w)
            q2 = inv.RankTwoPoint(rng.choice([-1, 1]) * rng.uniform(0.1, 2), 0.0, w)
            assert inv.rank_two_defect(q1.state) < 1e-15
            assert inv.rank_two_defect(q2.state) < 1e-15

    def test_generic_point_excluded(self):
        # s = 10, I = 2, w = 0.2: |z + w^2| = 5.04 over 1 + |p|^2 = 56
        assert inv.rank_two_defect([1, 2, 3, 4, 5]) == 5.04 / 56

    def test_defect_is_infinite_without_a_chart_parameter(self):
        # s = 0 (the z-axis, not in R, or s underflows), and w = I/s past the
        # float range, where w x2 = inf * 0 is NaN
        for p in ([0, 0, 0, 0, 1.0], [0.0, 1.0, -0.0, 2.0, -3.0], [1e-170, 0, 0, 0, 0],
                  [3e-162, 0.0, 0.0, 1e150, 0.0]):
            assert inv.rank_two_defect(p) == float("inf")

    def test_defect_refuses_an_overflowing_scale(self):
        # |p|^2, and with it s, overflows at a finite state: not a silent 0
        for p in ([1e200, 0, 0, 0, 0], [1.0, 1e155, 1.0, 1.0, 1.0],
                  np.array([1.0, 0, 0, 0, 1e160])):
            with pytest.raises(DomainError, match="overflows"):
                inv.rank_two_defect(p)


class TestReducedDynamics:
    """On the chart the field is the rotation w K p, K p = (x2, y2, -x1, -y1, 0):
    the paper's reduced dynamics on M1 and its conserved pair (f1, f2) = (s, w)."""

    def test_zero_velocity_on_ring(self):
        assert inv.RankTwoPoint(1.0, 1.0, 0.0).state == (1.0, 0.0, 1.0, -0.0, -0.0)
        assert not vector_field(inv.RankTwoPoint(1.0, 1.0, 0.0).state).any()

    def test_example_value(self):
        assert tuple(vector_field(inv.RankTwoPoint(1.0, 1.0, 1.0).state)) == (1, -1, -1, -1, 0)

    def test_tangency_through_embedding(self):
        # exactly w K p at chart points of the 1/8 lattice
        assert rank2_field_is_rotation(_lattice_points(19, 30))

    def test_conserved_pair(self):
        q = inv.RankTwoPoint(1.0, 1.0, 1.0)
        assert conserved(q.state).I == q.w * (q.x1 ** 2 + q.x2 ** 2) == 2.0

    def test_f1_directional_derivative(self):
        q = inv.RankTwoPoint(1.0, 1.0, 1.0)
        dx1, _, dx2, _, _ = vector_field(q.state)
        assert 2 * q.x1 * dx1 + 2 * q.x2 * dx2 == 0.0

    def test_f2_directional_derivative(self):
        # quotient rule for w = y1/x2 along the flow
        q = inv.RankTwoPoint(2.0, 1.0, 1.0)
        _, y1, x2, _, _ = q.state
        _, dy1, dx2, _, _ = vector_field(q.state)
        assert dy1 / x2 - y1 * dx2 / x2 ** 2 == 0.0

    def test_tiny_x2_reduced_field_is_finite(self):
        # x2^2 underflows to 0 here; w = 1e100 and w^2 do not
        field = vector_field(inv.RankTwoPoint(1.0, 1e-200, 1e100).state)
        assert tuple(field) == pytest.approx((1e-100, -1e200, -1e100, -1.0, 0.0), rel=1e-15)

    def test_overflowing_reduced_field_is_a_domain_error(self):
        # y2 = -w x1 = -1e400: the chart refuses the state
        with pytest.raises(DomainError):
            inv.RankTwoPoint(1e200, 1.0, 1e200)

    def test_overflowing_f1_is_a_domain_error(self):
        # s = x1^2 + x2^2 overflows at this finite chart state
        with pytest.raises(DomainError):
            inv.rank_two_defect(inv.RankTwoPoint(1e200, 1.0, 1e-300).state)

    def test_numpy_float_fields_overflow_as_python_floats(self):
        # NumPy's scalar overflow warning is an error under this suite, and
        # would pre-empt the DomainError
        big = np.float64(1e200)
        with pytest.raises(DomainError, match="inf"):
            inv.RankTwoPoint(big, 1.0, big)
        with pytest.raises(DomainError):
            inv.rank_two_defect(np.array([big, 0.0, 0.0, 0.0, 0.0]))
        q = inv.RankTwoPoint(np.float64(2.0), np.float64(1.0), np.float64(0.5))
        assert all(type(v) is float for v in (q.x1, q.x2, q.w))

    # a chart point of each graph piece: M1 (x2 != 0) and M2 (x2 = 0)
    @pytest.mark.parametrize("args,state", [
        ((1, np.float64(3.0), 2), [1, 6, 3, -2, -4]),
        ((2, 0, 0.5), [2, 0, 0, -1, -0.25])], ids=["M1Point", "M2Point"])
    def test_points_are_frozen(self, args, state):
        # no field changes under the kept state, so it stays on the chart
        q = inv.RankTwoPoint(*args)
        for name in (*(f.name for f in dataclasses.fields(q)), "state"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(q, name, 5.0)
        with pytest.raises(DomainError):
            dataclasses.replace(q, x1=0.0, x2=0.0)
        assert type(q.state) is tuple and q.state == tuple(map(float, state))
        assert all(type(v) is float for v in q.state)

    def test_invariant_i_factorizes(self):
        # I = w s, 2H = w^2 s + w^4 and 2C = s - 2 w^2, exactly on the lattice
        assert invariant_I_factorizes(_lattice_points(20, 50))


class TestRankDichotomy:
    def test_generic_sample_full_rank(self):
        assert rank3_generic(random.Random(21), 200)

    def test_embedded_sample_rank_two(self):
        rng = np.random.default_rng(22)
        # about a third of them on M2, x2 = 0
        x2 = rng.choice([-1, 1, 0], size=100) * rng.uniform(0.05, 2, size=100)
        points = [inv.RankTwoPoint(rng.uniform(-2, 2), v, rng.uniform(-3, 3)) for v in x2]
        assert rank2_on_pieces(points)


class TestInvarianceProbe:
    def test_equilibrium_member_constant(self):
        rep = inv.invariance_probe(inv.RankTwoPoint(1.0, 1.0, 0.0), 5.0)
        assert rep.max_distance_to_union == 0.0
        assert rep.puncture_count == 0 and rep.predicted_punctures is None

    def test_single_piece_not_invariant(self):
        # x2 crosses zero once by t = 2: the orbit leaves M1
        q0 = inv.RankTwoPoint(0.0, 1.0, 1.0)
        assert pieces_not_invariant(inv.invariance_probe(q0, 2.0))

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            inv.invariance_probe(inv.RankTwoPoint(1.0, 1.0, 1.0), 0.0)

    def test_start_on_m2_predicts_no_punctures(self):
        # x2 = 0 at the start: the puncture times are read off x2 / y1, so
        # there is no prediction, and the rotation still crosses x2 = 0
        rep = inv.invariance_probe(inv.RankTwoPoint(1.0, 0.0, 1.0), 5.0)
        assert rep.predicted_punctures is None and rep.puncture_count == 1
        assert union_is_invariant(rep)

    def test_underflowing_y1_predicts_no_punctures(self):
        # w = x2 = 1e-200 are not 0 but y1 = w x2 underflows to 0: the
        # puncture times are read off x2 / y1, which puncture_spacing
        # refuses, so the probe predicts none (it raised a DomainError)
        q0 = inv.RankTwoPoint(1.0, 1e-200, 1e-200)
        assert q0.state[1] == 0.0
        with pytest.raises(DomainError, match="the punctures need x2 != 0 and y1 = w x2 != 0"):
            q0.puncture_spacing
        rep = inv.invariance_probe(q0, 1.0)
        assert rep.predicted_punctures is None and rep.puncture_count == 0
        assert union_is_invariant(rep)


def _rows(large=True):
    """Seeded random states, chart points with x2 != 0 and with x2 = 0 and,
    with ``large``, the state (1e200, 1, 1, 1, 1)."""
    rng = np.random.default_rng(23)
    m1 = [inv.RankTwoPoint(*rng.uniform(0.1, 2, size=3)).state for _ in range(20)]
    m2 = [inv.RankTwoPoint(x1, 0.0, w).state for x1, w in rng.uniform(0.1, 2, size=(20, 2))]
    tail = [[1e200, 1.0, 1.0, 1.0, 1.0]] if large else []
    return np.vstack([rng.uniform(-3, 3, size=(60, 5)), m1, m2, *tail])


class TestArrayInputs:
    """Each formula takes (5,) or (..., 5) and gives the bits of per-row calls."""

    @pytest.mark.parametrize("fn", [core.grad_H, core.grad_I, core.grad_C, inv.jacobian_F])
    def test_matches_per_row_calls(self, fn):
        rows = _rows()
        per_row = np.array([fn(r) for r in rows])
        assert np.array_equal(fn(rows), per_row)
        pick = [0, 1, 60, 80, -2, -1]
        assert np.array_equal(fn(rows[pick].reshape(2, 3, 5)),
                              per_row[pick].reshape(2, 3, *per_row.shape[1:]))

    def test_rank_matches_per_row_calls(self):
        rows = _rows()
        reports = [inv.rank_F(r) for r in rows]
        for field in ("singular_values", "rank", "tol_used"):
            per_row = np.array([getattr(r, field) for r in reports])
            assert np.array_equal(getattr(inv.rank_F(rows), field), per_row)
            assert np.array_equal(getattr(inv.rank_F(rows[-6:].reshape(2, 3, 5)), field),
                                  per_row[-6:].reshape(2, 3, *per_row.shape[1:]))

    def test_plain_singular_values_are_the_array_ones(self, monkeypatch):
        # rank_F reduces a single state on plain floats where NumPy is not
        # loaded: the bits of the array path, state by state, at zero-rich
        # states with signed zeros and at states scaled by 2^500 and 2^-500
        rng = np.random.default_rng(24)
        zero_rich = rng.uniform(-3, 3, size=(200, 5))
        pick = rng.integers(0, 3, size=zero_rich.shape)
        zero_rich[pick == 0], zero_rich[pick == 1] = 0.0, -0.0
        states = np.vstack([_rows(), zero_rich, _rows(large=False) * 2.0 ** 500,
                            _rows() * 2.0 ** -500])
        bits = lambda sv, rank, tol: ([float(s).hex() for s in sv], int(rank), float(tol).hex())
        stacked = inv.rank_F(states)
        arrays = list(map(bits, stacked.singular_values, stacked.rank, stacked.tol_used))
        assert set(stacked.rank) == {1, 2, 3}
        states = states.tolist()
        monkeypatch.delitem(sys.modules, "numpy")
        plain = [inv.rank_F(p) for p in states]
        assert all(type(rep.rank) is int and type(rep.tol_used) is float for rep in plain)
        assert [bits(rep.singular_values, rep.rank, rep.tol_used) for rep in plain] == arrays


# (x1, y1, x2, t_end) of the verify probe and of the scripted CLI session's
# probes (its seeds 0-9 and 7919)
PROBES = [
    (0.0, 1.0, 1.0, 10.0),
    (0.0, 1.0, 1.0, 20.0),
    (0.7350132223266828, 0.9217324690302564, 1.4455269879665096, 18.969762693168708),
    (-0.6904548694991911, 0.5904917323230515, 1.0803150624469557, 18.283228518927526),
    (1.439874757834775, 0.673647060174884, 0.6663575177000088, 17.520533532391823),
    (-0.6014922013869107, 1.0626433737719143, 1.4648616584517025, 17.859931163464392),
    (0.25176980259868653, 0.9784998809208645, 0.8725652694284134, 16.55836232219109),
    (1.4394868858145196, 0.9585057456516982, 1.3591031694759692, 21.118578497952694),
    (1.1813009024680228, 0.8686905077736771, 1.0309401361746566, 17.629188087041378),
    (1.4739967594837453, 0.815888285927046, 1.029521537480921, 18.60819167576443),
    (1.4664149245236238, 1.057127903413915, 1.1124036621085585, 18.865150385113765),
    (-1.0478903613589725, 1.453459635244089, 0.8072517178102723, 16.211423271562165),
    (-0.03182416114766373, 0.5746409013246772, 0.6372843405131541, 17.475673478911098),
]


@pytest.mark.parametrize("x1,y1,x2,t_end", PROBES)
def test_probe_distance_is_the_per_sample_maximum(monkeypatch, x1, y1, x2, t_end):
    runs = []

    def recording(p0, cfg):
        runs.append(integrate(p0, cfg))
        return runs[-1]

    # invariance_probe imports the integrator when it is called
    monkeypatch.setattr("mbloch.integrate.integrate", recording)
    # the chart point that ``invariant-probe --m1 x1,y1,x2`` starts from
    rep = inv.invariance_probe(inv.RankTwoPoint.from_m1(x1, y1, x2), t_end)
    want = max(inv.rank_two_defect(s) for s in runs[0].states)
    assert repr(rep.max_distance_to_union) == repr(float(want))
    assert union_is_invariant(rep) and pieces_not_invariant(rep)


def _rank3_one_at_a_time(rng, n):
    """``rank3_generic`` drawing and testing one point at a time."""
    ranks = []
    for _ in range(20 * n):
        p = np.array([rng.uniform(-2, 2) for _ in range(5)])
        if inv.rank_two_defect(p) < 1e-3:
            continue
        rep = inv.rank_F(p)
        if rep.singular_values[-1] < 1e-3:
            continue
        ranks.append(rep.rank)
        if len(ranks) == n:
            return all(r == 3 for r in ranks)
    return False


def _no_grad_I(monkeypatch):
    # grad I = 0 in the rows rank_F reduces: every draw is skipped, 20 n
    # draws are spent
    gradients = inv.gradient_components

    def broken(*comps):
        grad_h, _, grad_c = gradients(*comps)
        return grad_h, (0.0 * comps[0],) * 5, grad_c

    monkeypatch.setattr(inv, "gradient_components", broken)


def _keep_x1_above_1_9(monkeypatch):
    # about 2.5% of the draws are kept: 20 n draws end with fewer than n
    monkeypatch.setattr(inv, "rank_two_defect", lambda p: 1.0 if p[0] > 1.9 else 0.0)


# seeds 293 and 979 skip the draws 15 and 171 of their first batch, near the
# rank-2 set; 17, 27, 65 and 30 none
@pytest.mark.parametrize("seed,n,skips,want", [
    (0, 1, None, True), (17, 100, None, True), (27, 200, None, True),
    (65, 100, None, True), (30, 200, None, True), (293, 100, None, True), (979, 200, None, True),
    (0, 50, _no_grad_I, False), (0, 50, _keep_x1_above_1_9, False)])
def test_rank3_generic_draws_as_one_at_a_time(monkeypatch, seed, n, skips, want):
    if skips:
        skips(monkeypatch)
    rng, ref = random.Random(seed), random.Random(seed)
    assert rank3_generic(rng, n) is _rank3_one_at_a_time(ref, n) is want
    assert rng.getstate() == ref.getstate()
