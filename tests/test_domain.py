"""The one check of a single state and of a scalar: every entry point that
takes a state or a number refuses a bad one with exactly ``DomainError``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbloch import core, equilibria, integrate, invariant_sets, solutions
from mbloch.domain import DomainError, finite_state, real_float

BAD_STATES = {
    "strings": ["1", "0", "0", "0", "0.5"],
    "complex": [1.0, 0.0, 0.0, 0.0, 0.5 + 1j],
    "int-past-float-range": [10 ** 400, 0, 0, 0, 0],
    "ragged-rows": [[1, 0, 0, 0, 0], [1, 0, 0, 0]],
    "ragged-component": [[1, 2], 0, 0, 0, 0],
    "four-components": [1.0, 0.0, 0.0, 0.0],
    "none": None,
    "bare-float": 1.0,
    "nan": [math.nan, 0.0, 0.0, 0.0, 0.0],
    "inf": [0.0, 0.0, 0.0, 0.0, math.inf],
}

ENTRY_POINTS = {
    "integrate": lambda p: integrate.integrate(p, integrate.IntegratorConfig(t_end=0.1)),
    "rk4_step": lambda p: integrate.rk4_step(p, 0.1),
    "cartan_classify": lambda p: equilibria.cartan_classify(p, 0.0),
    "vector_field": core.vector_field,
    "conserved": core.conserved,
    "rank_F": invariant_sets.rank_F,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("state", BAD_STATES)
def test_bad_state_is_a_domain_error_everywhere(entry, state):
    with pytest.raises(DomainError) as info:
        ENTRY_POINTS[entry](BAD_STATES[state])
    assert type(info.value) is DomainError


@pytest.mark.parametrize("make", [
    lambda: integrate.IntegratorConfig(t_end=10 ** 400),
    lambda: integrate.IntegratorConfig(method="rk4", t_end=10 ** 400),
    lambda: invariant_sets.M1Point(10 ** 400, 1, 1),
    lambda: invariant_sets.M2Point(1, 10 ** 400),
    lambda: solutions.HomoclinicParams(c=10 ** 400),
    lambda: solutions.HomoclinicParams(c=1.0, theta0=math.inf),
    lambda: solutions.PeriodicParams(10 ** 400, 1, 1),
    lambda: solutions.PeriodicParams(1, 10 ** 400, 1),
    lambda: integrate.rk4_step([1.0, 0.0, 0.0, 0.0, 0.0], 10 ** 400),
    lambda: integrate.rk4_step([1.0, 0.0, 0.0, 0.0, 0.0], "0.1"),
], ids=["t_end", "rk4-t_end", "M1Point", "M2Point", "homoclinic-c", "homoclinic-theta0",
        "periodic-x1", "periodic-y1", "rk4_step-huge-h", "rk4_step-string-h"])
def test_bad_scalar_is_a_domain_error(make):
    with pytest.raises(DomainError) as info:
        make()
    assert type(info.value) is DomainError


REALS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.integers(min_value=-10 ** 400, max_value=10 ** 400))  # past the float range too
ITEMS = st.one_of(REALS, st.sampled_from([math.nan, math.inf, -math.inf]),
                  st.text(max_size=3), st.complex_numbers(), st.none())


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(REALS, min_size=5, max_size=5) | st.lists(ITEMS, min_size=5, max_size=5))
def test_a_state_of_finite_reals_is_their_floats(items):
    floats = []
    for v in items:
        if isinstance(v, (int, float)):  # text, complex and None are not real
            try:
                floats.append(float(v))
            except OverflowError:
                pass
    if len(floats) == 5 and all(map(math.isfinite, floats)):
        point = finite_state(items)
        assert point == floats and all(type(v) is float for v in point)
    else:
        with pytest.raises(DomainError):
            finite_state(items)


@pytest.mark.parametrize("p", [
    [1, 0, 0, 0, -2], (1, 0.0, 0, 0, -2.0), np.array([1.0, 0, 0, 0, -2]),
    np.array([1, 0, 0, 0, -2]), [np.float32(1), np.int8(0), np.uint16(0), 0, -2],
    [True, False, 0, 0, -2],
])
def test_any_sequence_of_five_real_numbers_is_a_state(p):
    point = finite_state(p)
    assert point == [1.0, 0.0, 0.0, 0.0, -2.0] and all(type(v) is float for v in point)


@pytest.mark.parametrize("x", [np.bool_(True), "1", 1j, None, [1.0], np.array(1.0)])
def test_real_float_refuses_what_is_not_a_real_number(x):
    with pytest.raises(DomainError):
        real_float(x)


def test_real_float_only_converts():
    assert [real_float(v) for v in (3, np.float32(0.5), math.inf)] == [3.0, 0.5, math.inf]
    assert math.isnan(real_float(math.nan))
