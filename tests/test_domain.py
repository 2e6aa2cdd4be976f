"""The one reader of real input: every entry point that takes a state, a
stack, a time or a number reads it by one rule and refuses a bad one with
exactly ``DomainError``."""

import functools
import math
import sys
from fractions import Fraction

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
    # a mapping or a set is not a state: not its keys, nor a set in hash order
    "dict": {0: 9, 1: 9, 2: 9, 3: 9, 4: 9},
    "set": {1.0, 0.5, 0.25, 2.0, 0.2},
    # a 0-d array is not a real number, whatever its dtype
    "0d-bool-array": [np.array(True), 0, 0, 0, 0],
    "0d-str-array": [np.array("x"), 0, 0, 0, 0],
    "0d-none-array": [np.array(None), 0, 0, 0, 0],
    "nested-too-deep": functools.reduce(lambda p, _: [p], range(10 ** 4), 0.0),
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


# real-looking states on which the dtype NumPy infers and finite_state's
# reading of each component disagree
EDGE_STATES = {
    "int-past-int64": [2 ** 70, 0, 0, 0, 0],  # an object array; a finite float
    "fraction": [Fraction(1, 3), 0, 0, 0, 0],  # the same
    "numpy-bool": [np.bool_(True), 0, 0, 0, 0],  # an int array; not a real number
    "numpy-bool-array": np.array([True, False, True, False, True]),
    "python-bools": [True, False, True, False, False],  # a bool array; real numbers
}
STATES = {**BAD_STATES, **EDGE_STATES}


def accepts(fn, p):
    """Whether fn takes p; False where it raises exactly DomainError."""
    try:
        fn(p)
    except DomainError as err:
        assert type(err) is DomainError
        return False
    return True


def classify_at_leaf_0(p):
    """cartan_classify past its reading of p: a state off the axis or off
    the leaf C = 0 is read, then refused for that."""
    try:
        equilibria.cartan_classify(p, 0.0)
    except DomainError as err:
        if "axis" not in str(err) and "leaf" not in str(err):
            raise


@pytest.mark.parametrize("state", STATES)
def test_one_rule_for_a_state_in_every_path(monkeypatch, state):
    # core reads arrays of states, the integrators and cartan_classify one
    # state, and rank_F one state on plain floats where NumPy is not loaded:
    # each takes exactly what finite_state takes
    p = STATES[state]
    taken = [accepts(fn, p) for fn in (finite_state, ENTRY_POINTS["integrate"],
                                       ENTRY_POINTS["rk4_step"], classify_at_leaf_0,
                                       core.vector_field, core.conserved,
                                       invariant_sets.rank_F)]
    monkeypatch.delitem(sys.modules, "numpy")
    taken.append(accepts(invariant_sets.rank_F, p))
    assert taken in ([True] * len(taken), [False] * len(taken))


def _component_values():
    """Each component value of STATES once (a row of a stack is a grid of
    times, not a time), plus reals that NumPy's dtype inference misreads."""
    values = {}
    for p in [*STATES.values(), [2 ** 70, Fraction(1, 2), True]]:
        for v in p if isinstance(p, (list, np.ndarray)) else [p]:
            if not isinstance(v, list):
                values.setdefault((type(v), repr(v)), v)
    return list(values.values())


@pytest.mark.parametrize("t", _component_values(), ids=lambda v: f"{type(v).__name__}-{v!r:.20}")
@pytest.mark.parametrize("closed_form", [
    lambda t: solutions.homoclinic(solutions.HomoclinicParams(c=1.5), t),
    lambda t: solutions.periodic_solution(invariant_sets.RankTwoPoint(0.3, -0.7, -1.2 / 0.7),
                                          t),
], ids=["homoclinic", "periodic_solution"])
def test_a_time_is_read_as_a_state_component_is(closed_form, t):
    assert accepts(closed_form, t) is accepts(finite_state, [t, 0, 0, 0, 0])


@pytest.mark.parametrize("state", STATES)
def test_a_stack_is_checked_a_state_at_a_time(state):
    stack = [[0.5, 0.0, -1.0, 2.0, 0.0], STATES[state]]
    taken = accepts(finite_state, STATES[state])
    for fn in (core.vector_field, core.conserved, invariant_sets.rank_F):
        assert accepts(fn, stack) is taken
    assert accepts(core.conserved, [stack, stack]) is taken


@pytest.mark.parametrize("make", [
    lambda: integrate.IntegratorConfig(t_end=10 ** 400),
    lambda: integrate.IntegratorConfig(method="rk4", t_end=10 ** 400),
    lambda: invariant_sets.RankTwoPoint(10 ** 400, 1, 1),
    lambda: invariant_sets.RankTwoPoint(1, 10 ** 400, 1),
    lambda: invariant_sets.RankTwoPoint(1, 1, 10 ** 400),
    lambda: solutions.HomoclinicParams(c=10 ** 400),
    lambda: solutions.HomoclinicParams(c=1.0, theta0=math.inf),
    lambda: solutions.periodic_orbit(invariant_sets.RankTwoPoint(10 ** 400, 1, 1)),
    lambda: solutions.periodic_orbit(invariant_sets.RankTwoPoint(1, 1, 10 ** 400)),
    lambda: integrate.rk4_step([1.0, 0.0, 0.0, 0.0, 0.0], 10 ** 400),
    lambda: integrate.rk4_step([1.0, 0.0, 0.0, 0.0, 0.0], "0.1"),
    lambda: integrate.rk4_step([1.0, 0.0, 0.0, 0.0, 0.0], math.inf),
    lambda: integrate.rk4_step([1.0, 0.0, 0.0, 0.0, 0.0], -math.inf),
    lambda: integrate.rk4_step([1.0, 0.0, 0.0, 0.0, 0.0], math.nan),
    lambda: solutions.HomoclinicParams(c=1.0, sign=True),
    lambda: solutions.HomoclinicParams(c=1.0, sign=1.0),
], ids=["t_end", "rk4-t_end", "RankTwoPoint-x1", "RankTwoPoint-x2", "RankTwoPoint-w",
        "homoclinic-c", "homoclinic-theta0",
        "periodic-x1", "periodic-y1", "rk4_step-huge-h", "rk4_step-string-h",
        "rk4_step-inf-h", "rk4_step-minus-inf-h", "rk4_step-nan-h", "homoclinic-bool-sign",
        "homoclinic-float-sign"])
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
