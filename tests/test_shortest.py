"""The batched float formatter against ``repr``, value by value."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mbloch.shortest import csv_rows
from test_cli import oracle_csv, run_process, written_csv


def repr_rows(table):
    """The reference: ``repr`` of every value, joined by commas, a newline
    after each row."""
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()


def assert_repr(values, cols=8):
    """csv_rows equals repr on ``values`` laid out in rows of ``cols``."""
    values = np.asarray(values, dtype=np.float64).ravel()
    table = np.resize(values, (-(-values.size // cols), cols))
    got, want = csv_rows(table), repr_rows(table)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} rows differ, first: {bad[0]}")


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the neighbours of the largest double
        return np.concatenate([values, np.nextafter(values, np.inf),
                               np.nextafter(values, -np.inf)])


def test_random_bit_patterns():
    # every exponent, both signs, inf and nan included
    bits = np.random.default_rng(20201117).integers(0, 2 ** 64, size=10 ** 6,
                                                    dtype=np.uint64)
    assert_repr(bits.view(np.float64))


def test_powers_of_two():
    # the irregular rounding intervals (fraction 0) and, times -3, their
    # neighbours; -3 * 2^1023 overflows to -inf
    p = np.ldexp(1.0, np.arange(-1074, 1024))
    with np.errstate(over="ignore"):
        assert_repr(np.concatenate([p, -3 * p]))


def test_powers_of_ten():
    assert_repr(with_neighbours([float(f"1e{i}") for i in range(-323, 309)]))


@pytest.mark.parametrize("kind", ["eighths", "integers", "scaled", "decimals"])
def test_values_with_few_digits(kind):
    # values near the ties of the closest-decimal choice (quarters and
    # eighths of large integers), integers and exactly scaled 53-bit integers
    # whose shortest form ends in zeros, and short decimals
    rng = np.random.default_rng(len(kind))
    ints = rng.integers(-2 ** 53, 2 ** 53, size=10 ** 5)
    values = {
        "eighths": rng.integers(-2 ** 56, 2 ** 56, size=10 ** 5) / 8.0,
        "integers": ints.astype(np.float64),
        "scaled": ints * np.ldexp(1.0, rng.integers(-1074, 971, size=ints.size)),
        "decimals": np.round(rng.normal(size=ints.size) * 10.0 ** rng.integers(-3, 9, ints.size),
                             4),
    }[kind]
    assert_repr(values)


def test_notation_switches():
    # fixed notation holds for a point position of -3 to 16
    assert_repr(with_neighbours([1e-4, 1e16, 9999999999999998.0, 1e-5, 1e15, 0.001]))
    assert csv_rows(np.array([[1e-4, 1e16, 9999999999999998.0, 1e-5]])) == \
        b"0.0001,1e+16,9999999999999998.0,1e-05\n"


def test_edge_values():
    tiny = np.finfo(np.float64).smallest_subnormal
    normal = np.finfo(np.float64).smallest_normal
    edges = [2.0 ** 53, np.nextafter(2.0 ** 53, 0), np.nextafter(2.0 ** 53, np.inf),
             np.finfo(np.float64).max, normal, np.nextafter(normal, 0), tiny, 0.0, -0.0,
             np.inf, -np.inf, np.nan, 5e-324, 8e-323, -1.5, 0.1 + 0.2]
    assert_repr(edges + [-v for v in edges])
    assert csv_rows(np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, tiny]])) == \
        b"0.0,-0.0,inf,-inf,nan,5e-324\n"


@pytest.mark.parametrize("value", [0.5, -0.001, 1e-7, 3.0, 1e20, 1e300, 0.0, 5e-324, np.nan])
def test_blocks_of_one_value(value):
    # the digit groups rendered depend on the widest value of a block
    table = np.full((3, 9), value)
    assert csv_rows(table) == repr_rows(table)


@pytest.mark.parametrize("shape", [(0, 9), (1, 1), (3, 1), (2, 2), (5, 9), (2000, 3)])
def test_separators(shape):
    table = np.random.default_rng(shape[0]).normal(size=shape)
    assert csv_rows(table) == repr_rows(table)


ANY_TABLES = arrays(np.float64, st.tuples(st.integers(0, 12), st.just(9)),
                    elements=st.floats(allow_nan=True, allow_infinity=True,
                                       allow_subnormal=True))


@settings(derandomize=True, deadline=None)
@given(ANY_TABLES)
def test_any_table(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "w.csv"
    assert written_csv(path, table) == oracle_csv(table)


def test_formatter_loads_only_with_a_csv():
    # the formatter's tables cost memory that commands without a CSV skip
    code = ("import sys, mbloch.cli as c\n"
            "c.main(['classify', '--c', '1'])\n"
            "assert 'mbloch.shortest' not in sys.modules\n")
    proc = run_process(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr
