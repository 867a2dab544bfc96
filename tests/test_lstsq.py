"""Exact and floating-point behavior of the small least-squares solver."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactgeo.errors import DegenerateSystem
from contactgeo.lstsq import solve_least_squares


def test_exact_two_column_fit():
    # residual-free system: a + b = 3, a - b = 1, 2a = 4
    rows = [(1, 1), (1, -1), (2, 0)]
    rhs = [3, 1, 4]
    fit = solve_least_squares(rows, rhs)
    assert fit.exact
    assert fit.values == [Fraction(2), Fraction(1)]


def test_exact_overdetermined_residual():
    # x fitted to both 0 and 1: best value 1/2, residual 1/2 on each row
    fit = solve_least_squares([(1,), (1,)], [0, 1])
    assert fit.exact
    assert fit.values == [Fraction(1, 2)]


def test_fractions_stay_fractions():
    fit = solve_least_squares([(Fraction(1, 3),)], [Fraction(1, 6)])
    assert fit.exact
    assert fit.values == [Fraction(1, 2)]


def test_zero_column_dropped():
    fit = solve_least_squares([(1, 0), (2, 0)], [2, 4])
    assert fit.values == [Fraction(2), None]


def test_all_columns_zero_raises():
    with pytest.raises(DegenerateSystem):
        solve_least_squares([(0, 0), (0, 0)], [1, 2])


def test_no_rows_raises():
    with pytest.raises(DegenerateSystem):
        solve_least_squares([], [])


def test_float_fallback():
    fit = solve_least_squares([(1.0, 1.0), (1.0, -1.0)], [3.0, 1.0])
    assert not fit.exact
    assert fit.values[0] == pytest.approx(2.0)
    assert fit.values[1] == pytest.approx(1.0)


def test_float_singular_raises():
    # duplicated column: rank-deficient after keep filtering
    with pytest.raises(DegenerateSystem):
        solve_least_squares([(1.0, 1.0), (2.0, 2.0)], [1.0, 2.0])


def test_mixed_types_use_float_path():
    fit = solve_least_squares([(1, 0.5), (0, 1.0)], [2.0, 2.0])
    assert not fit.exact
    assert fit.values[0] == pytest.approx(1.0)
    assert fit.values[1] == pytest.approx(2.0)


# --- row weights -------------------------------------------------------------


def _repeated(rows, rhs, weights):
    rows_r = [row for row, w in zip(rows, weights) for _ in range(w)]
    rhs_r = [b for b, w in zip(rhs, weights) for _ in range(w)]
    return rows_r, rhs_r


def _outcome(rows, rhs, weights=None):
    try:
        fit = solve_least_squares(rows, rhs, weights)
    except DegenerateSystem as err:
        return str(err)
    return fit.values, fit.exact


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.integers(1, 2).flatmap(lambda k: st.lists(
    st.tuples(st.tuples(*[small] * k), small, st.integers(1, 5)),
    min_size=1, max_size=6)))
@settings(max_examples=100, deadline=None)
def test_exact_weights_equal_repeated_rows(system):
    rows, rhs, weights = (list(x) for x in zip(*system))
    assert _outcome(rows, rhs, weights) == _outcome(*_repeated(rows, rhs, weights))


def _float_reference(rows, rhs):
    # the float path without weights, kept here verbatim
    keep = [j for j in range(len(rows[0])) if any(row[j] != 0 for row in rows)]
    A = np.array([[float(row[j]) for j in keep] for row in rows], dtype=float)
    b = np.array([float(x) for x in rhs], dtype=float)
    sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    values = [None] * len(rows[0])
    for a, j in enumerate(keep):
        values[j] = float(sol[a])
    return values


FLOAT_SYSTEMS = [
    ([(1.0, 1.0), (1.0, -1.0), (0.1, 0.7), (2.0, 1e-3)], [3.0, 1.0, 0.3, 2.2]),
    ([(0.3, 0.0), (1 / 3, 0.0), (2.5, 0.0)], [0.1, 0.2, 0.7]),
    ([(1, 0.5), (0, 1.0), (3, -0.25)], [2.0, 2.0, 1.0]),
]


@pytest.mark.parametrize("rows, rhs", FLOAT_SYSTEMS)
def test_float_without_weights_is_unchanged(rows, rhs):
    fit = solve_least_squares(rows, rhs)
    assert not fit.exact
    # repr tells every float apart, -0.0 from 0.0 included
    assert repr(fit.values) == repr(_float_reference(rows, rhs))


@pytest.mark.parametrize("rows, rhs", FLOAT_SYSTEMS)
def test_float_weights_equal_repeated_rows(rows, rhs):
    weights = [3, 1, 2, 4][:len(rows)]
    fit = solve_least_squares(rows, rhs, weights)
    again = solve_least_squares(*_repeated(rows, rhs, weights))
    assert not fit.exact
    assert fit.values == again.values
