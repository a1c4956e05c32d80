import math

import numpy as np
import pytest

from anisolab.expressions import ExpressionError, parse_expression


def test_constant_folding_and_pi():
    e = parse_expression("2*pi + 1")
    assert e.is_constant
    assert e() == pytest.approx(2 * math.pi + 1)


def test_precedence_and_unary_minus():
    assert parse_expression("1 + 2*3")() == 7
    assert parse_expression("-2*3")() == -6
    assert parse_expression("2 - 3 - 4")() == -5
    assert parse_expression("(1 + 2)*3")() == 9
    assert parse_expression("8/4/2")() == 1


def test_variables_and_vectorization():
    e = parse_expression("sin(x1)*cos(x2) + x1/2")
    x1 = np.linspace(0, 1, 7)
    x2 = np.linspace(0, 2, 7)
    expected = np.sin(x1) * np.cos(x2) + x1 / 2
    assert np.allclose(e(x1=x1, x2=x2), expected, atol=1e-15)
    assert e.variables == {"x1", "x2"}


def test_time_variable():
    e = parse_expression("exp(-t)*sin(x1)")
    assert e(x1=0.5, t=1.0) == pytest.approx(math.exp(-1) * math.sin(0.5))


@pytest.mark.parametrize("src,variables", [
    ("exp(-t)*sin(x1)", {"t", "x1"}),
    ("2*pi", set()),
    ("-(x2)/cos(x2)", {"x2"}),
])
def test_variables_through_calls_and_unary_minus(src, variables):
    e = parse_expression(src)
    assert e.variables == variables
    assert e.is_constant == (not variables)


def test_scientific_notation():
    assert parse_expression("1.5e-3 + 2E2")() == pytest.approx(0.0015 + 200.0)


@pytest.mark.parametrize("src,col", [
    ("sin(x1", 7),      # missing paren reported at end
    ("1 + * 2", 5),
    ("foo(x1)", 1),
    ("x3 + 1", 1),
    ("1 @ 2", 3),
])
def test_error_columns(src, col):
    with pytest.raises(ExpressionError) as err:
        parse_expression(src)
    assert err.value.column == col


def test_missing_variable_value():
    e = parse_expression("x1 + 1")
    with pytest.raises(ValueError, match="x1"):
        e(x2=1.0)


def test_constant_division_by_zero_is_ieee():
    # as on arrays: inf or nan, never ZeroDivisionError
    with np.errstate(divide="ignore", invalid="ignore"):
        assert parse_expression("1 + 1/(2-2)")() == math.inf
        assert parse_expression("-1/0")() == -math.inf
        assert math.isnan(parse_expression("0/0")())
        x1 = np.array([0.5, 1.0])
        assert np.array_equal(parse_expression("1/(x1-x1)")(x1=x1), [np.inf, np.inf])
    assert parse_expression("6/4")() == 1.5
