"""The constant ledger samples a full grid in blocks of rows: every entry
equals the one-block evaluation bit for bit, a non-finite entry is still
named, and the ledger's memory stays bounded at the default 512 grid."""

import tracemalloc

import numpy as np
import pytest

from anisolab import coefficients
from anisolab.coefficients import CoefficientField, as_field, compute_constants
from anisolab.expressions import parse_expression

# a11, a12, declared d(a12)/dx1 and d(a12)/dx2, a21, a22
FIELDS = {
    "constant": ("2", "0.3", None, None, "0.25", "1.5"),
    "x1": ("1 + x1/4", "0.2*sin(x1)", "0.2*cos(x1)", None, "0.1*cos(2*x1)",
           "exp(-x1)"),
    "x2": ("1 + x2*x2/10", "0.3*cos(x2)", None, "-0.3*sin(x2)", "0.2*sin(x2)",
           "2 - sin(x2)/3"),
    "2d": ("1 + x1*x2/10", "0.2*sin(x1)*sin(x2)", "0.2*cos(x1)*sin(x2)",
           "0.2*sin(x1)*cos(x2)", "0.1*cos(x1 - x2)", "1 + x2*x2/10"),
    # no entry of both variables, but the entries broadcast to the full grid
    "broadcast": ("1 + x1/10", "0", None, None, "0", "1 + x2*x2/10"),
    # the coefficients of the rate_2d studies
    "rate_2d": ("1", "0.2*sin(x1)*sin(x2)", "0.2*cos(x1)*sin(x2)",
                "0.2*sin(x1)*cos(x2)", "0.2*sin(x1)*sin(x2)", "1"),
}


def coefficient_field(kind, lam=0.25):
    def field(value, dx1=None, dx2=None):
        return as_field(parse_expression(value),
                        dx1=None if dx1 is None else parse_expression(dx1),
                        dx2=None if dx2 is None else parse_expression(dx2))

    a11, a12, dx1, dx2, a21, a22 = FIELDS[kind]
    return CoefficientField(field(a11), field(a12, dx1, dx2), field(a21),
                            field(a22), lam=lam)


def bits(ledger):
    return {name: float(value).hex() for name, value in ledger.as_dict().items()}


@pytest.mark.parametrize("grid", [17, 65, 201, 512, 1024])
@pytest.mark.parametrize("kind", sorted(set(FIELDS) - {"rate_2d"}))
def test_blocks_equal_one_block(monkeypatch, dom, kind, grid):
    A = coefficient_field(kind)
    blocked = compute_constants(A, dom, grid=grid)
    monkeypatch.setattr(coefficients, "LEDGER_BLOCK_POINTS", grid * grid)
    assert bits(blocked) == bits(compute_constants(A, dom, grid=grid))


@pytest.mark.parametrize("grid,calls", [(65, 1), (181, 1), (182, 2), (512, 8),
                                        (1024, 32)])
def test_full_grid_fields_called_once_per_block(dom, grid, calls):
    counts = {}

    def counted(name, value):
        expression = parse_expression(value)

        def fn(x1, x2):
            counts[name] = counts.get(name, 0) + 1
            return expression(x1=x1, x2=x2)
        return fn

    # a callable is taken to depend on both variables
    A = CoefficientField(counted("a11", "1 + x1/10"), 0.0, 0.0,
                         counted("a22", "1 + x2*x2/10"), lam=1.0)
    compute_constants(A, dom, grid=grid)
    assert counts == {"a11": calls, "a22": calls}


def test_one_variable_sample_is_one_block(dom):
    calls = []
    a11 = parse_expression("1 + x1/10")
    field = coefficients.ScalarField(
        lambda x1, x2: calls.append(np.shape(x1)) or a11(x1=x1, x2=x2), {"x1"})
    compute_constants(CoefficientField(field, 0.0, 0.0, 1.0, lam=1.0), dom)
    assert calls == [(512, 1)]


@pytest.mark.parametrize("a11", [
    "1e200",
    # overflows in the last block only
    lambda x1, x2: np.where(x1 > 3.0, 1e200, 1.0),
])
@pytest.mark.parametrize("a12", ["0", "0.2*sin(x1)*sin(x2)"])
def test_overflow_names_sup_matrix(dom, a11, a12):
    coupling = as_field(parse_expression(a12),
                        dx1=parse_expression("0.2*cos(x1)*sin(x2)"),
                        dx2=parse_expression("0.2*sin(x1)*cos(x2)"))
    A = CoefficientField(parse_expression(a11) if isinstance(a11, str) else a11,
                         coupling, coupling, 1.0, lam=1.0)
    with pytest.raises(ValueError, match="^ledger entry sup_matrix is not finite$"):
        compute_constants(A, dom)


@pytest.mark.parametrize("kind", ["rate_2d", "broadcast"])
def test_ledger_peak_memory_is_bounded(dom, kind):
    A = coefficient_field(kind, lam=0.8)
    compute_constants(A, dom, grid=17)  # first-use imports and caches
    tracemalloc.start()
    try:
        compute_constants(A, dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20
