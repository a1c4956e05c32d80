"""Separable coefficients and sources kept factored: the exact split of an
expression into products of one-variable factors, the factored forms and
loads built from it, the coupling's symmetry verdict from its factors, and
the checks and report writer that ride along."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisolab import reports
from anisolab.assembly import (KronOperator, _matrix_1d, _plain_factor,
                               assemble_load, assemble_system)
from anisolab.cli import main
from anisolab.coefficients import (VALIDATE_GRID, CoefficientField,
                                   _axis_values, _sample_axes, as_field,
                                   compute_constants, grid_values)
from anisolab.config import shipped_config_dir
from anisolab.expressions import MAX_PRODUCTS, parse_expression
from anisolab.linsolve import _is_symmetric
from anisolab.spaces import TensorDomain, build_space

CONFIG_DIR = shipped_config_dir()
TOOL_CONFIG_DIR = Path(__file__).resolve().parents[1] / "tools" / "configs"


def _expr(source):
    return as_field(parse_expression(source))


def _split_on_grid(expr, x1, x2):
    """``sum scale * g * h`` of the split of ``expr`` on the tensor grid."""
    total = np.zeros((x1.size, x2.size))
    for scale, g, h in expr.separable():
        gv = 1.0 if g is None else g(x1=x1[:, None])
        hv = 1.0 if h is None else h(x2=x2[None, :])
        total += scale * (gv * hv)
    return total


def _whole_on_grid(expr, x1, x2):
    with np.errstate(all="ignore"):
        return grid_values(lambda u, v: expr(x1=u, x2=v), x1, x2)


_CONSTANTS = ["0.5", "1", "2", "3", "pi"]
_DIVISORS = ["2", "4", "pi", "(1 + 2)"]


def _grammar(leaves, call_arg):
    """Expressions over ``leaves``; a function is applied to ``call_arg``."""
    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*"), children).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            children.map(lambda a: f"-{a}"),
            st.tuples(children, st.sampled_from(_DIVISORS)).map(
                lambda t: f"({t[0]} / {t[1]})"),
            st.tuples(st.sampled_from(["sin", "cos", "exp"]), call_arg(children)).map(
                lambda t: f"{t[0]}({t[1]})"))
    return st.recursive(leaves, extend, max_leaves=6)


_LEAVES = st.sampled_from(["x1", "x2"] + _CONSTANTS)
# every function applied to an expression of one variable: always splits
_ONE_VARIABLE = _grammar(st.sampled_from(["x1"] + _CONSTANTS), lambda c: c)
_SEPARABLE = _grammar(_LEAVES, lambda c: st.one_of(
    _ONE_VARIABLE, _ONE_VARIABLE.map(lambda s: s.replace("x1", "x2"))))
_ANY = _grammar(_LEAVES, lambda c: c)


class TestSplit:
    AXES = _sample_axes(TensorDomain((0.0, math.pi), (0.0, math.pi)),
                        VALIDATE_GRID)

    def _check(self, expr):
        whole = _whole_on_grid(expr, *self.AXES)
        if not np.all(np.isfinite(whole)):
            return
        got = _split_on_grid(expr, *self.AXES)
        scale = max(1.0, np.max(np.abs(whole)))
        assert np.max(np.abs(got - whole)) <= 1e-12 * scale, expr.source

    @settings(max_examples=200, deadline=None)
    @given(_SEPARABLE)
    def test_separable_expression_splits_exactly(self, source):
        expr = parse_expression(source)
        assert expr.separable() is not None, source
        self._check(expr)

    @settings(max_examples=200, deadline=None)
    @given(_ANY)
    def test_any_expression_splits_exactly_or_not_at_all(self, source):
        expr = parse_expression(source)
        if expr.separable() is not None:
            self._check(expr)

    @settings(max_examples=50, deadline=None)
    @given(_ANY)
    def test_time_refuses_the_split(self, source):
        for text in (f"({source}) + t", f"({source}) * exp(-t)", f"t*{source}"):
            assert parse_expression(text).separable() is None

    @pytest.mark.parametrize("source", ["sin(x1*x2)", "1/(x1-x2+0.01)",
                                        "exp(x1 + x2)", "x1/x2",
                                        "t", "exp(-t)*sin(x1)*sin(x2)"])
    def test_refused(self, source):
        assert parse_expression(source).separable() is None

    def test_shipped_forms(self):
        (scale, g, h), = parse_expression("0.2*sin(x1)*sin(x2)").separable()
        assert (scale, g.source, h.source) == (1.0, "(0.2 * sin(x1))", "sin(x2)")
        products = parse_expression(
            "(2/pi)*(sin(x1)*sin(x2) + sin(2*x1)*sin(3*x2))").separable()
        assert [s for s, _, _ in products] == [2 / math.pi, 2 / math.pi]
        # a one-variable expression is one factor, as written
        (scale, g, h), = parse_expression("1 + 0.5*sin(x1)").separable()
        assert (scale, g.source, h) == (1.0, "(1.0 + (0.5 * sin(x1)))", None)

    def test_product_cap(self):
        def sums(k):
            return "(" + " + ".join(f"sin({i}*x1)*sin({i}*x2)"
                                    for i in range(1, k + 1)) + ")"
        assert len(parse_expression(f"{sums(4)}*{sums(4)}").separable()) == 16
        cap = sums(MAX_PRODUCTS)
        assert len(parse_expression(f"{cap}*sin(x1)").separable()) == MAX_PRODUCTS
        assert parse_expression(f"{cap}*(x1 + x2)").separable() is None

    def test_callable_keeps_both_variables(self):
        field = as_field(lambda x1, x2: (1 + x1) * (2 + x2))
        assert field.products is None


@pytest.fixture(params=["sine", "q1"])
def space8(request, dom):
    return build_space(dom, request.param, 8, request.param, 8)


def test_one_product_blocks_keep_their_arithmetic(space8):
    # a constant or one-variable coefficient is one product of itself: its
    # term is the plain factor, or the factor weighted by the coefficient's
    # values on its axis, bit for bit
    A = CoefficientField(_expr("1 + x1/4"), _expr("0.3"), _expr("0.1*cos(x2)"),
                         _expr("1 + x2*x2/10"), lam=0.5)
    system = assemble_system(space8, A)
    x1, x2 = space8.grid_axes

    def dense(B):
        return B.toarray() if hasattr(B, "toarray") else B

    # block, the direction of its coefficient, the coefficient and the
    # selectors of that direction's factor
    for block, direction, field, (t, s) in (
            (system.K11, 1, A.a11, (1, 1)), (system.K22, 2, A.a22, (2, 2)),
            (system.K21, 2, A.a21, (2, 0))):
        (scale, *factors), = block.terms
        want = _matrix_1d(space8, direction, t, s,
                          _axis_values(field, x1, x2).ravel())
        assert scale == 1.0
        assert np.array_equal(dense(factors[direction - 1]), want)
    (scale, B1, B2), = system.K12.terms
    assert scale == 0.3
    assert B1 is _plain_factor(space8, 1, 1, 0)
    assert B2 is _plain_factor(space8, 2, 0, 2)


# (a12, a21, symmetric); with zero traces the mixed partials commute, so a
# constant coupling is symmetric whatever a12 and a21 are, though its terms
# do not pair
COUPLINGS = {
    "separable": ("0.2*sin(x1)*sin(x2)", "0.2*sin(x1)*sin(x2)", True),
    "constants": ("0.3", "0.1", True),
    "separable-unequal": ("0.3*sin(x1)*sin(x2)", "0.1*sin(x1)*sin(x2)", False),
    "one-variable": ("sin(x1)", "sin(x1)", True),
}


def _coupled(a12, a21):
    return CoefficientField(1.0, _expr(a12), _expr(a21), 1.0, lam=0.5)


class TestSymmetryVerdict:
    @pytest.mark.parametrize("name", COUPLINGS)
    def test_verdict_equals_check_on_stiffness(self, space8, name):
        a12, a21, symmetric = COUPLINGS[name]
        system = assemble_system(space8, _coupled(a12, a21))
        assert not system.K12.remainders and not system.K21.remainders
        assert system.coupling_symmetric == _is_symmetric(system.stiffness(0.5))
        assert system.coupling_symmetric == symmetric

    @pytest.mark.parametrize("name", ["separable", "constants",
                                      "separable-unequal"])
    def test_sine_verdict_builds_no_csr(self, monkeypatch, dom, name):
        def no_csr(self):
            raise AssertionError("the verdict materialised the coupling")

        a12, a21, symmetric = COUPLINGS[name]
        system = assemble_system(build_space(dom, "sine", 8, "sine", 8),
                                 _coupled(a12, a21))
        assert system.K12.remainders == ()
        monkeypatch.setattr(KronOperator, "tocsr", no_csr)
        assert system.coupling_symmetric == symmetric

    def test_row_blocks_are_the_rows_of_the_matrix(self, dom, A_offdiag_variable):
        space = build_space(dom, "sine", 6, "sine", 5)
        system = assemble_system(space, CoefficientField(
            1.0, _expr("0.3*sin(x1)*cos(x2)"), A_offdiag_variable.a21, 1.0,
            lam=0.5))
        op = system.coupling
        assert op.terms and op.remainders
        blocks = list(op.row_blocks())
        assert len(blocks) == space.basis1.dim
        dense = op.toarray()
        assert np.allclose(np.vstack([b for b, _ in blocks]), dense,
                           rtol=0, atol=1e-15)
        assert np.allclose(np.vstack([t for _, t in blocks]), dense.T,
                           rtol=0, atol=1e-15)
        assert not _is_symmetric(op) and not _is_symmetric(op.tocsr())


class TestLoads:
    @pytest.mark.parametrize("source", [
        "(2/pi)*(1.1*sin(x1)*sin(x2) + 0.9*sin(3*x1)*sin(2*x2))",
        "1 + x1*x2/10", "x1*(pi - x1)*x2", "2.5", "cos(x2)"])
    def test_separable_load_equals_the_grid_load(self, space8, source):
        expr = parse_expression(source)
        assert expr.separable() is not None
        want = space8.load(grid_values(as_field(expr), *space8.grid_axes))
        got = assemble_load(space8, expr)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_other_sources_keep_the_grid_load(self, space8):
        for source in (_expr("sin(x1*x2)"),
                       lambda x1, x2: np.sin(x1) * np.sin(x2)):
            want = space8.load(grid_values(as_field(source), *space8.grid_axes))
            assert np.array_equal(assemble_load(space8, source), want)

    def test_nonfinite_factor_rejected(self, space8):
        with pytest.raises(ValueError, match="^source produced non-finite"):
            assemble_load(space8, parse_expression("sin(x2)/(x1-x1)*x2"))


class TestLedgerSups:
    # the sups of compute_constants before they ran in place
    @staticmethod
    def _reference(vals):
        sq = vals[0] ** 2 + vals[1] ** 2 + vals[2] ** 2 + vals[3] ** 2
        det = vals[0] * vals[3] - vals[1] * vals[2]
        disc = np.sqrt(np.maximum(sq ** 2 - 4.0 * det ** 2, 0.0))
        return ([float(np.max(np.abs(v))) for v in vals],
                float(np.max(np.sqrt(np.maximum((sq + disc) / 2.0, 0.0)))))

    @pytest.mark.parametrize("entries", [
        ("1", "0", "0", "1"),
        ("2", "-0.3", "-0.3", "1.5"),
        ("1 + x1/4", "0.2*sin(x1)", "0.1*cos(x2)", "1 + x2*x2/10"),
        ("1 + x1*x2/10", "0.2*sin(x1)*sin(x2)", "-0.4*sin(x1*x2)", "1")])
    def test_bit_identical(self, dom, entries):
        a11, a12, a21, a22 = entries
        A = CoefficientField(_expr(a11), as_field(parse_expression(a12), dx1=0.0,
                                                  dx2=0.0),
                             _expr(a21), _expr(a22), lam=0.1)
        grid = 129
        ledger = compute_constants(A, dom, grid=grid)
        axes = _sample_axes(dom, grid)
        sups, sup_matrix = self._reference(
            [_axis_values(a, *axes) for a in A.entries()])
        assert [ledger.sup_a11, ledger.sup_a12, ledger.sup_a21,
                ledger.sup_a22] == sups
        assert ledger.sup_matrix == sup_matrix


def _config_copy(tmp_path, source, edits):
    text = source.read_text()
    for old, new in edits.items():
        assert text.splitlines().count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / source.name
    path.write_text(text)
    return path


class TestPositionedErrors:
    @pytest.mark.parametrize("source,edits,message", [
        (TOOL_CONFIG_DIR / "parabolic_source.cfg",
         {"stepper = be": "stepper = cn"},
         "error: line 30, column 1: time-dependent sources are supported by "
         "the backward Euler stepper only\n"),
        (CONFIG_DIR / "solve_identity.cfg", {"lambda = 1": "lambda = 2"},
         "error: line 8, column 1: ellipticity check failed: min A xi.xi = 1 "
         "< lam = 2.0 for xi = (0.689, -0.724)\n"),
        (CONFIG_DIR / "solve_identity.cfg",
         {'a22 = "1"': 'a22 = "1 + 0.1*x1"'},
         "error: line 7, column 1: a22 declared x2-only but varies with x1 "
         "(spread 0.314)\n"),
    ], ids=["source-with-cn", "ellipticity", "a22-x2-only"])
    def test_error_at_the_key_and_no_output(self, tmp_path, capsys, source,
                                            edits, message):
        cfg_path = _config_copy(tmp_path, source, edits)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()


def _cell_text(report, rows):
    lines = [",".join(reports.CSV_COLUMNS[report])]
    lines += [",".join(map(reports._cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("report", reports.CSV_COLUMNS)
def test_template_writer_matches_cell_writer(tmp_path, report):
    width = len(reports.CSV_COLUMNS[report])
    cells = [np.float64(0.1), 1 / 3, float("nan"), float("inf"), -0.0,
             np.float64(-np.inf), 5e-324, 3, np.int64(-7), True, np.False_,
             "refused", np.float32(0.25), np.float64(-0.0)]
    rng = np.random.default_rng(len(report))
    rows = [tuple(cells[k] for k in rng.integers(0, len(cells), size=width))
            for _ in range(200)]
    # runs of rows of one type signature, as the studies write them
    rows += [(np.float64(x), 2.0 * x, -x)[:width] + (1.5,) * (width - 3)
             for x in rng.normal(size=50)]
    path = tmp_path / f"{report}.csv"
    reports.write_csv(path, report, iter(rows))
    assert path.read_text() == _cell_text(report, rows)
