import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisolab.coefficients import (LEDGER_FORMULAS, CoefficientField,
                                   ReactionSpec, as_field, compute_constants,
                                   grid_values, integrate_on_domain)
from anisolab.expressions import parse_expression

PI = math.pi

# Expression sources of the config grammar: literals, pi, x1, x2, unary
# minus, + - * /, sin, cos and exp.
_LEAVES = st.one_of(
    st.floats(min_value=0.0, max_value=10.0).map(repr),
    st.sampled_from(["pi", "x1", "x2"]),
)
_EXPRESSIONS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        inner.map(lambda a: f"-{a}"),
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
    ),
    max_leaves=12,
)
_AXIS = st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=20)


def _meshgrid_values(fn, x1, x2):
    X1, X2 = np.meshgrid(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float),
                         indexing="ij")
    return np.broadcast_to(np.asarray(fn(X1, X2), dtype=float), X1.shape)


class TestComputeConstants:
    def test_identity_hand_values(self, dom, A_identity, f_mode11):
        # hand evaluation: energy (0 + 1)/2; no coupling terms
        led = compute_constants(A_identity, dom, f_mode11, grid=256)
        assert led.energy_const == pytest.approx(0.5, abs=1e-12)
        assert led.offdiag_const == pytest.approx(0.0, abs=1e-12)
        assert led.offdiag_deriv_const == pytest.approx(0.0, abs=1e-12)
        assert led.rate_const_grad == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert led.rate_const_source == pytest.approx(0.0, abs=1e-12)
        assert led.dq_const == pytest.approx(1.0, abs=1e-12)
        assert led.cea_limit_linear == pytest.approx(1.0, abs=1e-12)
        assert led.poincare_omega2 == pytest.approx(1.0, abs=1e-14)
        assert led.norm_f == pytest.approx(1.0, abs=1e-12)

    def test_constant_coupling_hand_values(self, dom, A_offdiag_const):
        # a = 0.3 constant, lam = 0.7: energy (a^2 + 1)/(2 lam), coupling 3 a^2 / lam
        led = compute_constants(A_offdiag_const, dom, grid=128)
        assert led.energy_const == pytest.approx((0.09 + 1.0) / 1.4, abs=1e-12)
        assert led.offdiag_const == pytest.approx(3 * 0.09 / 0.7, abs=1e-12)
        assert led.offdiag_deriv_const == pytest.approx(0.0, abs=1e-12)
        # spectral norm of [[1, .3], [.3, 1]] is 1.3
        assert led.sup_matrix == pytest.approx(1.3, abs=1e-12)

    def test_variable_coupling_uses_declared_partials(self, dom, A_offdiag_variable):
        led = compute_constants(A_offdiag_variable, dom, grid=201)
        # sup |0.2 cos(x1) sin(x2)| = sup |0.2 sin(x1) cos(x2)| = 0.2 on the closed square
        assert led.sup_da12_dx1 == pytest.approx(0.2, abs=1e-4)
        assert led.sup_da12_dx2 == pytest.approx(0.2, abs=1e-4)
        lam = 0.8
        c2 = 1.0
        expected_dd = 3.0 * (c2 * led.sup_da12_dx1) ** 2 / lam
        assert led.offdiag_deriv_const == pytest.approx(expected_dd, rel=1e-12)
        assert led.rate_const_source == pytest.approx(
            2.0 * math.sqrt(expected_dd) / lam ** 1.5, rel=1e-12)

    def test_missing_partial_declaration_rejected(self, dom):
        A = CoefficientField(1.0, as_field(lambda a, b: 0.1 * np.sin(a) * np.sin(b)),
                             0.0, 1.0, lam=0.8)
        with pytest.raises(ValueError, match="partial"):
            compute_constants(A, dom, grid=33)

    def test_grid_refinement_stability(self, dom, A_offdiag_variable):
        led1 = compute_constants(A_offdiag_variable, dom, grid=512)
        led2 = compute_constants(A_offdiag_variable, dom, grid=1024)
        for name in ("sup_a11", "sup_a12", "sup_a22", "sup_matrix",
                     "sup_da12_dx1", "sup_da12_dx2"):
            a, b = getattr(led1, name), getattr(led2, name)
            assert abs(a - b) <= 0.01 * max(abs(a), 1e-30)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.4),
           st.floats(min_value=0.0, max_value=0.4))
    def test_coupling_const_monotone_in_coupling_supnorm(self, dom, a, b):
        lo, hi = sorted((a, b))
        lam = 0.5  # valid ellipticity for couplings up to 0.5
        led_lo = compute_constants(
            CoefficientField(1.0, lo, lo, 1.0, lam=lam), dom, grid=17)
        led_hi = compute_constants(
            CoefficientField(1.0, hi, hi, 1.0, lam=lam), dom, grid=17)
        assert led_hi.offdiag_const >= led_lo.offdiag_const - 1e-15

    def test_ledger_entries_finite_nonnegative(self, dom, A_offdiag_variable,
                                               f_mode11):
        led = compute_constants(A_offdiag_variable, dom, f_mode11,
                                ReactionSpec.arctan(), grid=64)
        assert led.validate()
        for name in ("cea_limit", "cea_perturbed"):
            assert getattr(led, name) > 0

    def test_each_field_evaluated_once(self, dom):
        calls = []

        def counted(name, fn):
            def wrapped(x1, x2):
                calls.append(name)
                return fn(x1, x2)
            return wrapped

        coupling = counted("a12", lambda x1, x2: 0.2 * np.sin(x1) * np.sin(x2))
        A = CoefficientField(
            counted("a11", lambda x1, x2: np.ones_like(x1)),
            as_field(coupling,
                     dx1=counted("a12_dx1", lambda x1, x2: 0.2 * np.cos(x1) * np.sin(x2)),
                     dx2=counted("a12_dx2", lambda x1, x2: 0.2 * np.sin(x1) * np.cos(x2))),
            counted("a21", lambda x1, x2: 0.2 * np.sin(x1) * np.sin(x2)),
            counted("a22", lambda x1, x2: np.ones_like(x2)),
            lam=0.8)
        led = compute_constants(A, dom, grid=65)
        assert sorted(calls) == ["a11", "a12", "a12_dx1", "a12_dx2", "a21", "a22"]
        assert led.sup_a12 == pytest.approx(0.2, abs=1e-12)
        assert led.sup_matrix == pytest.approx(1.2, abs=1e-12)


class TestLedgerOnAxes:
    """The ledger evaluates each field on the axes its ``deps`` name and
    broadcasts; every entry equals the meshgrid evaluation bit for bit."""

    # a11, a12, declared d(a12)/dx1 and d(a12)/dx2, a21, a22
    FIELDS = {
        "constant": (2.0, 0.3, None, None, 0.25, 1.5),
        "x1": ("1 + x1/4", "0.2*sin(x1)", "0.2*cos(x1)", None, "0.1*cos(2*x1)",
               "exp(-x1)"),
        "x2": ("1 + x2*x2/10", "0.3*cos(x2)", None, "-0.3*sin(x2)", "0.2*sin(x2)",
               "2 - sin(x2)/3"),
        "2d": ("1 + x1*x2/10", "0.2*sin(x1)*sin(x2)", "0.2*cos(x1)*sin(x2)",
               "0.2*sin(x1)*cos(x2)", "0.1*cos(x1 - x2)", "1 + x2*x2/10"),
        "mixed": (1.0, "0.2*sin(x1)", "0.2*cos(x1)", None, "0.3*cos(x2)",
                  "1 + x1*x2/10"),
    }

    @pytest.mark.parametrize("kind", sorted(FIELDS))
    def test_ledger_equals_meshgrid_form(self, monkeypatch, dom, f_mode11, kind):
        from anisolab import coefficients

        def field(value, dx1=None, dx2=None):
            return as_field(parse_expression(value) if isinstance(value, str) else value,
                            dx1=None if dx1 is None else parse_expression(dx1),
                            dx2=None if dx2 is None else parse_expression(dx2))

        a11, a12, dx1, dx2, a21, a22 = self.FIELDS[kind]
        A = CoefficientField(field(a11), field(a12, dx1, dx2), field(a21),
                             field(a22), lam=0.25)
        ledger = compute_constants(A, dom, f_mode11, ReactionSpec.arctan())
        monkeypatch.setattr(coefficients, "_axis_values", _meshgrid_values)
        reference = compute_constants(A, dom, f_mode11, ReactionSpec.arctan())
        assert ledger.as_dict() == reference.as_dict()

    @pytest.mark.parametrize("source,shape", [
        ("0.75", (1, 1)), ("1 + x1/4", (9, 1)), ("sin(x2)", (1, 5)),
        ("x1*x2", (9, 5))])
    def test_natural_shapes(self, source, shape):
        from anisolab.coefficients import _axis_values

        x1, x2 = np.linspace(0.0, PI, 9), np.linspace(-1.0, 2.0, 5)
        field = as_field(parse_expression(source))
        got = _axis_values(field, x1, x2)
        assert got.shape == shape
        assert np.array_equal(np.broadcast_to(got, (9, 5)),
                              _meshgrid_values(field, x1, x2))
        assert _axis_values(as_field(0.5), x1, x2).shape == (1, 1)


class TestGridValues:
    """Evaluation along the axes of a tensor grid equals the meshgrid
    evaluation bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(_EXPRESSIONS, _AXIS, _AXIS)
    def test_expression_on_axes_equals_meshgrid(self, source, x1, x2):
        field = as_field(parse_expression(source))
        with np.errstate(all="ignore"):
            try:
                want = _meshgrid_values(field, x1, x2)
            except ZeroDivisionError:  # a constant subexpression divides by 0.0
                with pytest.raises(ZeroDivisionError):
                    grid_values(field, x1, x2)
                return
            got = grid_values(field, x1, x2)
        assert got.shape == (len(x1), len(x2))
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("source", ["0.75", "pi/4", "-2*x1 + sin(x1)",
                                        "exp(-x2)*cos(3*x2)", "x1*x2"])
    def test_constant_and_single_variable_fields(self, source):
        x1 = np.linspace(0.0, PI, 7)
        x2 = np.linspace(-1.0, 2.0, 5)
        field = as_field(parse_expression(source))
        got = grid_values(field, x1, x2)
        assert got.shape == (7, 5)
        assert np.array_equal(got, _meshgrid_values(field, x1, x2))

    def test_subtrees_of_one_variable_run_on_its_axis(self):
        shapes = []

        def fn(x1, x2):
            shapes.append((np.shape(x1), np.shape(x2)))
            return np.sin(x1) + np.cos(x2)

        got = grid_values(fn, np.arange(4.0), np.arange(3.0))
        assert shapes == [((4, 1), (1, 3))]
        assert np.array_equal(got, _meshgrid_values(fn, np.arange(4.0), np.arange(3.0)))

    @pytest.mark.parametrize("fn", [
        lambda x1, x2: np.ones_like(x1),
        lambda x1, x2: np.ones_like(x2),
        as_field(lambda x1, x2: np.ones_like(x1)),
        as_field(1.0),
    ])
    def test_callables_broadcast_to_the_grid(self, fn):
        got = grid_values(fn, np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 4))
        assert got.shape == (6, 4)
        assert np.array_equal(got, np.ones((6, 4)))


class TestLedgerValidation:
    STRICTLY_POSITIVE = ("poincare_omega1", "poincare_omega2", "poincare_domain",
                         "energy_const", "rate_const_grad", "dq_const",
                         "dq_const_statement", "cea_limit_linear",
                         "cea_perturbed_linear", "area_sqrt")

    @pytest.fixture(scope="class")
    def ledger(self, dom, A_identity, f_mode11):
        return compute_constants(A_identity, dom, f_mode11, grid=33)

    @pytest.mark.parametrize("entry,value,message", [
        ("norm_f", math.nan, "ledger entry norm_f is not finite"),
        ("sup_a12", -1.0, "ledger entry sup_a12 is negative"),
        ("energy_const", 0.0, "ledger entry energy_const must be strictly positive"),
    ])
    def test_fault_names_the_entry(self, ledger, entry, value, message):
        with pytest.raises(ValueError) as err:
            dataclasses.replace(ledger, **{entry: value}).validate()
        assert str(err.value) == message

    def test_zero_is_refused_exactly_for_the_strict_entries(self, ledger):
        assert list(ledger.as_dict()) == list(LEDGER_FORMULAS)
        assert set(self.STRICTLY_POSITIVE) < set(LEDGER_FORMULAS)
        for name in LEDGER_FORMULAS:
            zeroed = dataclasses.replace(ledger, **{name: 0.0})
            if name in self.STRICTLY_POSITIVE:
                with pytest.raises(ValueError, match="must be strictly positive"):
                    zeroed.validate()
            else:
                assert zeroed.validate()


class TestCoefficientValidation:
    def test_identity_passes(self, dom, A_identity):
        assert A_identity.validate(dom)

    def test_ellipticity_violation_detected(self, dom):
        A = CoefficientField(1.0, 2.0, 2.0, 1.0, lam=0.5)
        with pytest.raises(ValueError, match="llipticity"):
            A.validate(dom)

    def test_a22_structure_flag_checked(self, dom):
        A = CoefficientField(1.0, 0.0, 0.0,
                             as_field(lambda x1, x2: 1.0 + 0.1 * np.sin(x1)),
                             lam=0.5, a22_depends_only_on_x2=True)
        with pytest.raises(ValueError, match="x2-only"):
            A.validate(dom)

    def test_nan_ellipticity_constant_refused(self):
        with pytest.raises(ValueError, match="ellipticity constant must be "
                                             "positive"):
            CoefficientField(1.0, 0.0, 0.0, 1.0, lam=math.nan)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_nonfinite_coefficient_detected(self, dom):
        A = CoefficientField(1.0, 0.0, 0.0,
                             as_field(lambda x1, x2: 1.0 / (x1 - x1)), lam=1.0)
        with pytest.raises(ValueError, match="finite"):
            A.validate(dom)


class TestReactionSpec:
    def test_zero_and_linear(self):
        assert ReactionSpec.zero().validate()
        r = ReactionSpec.linear(2.0)
        assert r.validate()
        assert r.beta(3.0) == pytest.approx(6.0)

    def test_arctan_satisfies_hypotheses(self):
        assert ReactionSpec.arctan().validate()

    def test_nonzero_at_origin_rejected(self):
        r = ReactionSpec.custom(lambda s: s + 1.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="vanish"):
            r.validate()

    def test_decreasing_rejected(self):
        r = ReactionSpec.custom(lambda s: -s, 1.0, 1.0)
        with pytest.raises(ValueError, match="nondecreasing"):
            r.validate()

    def test_growth_violation_rejected(self):
        r = ReactionSpec.custom(lambda s: s ** 3, 1.0, 1.0)
        with pytest.raises(ValueError, match="growth"):
            r.validate()


class TestIntegration:
    def test_independent_integral_oracle(self, dom):
        # integral of sin^2(x1) sin^2(x2) over the square is (pi/2)^2
        val = integrate_on_domain(dom, lambda a, b: np.sin(a) ** 2 * np.sin(b) ** 2)
        assert val == pytest.approx((PI / 2) ** 2, rel=1e-12)

    def test_source_norms(self, dom, f_mode11):
        assert f_mode11.norm_l2(dom) == pytest.approx(1.0, rel=1e-12)
        assert f_mode11.norm_grad_x1(dom) == pytest.approx(1.0, rel=1e-12)


class TestHypothesisTable:
    """With every flag unset, each gated entry point names exactly its row
    of ``REQUIRED_HYPOTHESES``, in order."""

    def test_rows_frozen(self):
        from anisolab.coefficients import REQUIRED_HYPOTHESES

        A_flags = ("offdiag_derivs_bounded", "a22_depends_only_on_x2")
        f_flags = ("grad_x1_in_l2", "slices_vanish_x1")
        mixed = ("offdiag_mixed_deriv_in_l2",)
        assert REQUIRED_HYPOTHESES == {
            "rate": A_flags + f_flags,
            "rate-linear-reaction": A_flags + f_flags + mixed,
            "resolvent": A_flags + mixed + f_flags,
            "ap": A_flags[:1],
            "dq": A_flags[1:] + f_flags[:1],
            "tensor-oracle": A_flags[1:],
        }

    @pytest.fixture(scope="class")
    def bare(self, dom):
        from anisolab.coefficients import SourceField
        from anisolab.elliptic import ProblemSpec
        from anisolab.spaces import build_space

        A = CoefficientField(1.0, 0.0, 0.0, 1.0, lam=1.0,
                             a22_depends_only_on_x2=False,
                             offdiag_derivs_bounded=False,
                             offdiag_mixed_deriv_in_l2=False)
        f = SourceField(as_field(1.0))
        return ProblemSpec(dom, A, f), build_space(dom, "sine", 4, "sine", 4)

    def test_refusal_strings(self, bare):
        from anisolab.coefficients import REQUIRED_HYPOTHESES
        from anisolab.diagnostics import linear_reaction_rate_study, rate_study
        from anisolab.semigroup import resolvent_deviation

        problem, space = bare
        A, f = problem.coefficients, problem.source
        refusals = {
            "rate": rate_study(problem, space, [0.5, 0.25]).refusal,
            "rate-linear-reaction": linear_reaction_rate_study(
                problem, space, [0.5, 0.25]).refusal,
            "resolvent": resolvent_deviation(space, A, [0.5], 1.0, f).refusal,
        }
        for study, refusal in refusals.items():
            assert refusal == ("missing hypotheses: "
                               + ", ".join(REQUIRED_HYPOTHESES[study]))

    def test_raised_missing_lists(self, bare):
        from anisolab.coefficients import (REQUIRED_HYPOTHESES,
                                           HypothesisNotSatisfied)
        from anisolab.diagnostics import ap_diagram, difference_quotient_bound
        from anisolab.semigroup import tensor_semigroup_oracle_check

        problem, space = bare
        calls = {
            "ap": lambda: ap_diagram(problem, [0.5], [space]),
            "dq": lambda: difference_quotient_bound(problem, space),
            "tensor-oracle": lambda: tensor_semigroup_oracle_check(
                space, problem.coefficients, np.ones(4), np.ones(4), 0.1, 1.0),
        }
        for study, call in calls.items():
            with pytest.raises(HypothesisNotSatisfied) as err:
                call()
            assert err.value.missing == REQUIRED_HYPOTHESES[study]


@pytest.mark.parametrize("grid,calls", [(512, 8), (1024, 32)])
def test_ledger_evaluates_fields_free_of_x1_once(monkeypatch, dom, grid, calls):
    """A full-grid ledger calls a field of ``x1`` once per block of rows, and
    a constant, an ``x2``-only field and the zero stand-in of an undeclared
    partial once in all."""
    from anisolab import coefficients

    counts = {}
    real = coefficients._axis_values

    def counted(field, x1, x2):
        counts[field.label] = counts.get(field.label, 0) + 1
        return real(field, x1, x2)

    A = CoefficientField(
        parse_expression("1 + x1*x2/10"),
        as_field(parse_expression("0.3*cos(x2)"),
                 dx2=parse_expression("-0.3*sin(x2)")),
        0.25, parse_expression("2 - sin(x2)/3"), lam=0.25)
    monkeypatch.setattr(coefficients, "_axis_values", counted)
    compute_constants(A, dom, grid=grid)
    # a constant entry is labelled by its name, the stand-in by its value
    assert counts == {"1 + x1*x2/10": calls, "0.3*cos(x2)": 1,
                      "-0.3*sin(x2)": 1, "0.0": 1, "a21": 1,
                      "2 - sin(x2)/3": 1}
