import math
import warnings

import numpy as np
import pytest

from anisolab.assembly import assemble_system
from anisolab.coefficients import (CoefficientField, HypothesisNotSatisfied,
                                   ReactionSpec, SourceField, as_field)
from anisolab.diagnostics import (ap_diagram, cea_check,
                                  difference_quotient_bound, error_norms,
                                  errors_vs_function, fit_slope,
                                  grad1_functional, linear_reaction_rate_study,
                                  rate_study)
from anisolab.elliptic import LIMIT, GalerkinSolution, ProblemSpec, solve_linear
from anisolab.spaces import TensorDomain, build_space
from conftest import mode_source

PI = math.pi
NORM = 2.0 / PI
EPS_LIST = [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]


def zero_reaction_problem(dom, A, f):
    return ProblemSpec(dom, A, f, ReactionSpec.zero(), LIMIT)


class TestErrorNorms:
    def test_identical_solutions(self, dom, A_identity, f_mode11, sine8):
        prob = zero_reaction_problem(dom, A_identity, f_mode11)
        sol = solve_linear(prob, sine8)
        assert error_norms(sol, sol) == (0.0, 0.0, 0.0)

    def test_closed_form_mode_error(self, dom, A_identity, f_mode11, sine8):
        prob = zero_reaction_problem(dom, A_identity, f_mode11)
        u_eps = solve_linear(prob.with_epsilon(0.5), sine8)
        u_lim = solve_linear(prob, sine8)
        e1, e2, el2 = error_norms(u_eps, u_lim)
        assert e2 == pytest.approx(0.2, abs=1e-12)
        assert el2 == pytest.approx(0.2, abs=1e-12)

    def test_against_zero_gives_mass_norm(self, dom, A_identity, f_mode11,
                                          sine8):
        prob = zero_reaction_problem(dom, A_identity, f_mode11)
        sol = solve_linear(prob, sine8)
        zero = GalerkinSolution(sine8, np.zeros(sine8.dim), "limit")
        assert error_norms(sol, zero)[2] == pytest.approx(1.0, abs=1e-12)

    def test_space_mismatch_rejected(self, dom, A_identity, f_mode11, sine8,
                                     sine16):
        prob = zero_reaction_problem(dom, A_identity, f_mode11)
        a = solve_linear(prob, sine8)
        b = solve_linear(prob, sine16)
        with pytest.raises(ValueError, match="spaces"):
            error_norms(a, b)


class TestErrorsVsFunction:
    def test_exact_in_space_function(self, sine8):
        coeffs = np.zeros(sine8.dim)
        coeffs[0] = 0.5
        u = lambda x1, x2: 0.5 * NORM * np.sin(x1) * np.sin(x2)
        d1 = lambda x1, x2: 0.5 * NORM * np.cos(x1) * np.sin(x2)
        d2 = lambda x1, x2: 0.5 * NORM * np.sin(x1) * np.cos(x2)
        e1, e2, el2 = errors_vs_function(sine8, coeffs, u, d1, d2)
        assert max(e1, e2, el2) < 1e-12

    def test_against_zero_coefficients(self, sine8):
        u = lambda x1, x2: NORM * np.sin(x1) * np.sin(x2)
        d1 = lambda x1, x2: NORM * np.cos(x1) * np.sin(x2)
        d2 = lambda x1, x2: NORM * np.sin(x1) * np.cos(x2)
        e1, e2, el2 = errors_vs_function(sine8, np.zeros(sine8.dim), u, d1, d2)
        assert el2 == pytest.approx(1.0, rel=1e-12)
        assert e1 == pytest.approx(1.0, rel=1e-12)


class TestRateStudy:
    def test_identity_closed_form(self, dom, A_identity, f_mode11, sine8):
        prob = zero_reaction_problem(dom, A_identity, f_mode11)
        study = rate_study(prob, sine8, EPS_LIST)
        for eps, e2 in zip(EPS_LIST, study.e_x2):
            assert e2 == pytest.approx(eps ** 2 / (1 + eps ** 2), abs=1e-10)
        assert study.slope == pytest.approx(2.0, abs=0.1)
        # identity coefficients: bound is sqrt(2) * eps
        for eps, b in zip(EPS_LIST, study.bound):
            assert b == pytest.approx(math.sqrt(2.0) * eps, rel=1e-9)
        assert study.bound_verdict

    def test_explicit_reference_vector(self, dom, A_identity, f_mode11, sine8):
        prob = zero_reaction_problem(dom, A_identity, f_mode11)
        ref = np.zeros(sine8.dim)
        ref[0] = 1.0  # exact limit solution in this space
        study = rate_study(prob, sine8, EPS_LIST, reference=ref,
                           check_bound=False)
        for eps, e2 in zip(EPS_LIST, study.e_x2):
            assert e2 == pytest.approx(eps ** 2 / (1 + eps ** 2), abs=1e-10)

    def test_refusal_without_hypothesis_flags(self, dom, A_identity, sine8):
        f = SourceField(as_field(lambda x1, x2: np.cos(x1) * np.sin(x2)),
                        grad_x1_in_l2=False, slices_vanish_x1=False)
        prob = zero_reaction_problem(dom, A_identity, f)
        study = rate_study(prob, sine8, [0.5, 0.25])
        assert study.refusal is not None
        assert "grad_x1_in_l2" in study.refusal
        assert study.bound_verdict is None
        assert len(study.e_x2) == 2  # errors still computed

    def test_q1_cross_check_agrees_with_spectral(self, dom, A_offdiag_const,
                                                 f_mode11, sine16):
        q64 = build_space(dom, "q1", 64, "q1", 64)
        prob = zero_reaction_problem(dom, A_offdiag_const, f_mode11)
        s = rate_study(prob, sine16, EPS_LIST[:3], check_bound=False)
        q = rate_study(prob, q64, EPS_LIST[:3], check_bound=False)
        for a, b in zip(s.e_x2[:2], q.e_x2[:2]):
            assert abs(a - b) / a < 1e-3  # three significant digits
        assert abs(s.e_x2[2] - q.e_x2[2]) / s.e_x2[2] < 2e-2

    def test_sweep_runs_in_order_on_the_calling_thread(self, monkeypatch, dom,
                                                        A_identity, f_mode11,
                                                        sine8):
        import threading

        import anisolab.diagnostics as diagnostics
        calls = []
        original = diagnostics.solve_linear

        def recording(problem, *args, **kwargs):
            calls.append((problem.epsilon, threading.current_thread()))
            return original(problem, *args, **kwargs)

        monkeypatch.setattr(diagnostics, "solve_linear", recording)
        prob = zero_reaction_problem(dom, A_identity, f_mode11)
        rate_study(prob, sine8, EPS_LIST[:4], check_bound=False)
        assert [eps for eps, _ in calls] == [LIMIT] + EPS_LIST[:4]
        assert all(thread is threading.current_thread() for _, thread in calls)
        assert all(t is threading.main_thread() for _, t in calls)


class TestFitSlope:
    def test_pure_power_law(self):
        eps = np.array([0.5, 0.25, 0.125])
        assert fit_slope(eps, eps ** 1.7) == pytest.approx(1.7, abs=1e-12)

    def test_noise_floor_exclusion(self):
        eps = [0.5, 0.25, 0.125]
        errs = [0.1, 0.05, 1e-16]  # last entry is numerical noise
        slope = fit_slope(eps, errs)
        assert slope == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_errors_give_nan(self):
        assert math.isnan(fit_slope([0.5, 0.25], [0.0, 0.0]))

    def test_one_distinct_epsilon_gives_nan_without_a_warning(self):
        # a repeated epsilon fixes no line: polyfit would warn and fit one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(fit_slope([0.5, 0.5], [0.1, 0.2]))
            assert math.isnan(fit_slope([0.5, 0.5, 0.25], [0.1, 0.2, 1e-16]))


class TestCeaCheck:
    def test_identity_limit_is_energy_projection(self, dom, A_identity):
        f = mode_source(1, 1, 1.0)
        # source with fine-mode content so coarse spaces are not exact
        rich = SourceField(as_field(
            lambda x1, x2: NORM * (np.sin(x1) * np.sin(x2)
                                   + 0.3 * np.sin(3 * x1) * np.sin(5 * x2))),
            grad_x1_in_l2=True, slices_vanish_x1=True)
        prob = ProblemSpec(dom, A_identity, rich, ReactionSpec.zero(), LIMIT)
        spaces = [build_space(dom, "sine", m, "sine", m) for m in (2, 4)]
        report = cea_check(spaces, prob)
        assert report.kind == "limit-linear"
        for row in report.rows:
            # quotient constant 1: Galerkin error equals best approximation
            assert row.galerkin_error == pytest.approx(row.best_error, abs=1e-10)
            assert row.passed

    def test_variable_a22_respects_quotient_bound(self, dom):
        from anisolab.coefficients import ScalarField
        fld = ScalarField(lambda x1, x2: 1.0 + x2 ** 2 / 10.0, {"x2"})
        A = CoefficientField(1.0, 0.0, 0.0, fld, lam=1.0)
        f = mode_source(1, 1)
        prob = ProblemSpec(dom, A, f, ReactionSpec.zero(), LIMIT)
        spaces = [build_space(dom, "q1", m, "q1", m) for m in (4, 8, 16)]
        report = cea_check(spaces, prob)
        assert report.all_passed
        sup_a22 = 1.0 + PI ** 2 / 10.0
        for row in report.rows:
            assert row.galerkin_error <= sup_a22 * row.best_error * (1 + 1e-9)

    def test_arctan_square_root_bound(self, dom, A_identity, q1_8):
        f = mode_source(1, 1)
        prob = ProblemSpec(dom, A_identity, f, ReactionSpec.arctan(), LIMIT)
        spaces = [build_space(dom, "q1", m, "q1", m) for m in (4, 8)]
        report = cea_check(spaces, prob, damping=0.5)
        assert report.kind == "limit-sqrt"
        assert report.all_passed

    def test_every_space_solves_through_galerkin_solve(self, monkeypatch, dom,
                                                       A_identity, f_mode11):
        import anisolab.diagnostics as diagnostics
        seen = []
        original = diagnostics.galerkin_solve

        def recording(problem, space, *args, **kwargs):
            seen.append(space.basis1.m)
            return original(problem, space, *args, **kwargs)

        monkeypatch.setattr(diagnostics, "galerkin_solve", recording)
        spaces = [build_space(dom, "q1", m, "q1", m) for m in (4, 8)]
        for reaction in (ReactionSpec.zero(), ReactionSpec.arctan()):
            seen.clear()
            prob = ProblemSpec(dom, A_identity, f_mode11, reaction, LIMIT)
            report = cea_check(spaces, prob)
            assert report.all_passed
            # the reference on the finest space refined once, then each space
            assert seen == [16, 4, 8]

    def test_perturbed_linear_constant(self, dom, A_identity):
        rich = SourceField(as_field(
            lambda x1, x2: NORM * (np.sin(x1) * np.sin(x2)
                                   + 0.5 * np.sin(2 * x1) * np.sin(2 * x2))),
            grad_x1_in_l2=True, slices_vanish_x1=True)
        prob = ProblemSpec(dom, A_identity, rich, ReactionSpec.zero(), 0.5)
        spaces = [build_space(dom, "sine", 2, "sine", 2)]
        report = cea_check(spaces, prob)
        assert report.kind == "perturbed-linear"
        assert report.rows[0].bound_constant == pytest.approx(1.0 / 0.25, rel=1e-12)
        assert report.all_passed


@pytest.fixture(scope="module")
def two_mode_setup(dom, A_identity):
    f = SourceField(as_field(
        lambda x1, x2: NORM * (np.sin(x1) * np.sin(x2)
                               + np.sin(2 * x1) * np.sin(3 * x2)),
        label="two-mode"),
        dx1=as_field(lambda x1, x2: NORM * (np.cos(x1) * np.sin(x2)
                                            + 2 * np.cos(2 * x1) * np.sin(3 * x2))),
        grad_x1_in_l2=True, slices_vanish_x1=True)
    prob = ProblemSpec(dom, A_identity, f, ReactionSpec.zero(), LIMIT)
    eps = [1.0, 0.25, 0.0625, 0.015625]
    spaces = [build_space(dom, "sine", m, "sine", m) for m in (2, 4, 8, 16)]
    return prob, eps, spaces


class TestAPDiagram:
    @staticmethod
    def exact_error(eps, m):
        # mode (1,1): coefficient gap (1 - 1/(1+e^2)); mode (2,3) with
        # second-direction seminorm 3 is present only for m >= 3
        g11 = 1.0 - 1.0 / (1.0 + eps ** 2)
        if m >= 3:
            g23 = (1.0 / 9.0 - 1.0 / (4.0 * eps ** 2 + 9.0)) * 3.0
        else:
            g23 = 1.0 / 3.0
        return math.hypot(g11, g23)

    def test_grid_matches_closed_form(self, two_mode_setup):
        prob, eps, spaces = two_mode_setup
        report = ap_diagram(prob, eps, spaces)
        for i, e in enumerate(eps):
            for j, m in enumerate((2, 4, 8, 16)):
                assert report.grid[i, j] == pytest.approx(
                    self.exact_error(e, m), abs=1e-10)

    def test_traces_and_gap(self, two_mode_setup):
        prob, eps, spaces = two_mode_setup
        report = ap_diagram(prob, eps, spaces)
        assert report.row_monotone and report.col_monotone
        # spaces holding both modes solve the limit problem exactly
        assert report.col_trace[1] < 1e-12
        assert report.col_trace[-1] < 1e-12
        assert report.gap_ok

    def test_hypothesis_gate(self, dom, f_mode11):
        A = CoefficientField(1.0, 0.0, 0.0, 1.0, lam=1.0,
                             offdiag_derivs_bounded=False)
        prob = ProblemSpec(dom, A, f_mode11, ReactionSpec.zero(), LIMIT)
        with pytest.raises(HypothesisNotSatisfied):
            ap_diagram(prob, [0.5], [build_space(dom, "sine", 2, "sine", 2)])


class TestDifferenceQuotientBound:
    def test_equality_edge_first_mode(self, dom, A_identity, f_mode11, sine8):
        prob = zero_reaction_problem(dom, A_identity, f_mode11)
        report = difference_quotient_bound(prob, sine8)
        assert report.passed
        assert report.lhs == pytest.approx(report.rhs, rel=1e-9)

    def test_statement_constant_fails_on_wide_second_direction(self, dom):
        wide = TensorDomain((0.0, PI), (0.0, 2.0 * PI))
        space = build_space(wide, "sine", 4, "sine", 4)
        amp = math.sqrt(2.0 / PI) * math.sqrt(1.0 / PI)

        def f(x1, x2):
            return amp * np.sin(x1) * np.sin(x2 / 2.0)

        def df(x1, x2):
            return amp * np.cos(x1) * np.sin(x2 / 2.0)

        src = SourceField(as_field(f), dx1=as_field(df),
                          grad_x1_in_l2=True, slices_vanish_x1=True)
        prob = ProblemSpec(wide, CoefficientField.identity(), src,
                           ReactionSpec.zero(), LIMIT)
        report = difference_quotient_bound(prob, space)
        # shift-argument constant (interval constant squared) is saturated
        assert report.passed
        assert report.lhs == pytest.approx(report.rhs, rel=1e-9)
        # the smaller constant printed alongside is genuinely violated here
        assert not report.statement_passed

    def test_hypothesis_gate(self, dom, A_identity):
        f = SourceField(as_field(lambda x1, x2: np.sin(x1) * np.sin(x2)),
                        grad_x1_in_l2=False)
        prob = zero_reaction_problem(dom, A_identity, f)
        with pytest.raises(HypothesisNotSatisfied, match="grad_x1"):
            difference_quotient_bound(prob, build_space(dom, "sine", 2, "sine", 2))


class TestLinearReactionStudy:
    def test_closed_form_single_point(self, dom, A_identity, f_mode11, sine8):
        prob = ProblemSpec(dom, A_identity, f_mode11, ReactionSpec.zero(), LIMIT)
        study = linear_reaction_rate_study(prob, sine8, [1.0], mus=[1.0])
        # eigenvalues mu + eps^2 j^2 + k^2: gap 1/2 - 1/3 = 1/6 at eps = mu = 1
        assert study.studies[1.0].e_x2[0] == pytest.approx(1.0 / 6.0, abs=1e-10)

    def test_mu_scaling_verdicts(self, dom, A_identity, f_mode11, sine8):
        prob = ProblemSpec(dom, A_identity, f_mode11, ReactionSpec.zero(), LIMIT)
        study = linear_reaction_rate_study(prob, sine8, [0.5, 0.25, 0.125],
                                           mus=[1.0, 10.0, 100.0])
        assert study.passed
        for mu, rs in study.studies.items():
            for eps, e2 in zip([0.5, 0.25, 0.125], rs.e_x2):
                exact = eps ** 2 / ((mu + 1 + eps ** 2) * (mu + 1))
                assert e2 == pytest.approx(exact, rel=1e-9)

    def test_refusal_without_mixed_derivative_flag(self, dom, f_mode11, sine8):
        A = CoefficientField(1.0, 0.1, 0.1, 1.0, lam=0.9,
                             offdiag_mixed_deriv_in_l2=False)
        prob = ProblemSpec(dom, A, f_mode11, ReactionSpec.zero(), LIMIT)
        study = linear_reaction_rate_study(prob, sine8, [0.5])
        assert study.refusal is not None
        assert "offdiag_mixed_deriv_in_l2" in study.refusal


class TestManufacturedSolutionRates:
    def test_q1_limit_solve_h_refinement_orders(self, dom, A_identity):
        # manufactured: u = sin(x1) sin(x2) solves the limit problem with
        # f = u when a22 = 1; expect O(h^2) in L2 and O(h) for the
        # second-direction gradient
        src = SourceField(as_field(lambda x1, x2: np.sin(x1) * np.sin(x2)),
                          grad_x1_in_l2=True, slices_vanish_x1=True)
        prob = ProblemSpec(dom, A_identity, src, ReactionSpec.zero(), LIMIT)
        u = lambda x1, x2: np.sin(x1) * np.sin(x2)
        d1 = lambda x1, x2: np.cos(x1) * np.sin(x2)
        d2 = lambda x1, x2: np.sin(x1) * np.cos(x2)
        sizes = [8, 16, 32]
        e_l2, e_x2 = [], []
        for m in sizes:
            space = build_space(dom, "q1", m, "q1", m)
            sol = solve_linear(prob, space)
            _, ex2, el2 = errors_vs_function(space, sol.coeffs, u, d1, d2)
            e_l2.append(el2)
            e_x2.append(ex2)
        h = [1.0 / m for m in sizes]
        assert fit_slope(h, e_l2) == pytest.approx(2.0, abs=0.1)
        assert fit_slope(h, e_x2) == pytest.approx(1.0, abs=0.1)


class TestGradientFunctionals:
    def test_smooth_pairings_decay(self, dom, A_identity, f_mode11, sine8):
        prob = zero_reaction_problem(dom, A_identity, f_mode11)
        system = assemble_system(sine8, A_identity, f_mode11)
        u_lim = solve_linear(prob, sine8, system=system)
        probes = [
            lambda x1, x2: np.sin(2 * x1) * np.sin(x2),
            lambda x1, x2: x1 * (PI - x1) * np.sin(x2) / 10.0,
            lambda x1, x2: np.exp(-x1) * np.sin(2 * x2),
        ]
        values = []
        for eps in [1.0, 0.25, 0.0625, 0.015625]:
            u_eps = solve_linear(prob.with_epsilon(eps), sine8, system=system)
            d = u_eps.coeffs - u_lim.coeffs
            values.append([abs(grad1_functional(sine8, d, phi))
                           for phi in probes])
        values = np.array(values)
        assert np.all(values[1:] <= values[:-1] + 1e-15)
        assert np.all(values[-1] < 1e-3)
