import math

import numpy as np
import pytest

from anisolab.assembly import KronOperator, assemble_system
from anisolab.coefficients import ReactionSpec, compute_constants
from anisolab.diagnostics import error_norms
from anisolab.elliptic import (LIMIT, ProblemSpec, apriori_check,
                               galerkin_solve, solve_linear, solve_semilinear,
                               within_bound)
from anisolab.linsolve import NonConvergenceError
from conftest import mode_source

PI = math.pi
NORM = 2.0 / PI


def unit_vec(space, i, j, value=1.0):
    v = np.zeros(space.dim)
    v[space.flat_index(i, j)] = value
    return v


class TestLinearSolves:
    def test_eigenmode_value_at_half(self, dom, A_identity, f_mode11, sine8):
        # separation of variables: coefficient 1/(1 + eps^2) = 0.8 at eps = 1/2
        prob = ProblemSpec(dom, A_identity, f_mode11, ReactionSpec.zero(), 0.5)
        sol = solve_linear(prob, sine8)
        assert np.max(np.abs(sol.coeffs - unit_vec(sine8, 0, 0, 0.8))) < 1e-12

    def test_limit_solve_recovers_source_mode(self, dom, A_identity, f_mode11,
                                              sine8):
        prob = ProblemSpec(dom, A_identity, f_mode11, ReactionSpec.zero(), LIMIT)
        sol = solve_linear(prob, sine8)
        assert np.max(np.abs(sol.coeffs - unit_vec(sine8, 0, 0, 1.0))) < 1e-12

    def test_zero_source_gives_zero(self, dom, A_identity, sine8):
        prob = ProblemSpec(dom, A_identity, mode_source(1, 1, 0.0),
                           ReactionSpec.zero(), 0.25)
        sol = solve_linear(prob, sine8)
        assert np.all(sol.coeffs == 0.0)

    def test_linear_reaction_shifts_eigenvalue(self, dom, A_identity, f_mode11,
                                               sine8):
        prob = ProblemSpec(dom, A_identity, f_mode11, ReactionSpec.linear(1.0), 1.0)
        sol = solve_linear(prob, sine8)
        # eigenvalue mu + j^2 + k^2 = 3 for the first mode at eps = 1
        assert sol.coeffs[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_galerkin_orthogonality(self, dom, A_offdiag_variable, f_mode11,
                                    sine8):
        prob = ProblemSpec(dom, A_offdiag_variable, f_mode11,
                           ReactionSpec.zero(), 0.5)
        system = assemble_system(sine8, A_offdiag_variable, f_mode11)
        sol = solve_linear(prob, sine8, system=system)
        residual = system.stiffness(0.5) @ sol.coeffs - system.F
        assert np.max(np.abs(residual)) <= 1e-9 * np.linalg.norm(system.F)

    @pytest.mark.parametrize("eps", [0.0, 1.5, -1.0])
    def test_epsilon_domain_enforced(self, dom, A_identity, f_mode11, eps):
        with pytest.raises(ValueError, match="epsilon"):
            ProblemSpec(dom, A_identity, f_mode11, ReactionSpec.zero(), eps)

    def test_custom_reaction_rejected_by_linear_path(self, dom, A_identity,
                                                     f_mode11, sine8):
        prob = ProblemSpec(dom, A_identity, f_mode11, ReactionSpec.arctan(), 1.0)
        with pytest.raises(ValueError, match="semilinear"):
            solve_linear(prob, sine8)


class TestSemilinearSolves:
    def test_custom_identity_reaction_matches_linear(self, dom, A_identity,
                                                     sine8):
        f = mode_source(1, 1, 2.0)
        custom = ReactionSpec.custom(lambda s: s, lipschitz=1.0, growth=1.0)
        prob = ProblemSpec(dom, A_identity, f, custom, 1.0)
        sol = solve_semilinear(prob, sine8, tol=1e-12)
        # eigenvalue 1 + 1 + 1; load entry 2
        assert sol.coeffs[0] == pytest.approx(2.0 / 3.0, abs=1e-10)
        lin = solve_linear(ProblemSpec(dom, A_identity, f,
                                       ReactionSpec.linear(1.0), 1.0), sine8)
        assert np.max(np.abs(sol.coeffs - lin.coeffs)) < 1e-10

    def test_custom_zero_reaction_matches_zero(self, dom, A_identity, f_mode11,
                                               sine8):
        custom = ReactionSpec.custom(lambda s: 0.0 * s, lipschitz=0.0, growth=0.0)
        prob = ProblemSpec(dom, A_identity, f_mode11, custom, 0.5)
        sol = solve_semilinear(prob, sine8)
        lin = solve_linear(prob.with_reaction(ReactionSpec.zero()), sine8)
        assert np.max(np.abs(sol.coeffs - lin.coeffs)) < 1e-10

    def test_arctan_converges_on_q1_with_residual_certificate(self, dom,
                                                              A_identity, q1_8):
        f = mode_source(1, 1)
        prob = ProblemSpec(dom, A_identity, f, ReactionSpec.arctan(), LIMIT)
        system = assemble_system(q1_8, A_identity, f)
        sol = solve_semilinear(prob, q1_8, damping=0.5, system=system)
        from anisolab.elliptic import reaction_load
        res = np.linalg.norm(system.limit_stiffness() @ sol.coeffs
                             + reaction_load(q1_8, prob.reaction, sol.coeffs)
                             - system.F)
        assert res <= 1e-9 * np.linalg.norm(system.F)
        assert sol.picard_iterations < 200

    def test_picard_forms_the_operator_diagonal_once(self, monkeypatch, dom,
                                                     A_identity, sine8):
        calls = []
        diagonal = KronOperator.diagonal
        monkeypatch.setattr(KronOperator, "diagonal",
                            lambda K: calls.append(K) or diagonal(K))
        prob = ProblemSpec(dom, A_identity, mode_source(1, 1),
                           ReactionSpec.arctan(), LIMIT)
        sol = solve_semilinear(prob, sine8, damping=0.5)
        assert sol.picard_iterations > 1
        assert len(calls) == 1

    def test_arctan_matches_independent_diagonal_fixed_point(self, dom,
                                                             A_identity, sine8):
        # independent oracle: diagonal fixed point in the eigenbasis with its
        # own midpoint quadrature and its own basis evaluation
        f = mode_source(1, 1)
        prob = ProblemSpec(dom, A_identity, f, ReactionSpec.arctan(), LIMIT)
        sol = solve_semilinear(prob, sine8, damping=0.5, tol=1e-12)

        n = 2048
        h = PI / n
        x = (np.arange(n) + 0.5) * h
        modes = np.sqrt(2.0 / PI) * np.sin(np.outer(x, np.arange(1, 9)))  # (n, 8)
        k2 = np.array([float(k * k) for j in range(1, 9) for k in range(1, 9)])
        fvals = NORM * np.outer(np.sin(x), np.sin(x))
        F = (modes.T @ fvals @ modes).ravel() * h * h

        u = np.zeros(64)
        for _ in range(400):
            uvals = modes @ u.reshape(8, 8) @ modes.T
            B = (modes.T @ np.arctan(uvals) @ modes).ravel() * h * h
            step = (F - B) / k2
            u_new = 0.5 * u + 0.5 * step
            if np.max(np.abs(u_new - u)) < 1e-13:
                u = u_new
                break
            u = u_new
        assert np.max(np.abs(sol.coeffs - u)) < 1e-6

    def test_uniqueness_wrt_initial_guess(self, dom, A_identity, sine8):
        f = mode_source(1, 1)
        prob = ProblemSpec(dom, A_identity, f, ReactionSpec.arctan(), LIMIT)
        a = solve_semilinear(prob, sine8, damping=0.5, tol=1e-11)
        rng = np.random.default_rng(2)
        b = solve_semilinear(prob, sine8, damping=0.5, tol=1e-11,
                             initial=rng.normal(size=sine8.dim))
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-8

    def test_residual_history_nonincreasing(self, dom, A_identity, sine8):
        f = mode_source(1, 1)
        prob = ProblemSpec(dom, A_identity, f, ReactionSpec.arctan(), LIMIT)
        sol = solve_semilinear(prob, sine8, damping=0.5)
        hist = sol.residual_history
        assert hist is not None and len(hist) > 2
        for a, b in zip(hist, hist[1:]):
            assert b <= a * (1.0 + 1e-12)

    def test_nonconvergence_suggests_smaller_damping(self, dom, A_identity,
                                                     sine8):
        f = mode_source(1, 1)
        prob = ProblemSpec(dom, A_identity, f, ReactionSpec.arctan(), LIMIT)
        with pytest.raises(NonConvergenceError):
            solve_semilinear(prob, sine8, damping=1.0, max_picard=3)

    def test_damping_domain(self, dom, A_identity, f_mode11, sine8):
        prob = ProblemSpec(dom, A_identity, f_mode11, ReactionSpec.arctan(), LIMIT)
        with pytest.raises(ValueError, match="damping"):
            solve_semilinear(prob, sine8, damping=0.0)


class TestPicardWork:
    # beta = 3 tanh on the perturbed problem at eps = 1 halves the undamped
    # step once; beta = tanh on the limit problem at damping 0.5 halves none
    CASES = [(1.0, 3.0, 1.0, True), (LIMIT, 1.0, 0.5, False)]

    @staticmethod
    def counting_tanh(slope):
        calls = []

        def beta(s):
            calls.append(1)
            return slope * np.tanh(s)

        return ReactionSpec.custom(beta, lipschitz=slope, growth=slope), calls

    @pytest.mark.parametrize("eps,slope,damping,halved", CASES)
    def test_reaction_evaluated_once_per_iteration(self, dom, A_identity, q1_8,
                                                   eps, slope, damping, halved):
        reaction, calls = self.counting_tanh(slope)
        prob = ProblemSpec(dom, A_identity, mode_source(1, 1), reaction, eps)
        sol = solve_semilinear(prob, q1_8, damping=damping)
        accepted = len(sol.residual_history) - 1
        assert (accepted < sol.picard_iterations) is halved
        assert len(calls) == sol.picard_iterations + 1

    @pytest.mark.parametrize("eps,slope,damping,halved", CASES)
    def test_matches_the_plain_iteration_bit_for_bit(self, dom, A_identity, q1_8,
                                                     eps, slope, damping, halved):
        # the plain loop evaluates the residual and the step afresh for
        # every iterate, halvings included; keeping them must change nothing.
        # It takes the package's inner solve and the factored residual.
        from anisolab.elliptic import picard_step, reaction_load
        reaction, _ = self.counting_tanh(slope)
        f = mode_source(1, 1)
        prob = ProblemSpec(dom, A_identity, f, reaction, eps)
        system = assemble_system(q1_8, A_identity, f)
        sol = solve_semilinear(prob, q1_8, damping=damping, system=system)

        K = system.operator(eps)
        precond = system.tensor_preconditioner(eps)
        F = system.F

        def residual(u):
            return np.linalg.norm(K @ u + reaction_load(q1_8, reaction, u) - F)

        u = np.zeros(q1_8.dim)
        res = residual(u)
        history, theta, halvings = [res], damping, 0
        for it in range(1, 201):
            step = picard_step(K, F - reaction_load(q1_8, reaction, u), precond)
            u_new = (1.0 - theta) * u + theta * step
            res_new = residual(u_new)
            if res_new > res and halvings < 6:
                theta *= 0.5
                halvings += 1
                continue
            u, res = u_new, res_new
            history.append(res)
            if res <= 1e-9 * np.linalg.norm(F):
                break
        assert (halvings > 0) is halved
        assert sol.picard_iterations == it
        assert np.array_equal(sol.coeffs, u)
        assert np.array_equal(sol.residual_history, history)


class TestGalerkinSolve:
    def test_custom_reaction_takes_damped_picard(self, dom, A_identity, q1_8):
        prob = ProblemSpec(dom, A_identity, mode_source(1, 1),
                           ReactionSpec.arctan(), LIMIT)
        sol = galerkin_solve(prob, q1_8, damping=0.5)
        ref = solve_semilinear(prob, q1_8, damping=0.5)
        assert sol.picard_iterations == ref.picard_iterations > 0
        assert np.array_equal(sol.coeffs, ref.coeffs)

    @pytest.mark.parametrize("reaction", [ReactionSpec.zero(),
                                          ReactionSpec.linear(2.0)])
    def test_linear_reaction_takes_solve_linear(self, dom, A_identity,
                                                f_mode11, sine8, reaction):
        prob = ProblemSpec(dom, A_identity, f_mode11, reaction, 0.5)
        sol = galerkin_solve(prob, sine8, damping=0.25)
        ref = solve_linear(prob, sine8)
        assert sol.kind == "perturbed" and sol.epsilon == 0.5
        assert sol.picard_iterations == 0
        assert np.array_equal(sol.coeffs, ref.coeffs)

    def test_calls_the_solvers_through_the_module(self, monkeypatch, dom,
                                                  A_identity, f_mode11, sine8):
        # wrappers set on the module see every solve
        import anisolab.elliptic as elliptic
        seen = []
        for name in ("solve_linear", "solve_semilinear"):
            original = getattr(elliptic, name)

            def wrapped(*args, _name=name, _original=original, **kwargs):
                seen.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(elliptic, name, wrapped)
        system = assemble_system(sine8, A_identity, f_mode11)
        for reaction in (ReactionSpec.zero(), ReactionSpec.arctan()):
            prob = ProblemSpec(dom, A_identity, f_mode11, reaction, LIMIT)
            galerkin_solve(prob, sine8, system, damping=0.5)
        assert seen == ["solve_linear", "solve_semilinear"]


class TestBoundSlack:
    @pytest.mark.parametrize("lhs,rhs,passed", [
        (1.0, 1.0, True),
        (1.0 + 5e-10, 1.0, True),
        (1.0 + 2e-9, 1.0, False),
        (5e-13, 0.0, True),
        (2e-12, 0.0, False),
        (0.0, 1.0, True),
    ])
    def test_relative_and_absolute_slack(self, lhs, rhs, passed):
        assert within_bound(lhs, rhs) is passed


class TestSolutionExport:
    def test_lattice_values_match_closed_form(self, dom, A_identity, f_mode11,
                                              sine8, tmp_path):
        from anisolab.elliptic import export_solution_csv
        prob = ProblemSpec(dom, A_identity, f_mode11, ReactionSpec.zero(), 0.5)
        sol = solve_linear(prob, sine8)
        path = tmp_path / "grid.csv"
        export_solution_csv(sol, path, n1=17, n2=17)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,u"
        assert len(lines) == 1 + 17 * 17
        worst = 0.0
        for line in lines[1:]:
            x1, x2, u = (float(p) for p in line.split(","))
            exact = 0.8 * NORM * math.sin(x1) * math.sin(x2)
            worst = max(worst, abs(u - exact))
        assert worst < 1e-12


class TestNonsymmetricCoefficients:
    def test_constant_unequal_off_blocks_stay_symmetric(self, dom, f_mode11,
                                                        sine8):
        # with zero traces, integration by parts makes each constant
        # off-block matrix symmetric, so the assembled operator is too
        from anisolab.coefficients import CoefficientField
        A = CoefficientField(1.0, 0.2, 0.1, 1.0, lam=0.85,
                             offdiag_mixed_deriv_in_l2=True)
        K = assemble_system(sine8, A, f_mode11).stiffness(0.5)
        assert abs(K - K.T).max() < 1e-12

    def test_variable_unequal_off_blocks_solve_through_lu(self, dom, f_mode11,
                                                          sine8):
        from anisolab.coefficients import CoefficientField, ScalarField
        g = ScalarField(lambda x1, x2: 0.2 * np.sin(x1) * np.sin(x2),
                        {"x1", "x2"})
        # symmetric part has pointwise smallest eigenvalue >= 1 - 0.1 = 0.9
        A = CoefficientField(1.0, g, 0.0, 1.0, lam=0.9,
                             offdiag_derivs_bounded=True)
        A.validate(dom)
        system = assemble_system(sine8, A, f_mode11)
        K = system.stiffness(0.5)
        assert abs(K - K.T).max() > 1e-6  # genuinely nonsymmetric
        prob = ProblemSpec(dom, A, f_mode11, ReactionSpec.zero(), 0.5)
        sol = solve_linear(prob, sine8, system=system)
        residual = K @ sol.coeffs - system.F
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(system.F)


class TestDiscreteConvergenceToLimit:
    def test_second_direction_error_decreases_monotonically(self, dom,
                                                            A_offdiag_const,
                                                            f_mode11, sine16):
        prob = ProblemSpec(dom, A_offdiag_const, f_mode11,
                           ReactionSpec.zero(), LIMIT)
        system = assemble_system(sine16, A_offdiag_const, f_mode11)
        u_limit = solve_linear(prob, sine16, system=system)
        errors = []
        for eps in [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]:
            u_eps = solve_linear(prob.with_epsilon(eps), sine16, system=system)
            errors.append(error_norms(u_eps, u_limit)[1])
        for a, b in zip(errors, errors[1:]):
            assert b < a
        assert errors[-1] < 1e-2


class TestAprioriBounds:
    def test_limit_equality_edge(self, dom, A_identity, f_mode11, sine8):
        prob = ProblemSpec(dom, A_identity, f_mode11, ReactionSpec.zero(), LIMIT)
        ledger = compute_constants(A_identity, dom, f_mode11, grid=128)
        sol = solve_linear(prob, sine8)
        report = apriori_check(sol, ledger, prob)
        assert report.all_passed
        grad2 = next(c for c in report.checks if c.name == "grad_x2")
        # saturation: the first mode attains the interval constant exactly
        assert grad2.lhs == pytest.approx(grad2.rhs, rel=1e-9)

    def test_zero_source_trivially_passes(self, dom, A_identity, sine8):
        f0 = mode_source(1, 1, 0.0)
        prob = ProblemSpec(dom, A_identity, f0, ReactionSpec.zero(), 0.5)
        ledger = compute_constants(A_identity, dom, f0, grid=64)
        sol = solve_linear(prob, sine8)
        report = apriori_check(sol, ledger, prob)
        assert report.all_passed
        assert report.norms["grad"] == 0.0

    def test_zero_reaction_has_zero_reaction_norm(self, dom, A_identity,
                                                  f_mode11, sine8):
        prob = ProblemSpec(dom, A_identity, f_mode11, ReactionSpec.zero(), 0.5)
        ledger = compute_constants(A_identity, dom, f_mode11, grid=64)
        sol = solve_linear(prob, sine8)
        report = apriori_check(sol, ledger, prob)
        reaction = next(c for c in report.checks if c.name == "reaction_norm")
        assert reaction.lhs == 0.0 and reaction.passed

    def test_perturbed_bounds_pass_for_all_shipped_matrices(
            self, dom, A_identity, A_offdiag_const, A_offdiag_variable,
            f_mode11, sine8):
        for A in (A_identity, A_offdiag_const, A_offdiag_variable):
            ledger = compute_constants(A, dom, f_mode11, grid=128)
            for eps in (1.0, 0.25):
                prob = ProblemSpec(dom, A, f_mode11, ReactionSpec.linear(1.0), eps)
                sol = solve_linear(prob, sine8)
                assert apriori_check(sol, ledger, prob).all_passed
