"""One SPD route for the Galerkin solves.

* ``tensor_preconditioner`` inverts the separable part of the operator,
  ``eps^2 A1 (x) M2 + M1 (x) A2 + mu M``: exactly for a two-term system,
  bit for bit as the identity-coefficient formula for identity
  coefficients, and no worse than it for a coupled system.
* A Picard step is that CG on the factored operator, or one LU of it for
  a nonsymmetric coupling.
* The Cea best approximation inverts the coarse Gram matrix by fast
  diagonalisation and applies the embedding factored; it agrees with a
  dense Gram solve of the CSR embedding.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from anisolab import linsolve
from anisolab.assembly import (KronOperator, assemble_system,
                               fast_diagonal_inverse, pencil_eigenbasis)
from anisolab.cli import main
from anisolab.coefficients import (CoefficientField, ReactionSpec,
                                   ScalarField, SourceField, as_field)
from anisolab.diagnostics import REFERENCE_REFINEMENT, best_approximation, cea_check
from anisolab.elliptic import LIMIT, ProblemSpec, galerkin_solve, solve_semilinear
from anisolab.linsolve import NonConvergenceError, solve
from anisolab.spaces import build_space, embedding_matrix

PI = math.pi
TOOL_CONFIG_DIR = Path(__file__).resolve().parents[1] / "tools" / "configs"

A11 = ScalarField(lambda x1, x2: 1.0 + x1 / PI, {"x1"}, label="1 + x1/pi")
A22 = ScalarField(lambda x1, x2: 1.0 + x2 * x2 / 10.0, {"x2"},
                  label="1 + x2*x2/10")
COUPLING = ScalarField(lambda x1, x2: 0.2 * np.sin(x1) * np.sin(x2),
                       {"x1", "x2"},
                       dx1=as_field(lambda x1, x2: 0.2 * np.cos(x1) * np.sin(x2)),
                       dx2=as_field(lambda x1, x2: 0.2 * np.sin(x1) * np.cos(x2)),
                       label="0.2*sin(x1)*sin(x2)")
TWO_TERM = CoefficientField(A11, 0.0, 0.0, A22, lam=1.0)
COUPLED = CoefficientField(A11, COUPLING, COUPLING, A22, lam=0.8,
                           offdiag_mixed_deriv_in_l2=True)
KEYS = [(LIMIT, 0.0), (LIMIT, 3.0), (1.0, 0.0), (0.25, 0.0), (1.0 / 64, 2.0)]


def generic_load(space, seed=3):
    return np.random.default_rng(seed).normal(size=space.dim)


@pytest.fixture(params=["sine", "q1"])
def two_term_system(request, dom):
    space = build_space(dom, request.param, 12, request.param, 10)
    return assemble_system(space, TWO_TERM)


class TestSeparablePreconditioner:
    @pytest.mark.parametrize("eps,mu", KEYS)
    def test_inverts_a_two_term_operator(self, two_term_system, eps, mu):
        v = generic_load(two_term_system.space)
        got = two_term_system.tensor_preconditioner(eps, mu)(
            two_term_system.operator(eps, mu) @ v)
        assert np.linalg.norm(got - v) <= 1e-12 * np.linalg.norm(v)

    @pytest.mark.parametrize("eps,mu", KEYS)
    def test_cg_stops_after_one_iteration(self, two_term_system, eps, mu):
        b = generic_load(two_term_system.space)
        result = solve(two_term_system.operator(eps, mu), b, rel_tol=1e-12,
                       precond=two_term_system.tensor_preconditioner(eps, mu))
        assert result.iterations == 1
        assert result.residual_norm <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("kind", ["sine", "q1"])
    @pytest.mark.parametrize("eps,mu", KEYS)
    def test_identity_coefficients_keep_the_identity_formula(self, dom, A_identity,
                                                              kind, eps, mu):
        space = build_space(dom, kind, 12, kind, 10)
        system = assemble_system(space, A_identity)
        Q1, lam1 = pencil_eigenbasis(space, 1)
        Q2, lam2 = pencil_eigenbasis(space, 2)
        e2 = 0.0 if eps is LIMIT else eps ** 2
        inv = 1.0 / (e2 * lam1[:, None] + lam2[None, :] + mu)
        r = generic_load(space)
        want = (Q1 @ (inv * (Q1.T @ r.reshape(inv.shape) @ Q2)) @ Q2.T).ravel()
        assert np.array_equal(system.tensor_preconditioner(eps, mu)(r), want)

    @pytest.mark.parametrize("eps", [1.0, 0.25, 1.0 / 16])
    def test_coupled_q1_takes_no_more_iterations(self, dom, eps):
        space = build_space(dom, "q1", 32, "q1", 32)
        system = assemble_system(space, COUPLED)
        assert system.two_term_eigenbasis is None
        K, b = system.operator(eps), generic_load(space)
        identity = solve(K, b, rel_tol=1e-12, precond=fast_diagonal_inverse(
            system.eigenbasis, eps, 0.0))
        separable = solve(K, b, rel_tol=1e-12, precond=system.tensor_preconditioner(eps))
        assert separable.iterations <= identity.iterations
        assert (np.linalg.norm(separable.x - identity.x)
                <= 1e-9 * np.linalg.norm(identity.x))

    def test_two_term_eigenbasis_is_the_separable_one(self, dom):
        space = build_space(dom, "q1", 8, "q1", 8)
        two_term = assemble_system(space, TWO_TERM)
        coupled = assemble_system(space, COUPLED)
        assert two_term.two_term_eigenbasis is two_term.separable_eigenbasis
        assert coupled.two_term_eigenbasis is None
        for got, want in zip(coupled.separable_eigenbasis,
                             two_term.separable_eigenbasis):
            assert np.array_equal(got, want)


def arctan_problem(dom, epsilon):
    f = SourceField(as_field(lambda x1, x2: np.sin(x1) * np.sin(x2)))
    return ProblemSpec(dom, TWO_TERM, f, ReactionSpec.arctan(), epsilon)


class TestPicardSteps:
    @pytest.mark.parametrize("eps", [LIMIT, 0.5])
    def test_builds_no_matrix_of_the_space(self, dom, monkeypatch, eps):
        def forbidden(self):
            raise AssertionError("Picard formed a CSR operator")

        monkeypatch.setattr(KronOperator, "tocsr", forbidden)
        space = build_space(dom, "q1", 8, "sine", 8)
        sol = solve_semilinear(arctan_problem(dom, eps), space, damping=0.5)
        assert sol.final_residual <= 1e-9

    def test_nonsymmetric_coupling_is_factorised_once(self, dom, q1_8,
                                                      monkeypatch):
        calls = []
        original = linsolve.lu_solver

        def counting(K):
            calls.append(K.shape)
            return original(K)

        monkeypatch.setattr(linsolve, "lu_solver", counting)
        # a constant coupling gives a symmetric form, whatever a12 - a21
        A = CoefficientField(A11, COUPLING.scaled(1.5), COUPLING.scaled(0.5),
                             A22, lam=0.75)
        f = SourceField(as_field(lambda x1, x2: np.sin(x1) * np.sin(x2)))
        problem = ProblemSpec(dom, A, f, ReactionSpec.arctan(), 0.5)
        sol = solve_semilinear(problem, q1_8, damping=0.5)
        assert sol.picard_iterations > 1 and sol.final_residual <= 1e-9
        assert calls == [(q1_8.dim, q1_8.dim)]

    def test_damping_that_stalls_asks_for_a_larger_one(self, dom, sine8):
        with pytest.raises(NonConvergenceError,
                           match="retry with a larger damping factor"):
            solve_semilinear(arctan_problem(dom, 0.5), sine8, damping=1e-300,
                             max_picard=5)

    def test_halved_damping_asks_for_a_smaller_one(self, dom, A_identity, q1_8):
        # a steep reaction overshoots at damping 0.9, so the step is halved
        reaction = ReactionSpec.custom(lambda s: 20.0 * np.tanh(s),
                                       lipschitz=20.0, growth=20.0)
        f = SourceField(as_field(lambda x1, x2: 10.0 * np.sin(x1) * np.sin(x2)))
        problem = ProblemSpec(dom, A_identity, f, reaction, LIMIT)
        with pytest.raises(NonConvergenceError,
                           match="retry with a smaller damping factor"):
            solve_semilinear(problem, q1_8, damping=0.9, max_picard=50)

    def test_undamped_iteration_keeps_asking_for_a_smaller_one(self, dom, sine8):
        with pytest.raises(NonConvergenceError,
                           match="retry with a smaller damping factor"):
            solve_semilinear(arctan_problem(dom, 0.5), sine8, max_picard=1)

    def test_cli_damping_that_stalls_asks_for_a_larger_one(self, tmp_path, capsys):
        text = (TOOL_CONFIG_DIR / "solve_arctan.cfg").read_text()
        path = tmp_path / "stalled.cfg"
        path.write_text(text.replace("[study]", "[study]\ndamping = 1e-300"))
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 3
        failure = {"study": "solve", "error": "NonConvergenceError",
                   "message": "solver did not converge in 200 iterations "
                              "(best residual 1.000e+00); retry with a larger "
                              "damping factor",
                   "iterations": 200, "residual_norm": 1.0}
        assert capsys.readouterr().err == f"failed: {failure}\n"
        assert json.loads((out / "summary.json").read_text())["failures"] == [failure]


class TestCeaBestApproximation:
    @staticmethod
    def gram_and_epsilon(system, perturbed):
        if perturbed:
            return KronOperator.combine([(1.0, system.G1), (1.0, system.G2)]), 1.0
        return system.G2, LIMIT

    @pytest.mark.parametrize("kind", ["sine", "q1"])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_matches_a_dense_gram_solve(self, dom, kind, perturbed):
        coarse = build_space(dom, kind, 4, kind, 6)
        fine = coarse.refine(REFERENCE_REFINEMENT)
        G, gram_eps = self.gram_and_epsilon(assemble_system(fine, TWO_TERM),
                                            perturbed)
        u = generic_load(fine)
        got = best_approximation(G, u, coarse, fine, gram_eps)

        E = embedding_matrix(coarse, fine).toarray()
        Gd = G.toarray()
        want = E @ np.linalg.solve(E.T @ Gd @ E, E.T @ (Gd @ u))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", ["sine", "q1"])
    @pytest.mark.parametrize("eps", [LIMIT, 0.5])
    def test_cea_check_reports_the_dense_best_error(self, dom, kind, eps):
        f = SourceField(as_field(lambda x1, x2: x1 * (PI - x1) * np.exp(x2)),
                        grad_x1_in_l2=True, slices_vanish_x1=True)
        problem = ProblemSpec(dom, TWO_TERM, f, epsilon=eps)
        spaces = [build_space(dom, kind, m, kind, m) for m in (2, 4)]
        report = cea_check(spaces, problem)

        fine = spaces[-1].refine(REFERENCE_REFINEMENT)
        system = assemble_system(fine, TWO_TERM, f)
        G = self.gram_and_epsilon(system, eps is not LIMIT)[0].toarray()
        u_ref = galerkin_solve(problem, fine, system).coeffs  # as cea_check solves it
        for space, row in zip(spaces, report.rows):
            E = embedding_matrix(space, fine).toarray()
            e = u_ref - E @ np.linalg.solve(E.T @ G @ E, E.T @ (G @ u_ref))
            want = math.sqrt(e @ G @ e)
            assert abs(row.best_error - want) <= 1e-12 * want
            assert row.best_error <= row.galerkin_error
