"""The tensor preconditioner of the Galerkin solves: closed-form 1D
eigenbases, exact inversion of identity-coefficient operators, and CG
iteration counts that stay flat in epsilon and the mesh size."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

import anisolab.elliptic
from anisolab.assembly import (assemble_system, mass_1d, pencil_eigenbasis,
                               stiffness_1d)
from anisolab.coefficients import (CoefficientField, ReactionSpec,
                                   ScalarField, SourceField, as_field)
from anisolab.elliptic import LIMIT, ProblemSpec, solve_linear
from anisolab.linsolve import IndefiniteOperatorError, solve
from anisolab.spaces import build_space

PI = math.pi


@pytest.fixture
def iteration_counts(monkeypatch):
    """CG iteration counts of every solve reached through ``solve_linear``."""
    counts = []
    original = anisolab.elliptic.solve

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        counts.append(result.iterations)
        return result

    monkeypatch.setattr(anisolab.elliptic, "solve", counting)
    return counts


def generic_source():
    # several modes in both directions, none of them an eigenfunction alone
    return SourceField(as_field(
        lambda x1, x2: x1 * (PI - x1) * np.exp(x2) + np.sin(3 * x1) * x2,
        label="generic"))


class TestEigenbasis:
    @pytest.mark.parametrize("kind,order", [
        ("q1", 1), ("q1", 2), ("q1", 3), ("q1", 4),
        ("sine", 3), ("sine", 4), ("sine", 8),
    ])
    @pytest.mark.parametrize("m", [2, 8, 33, 128])
    def test_pencil_is_diagonalised(self, dom, kind, order, m):
        space = build_space(dom, kind, m, kind, 2, quad_order=order)
        Q, lam = pencil_eigenbasis(space, 1)
        M = mass_1d(space.basis1, order).toarray()
        S = stiffness_1d(space.basis1, order=order).toarray()
        assert Q.shape == (space.basis1.dim, space.basis1.dim)
        assert np.max(np.abs(Q.T @ M @ Q - np.eye(lam.size))) <= 1e-12
        assert (np.max(np.abs(Q.T @ S @ Q - np.diag(lam)))
                <= 1e-12 * np.max(lam))
        assert np.all(lam > 0)

    def test_sine_eigenvalues_are_the_squared_frequencies(self, dom):
        space = build_space(dom, "sine", 2, "sine", 33)
        _, lam = pencil_eigenbasis(space, 2)
        omega = space.basis2.frequencies()
        assert np.max(np.abs(lam / omega ** 2 - 1.0)) <= 1e-12

    def test_eigenbasis_is_built_once_per_system(self, dom, A_identity,
                                                 f_mode11):
        space = build_space(dom, "q1", 8, "q1", 8)
        system = assemble_system(space, A_identity, f_mode11)
        assert system.eigenbasis is system.eigenbasis


class TestIdentityCoefficients:
    @pytest.mark.parametrize("kinds", [("q1", "q1"), ("sine", "sine"),
                                       ("q1", "sine")])
    @pytest.mark.parametrize("reaction", [ReactionSpec.zero(),
                                          ReactionSpec.linear(3.0)])
    def test_solve_takes_at_most_two_iterations(self, dom, A_identity, kinds,
                                                reaction, iteration_counts):
        space = build_space(dom, kinds[0], 16, kinds[1], 12)
        problem = ProblemSpec(dom, A_identity, generic_source(), reaction)
        system = assemble_system(space, A_identity, problem.source)
        for eps in (1.0, 0.25, 1.0 / 64, LIMIT):
            sol = solve_linear(problem.with_epsilon(eps), space, system=system)
            assert sol.final_residual <= 1e-10
        assert len(iteration_counts) == 4
        assert max(iteration_counts) <= 2


class TestTwoDimensionalCoefficients:
    @pytest.fixture(scope="class")
    def rate_2d(self):
        # the q1 rate_2d study of the benchmark: 2D coupling, x2-only a22
        g = ScalarField(lambda x1, x2: 0.2 * np.sin(x1) * np.sin(x2),
                        {"x1", "x2"},
                        dx1=as_field(lambda x1, x2: 0.2 * np.cos(x1) * np.sin(x2)),
                        dx2=as_field(lambda x1, x2: 0.2 * np.sin(x1) * np.cos(x2)),
                        label="0.2*sin(x1)*sin(x2)")
        a22 = ScalarField(lambda x1, x2: 1.0 + x2 * x2 / 10.0, {"x2"},
                          label="1 + x2*x2/10")
        return CoefficientField(1.0, g, g, a22, lam=0.8,
                                offdiag_mixed_deriv_in_l2=True)

    @pytest.mark.parametrize("m", [32, 64, 128])
    def test_iterations_flat_in_epsilon_and_mesh(self, dom, rate_2d, m,
                                                 iteration_counts):
        space = build_space(dom, "q1", m, "q1", m)
        problem = ProblemSpec(dom, rate_2d, generic_source())
        system = assemble_system(space, rate_2d, problem.source)
        for eps in (0.5, 1.0 / 16, 1.0 / 128, LIMIT):
            solve_linear(problem.with_epsilon(eps), space, system=system)
        assert len(iteration_counts) == 4
        assert max(iteration_counts) <= 20

    def test_matches_dense_cholesky(self, dom, rate_2d):
        space = build_space(dom, "q1", 16, "q1", 16)
        problem = ProblemSpec(dom, rate_2d, generic_source(), epsilon=0.125)
        system = assemble_system(space, rate_2d, problem.source)
        cg = solve_linear(problem, space, system=system)
        dense = np.linalg.solve(system.operator(0.125).toarray(), system.F)
        assert (np.linalg.norm(cg.coeffs - dense)
                <= 1e-10 * np.linalg.norm(dense))


class TestCallerPreconditioner:
    def test_exact_inverse_takes_one_iteration(self):
        diag = np.arange(1.0, 11.0)
        K = sp.diags(diag).tocsr()
        _, res, it = solve(K, np.ones(10), precond=lambda r: r / diag)
        assert it == 1 and res <= 1e-14

    def test_nonpositive_diagonal_is_refused(self):
        K = sp.diags([1.0, -1.0, 1.0]).tocsr()
        with pytest.raises(IndefiniteOperatorError, match="not positive definite$"):
            solve(K, np.ones(3), precond=lambda r: r)

    def test_negative_curvature_is_refused(self):
        # positive diagonal, indefinite matrix: eigenvalues 3 and -1
        K = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(IndefiniteOperatorError):
            solve(K, np.array([1.0, -1.0]), precond=lambda r: r)


class TestTensorPreconditionerKey:
    """``tensor_preconditioner(eps, mu)`` inverts ``operator(eps, mu)`` of
    identity coefficients, for the same key and the limit ``LIMIT``."""

    @pytest.mark.parametrize("space_name", ["sine8", "q1_8"])
    @pytest.mark.parametrize("eps", [LIMIT, 0.5])
    @pytest.mark.parametrize("mu", [0.0, 2.0])
    def test_inverts_the_operator_of_the_same_key(self, request, A_identity,
                                                   space_name, eps, mu):
        system = assemble_system(request.getfixturevalue(space_name), A_identity)
        x = np.random.default_rng(7).normal(size=system.space.dim)
        apply = system.tensor_preconditioner(eps, mu)
        got = apply(system.operator(eps, mu) @ x)
        assert np.linalg.norm(got - x) <= 1e-12 * np.linalg.norm(x)

    def test_limit_is_the_default_key(self, sine8, A_identity):
        system = assemble_system(sine8, A_identity)
        r = np.random.default_rng(8).normal(size=sine8.dim)
        assert np.array_equal(system.tensor_preconditioner()(r),
                              system.tensor_preconditioner(LIMIT, 0.0)(r))
