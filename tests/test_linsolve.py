import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from anisolab import linsolve
from anisolab.assembly import KronOperator, assemble_system
from anisolab.coefficients import CoefficientField, as_field
from anisolab.elliptic import ProblemSpec, solve_linear
from anisolab.linsolve import (IndefiniteOperatorError, NonConvergenceError,
                               _is_symmetric, lu_solver, solve)


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    return sp.csr_matrix(B @ B.T + n * np.eye(n))


class TestBasicContracts:
    def test_identity_solve(self):
        K = sp.eye(8, format="csr")
        rhs = np.eye(8)[0]
        x, res, it = solve(K, rhs)
        assert np.allclose(x, rhs, atol=1e-14)
        assert res < 1e-14

    def test_diagonal_eigen_solve(self):
        # second-direction eigenvalues plus scaled first-direction ones
        eps = 0.5
        diag = np.array([k * k + eps * eps * j * j
                         for j in range(1, 5) for k in range(1, 5)], dtype=float)
        K = sp.diags(diag).tocsr()
        rhs = np.zeros(16)
        rhs[0] = 1.0
        x, _, _ = solve(K, rhs)
        assert x[0] == pytest.approx(1.0 / (1.0 + eps * eps), abs=1e-12)

    def test_zero_rhs(self):
        x, res, it = solve(random_spd(10, 0), np.zeros(10))
        assert np.all(x == 0.0) and res == 0.0 and it == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            solve(random_spd(4, 0), np.ones(5))


class CountingKron(KronOperator):
    """A KronOperator that counts its mat-vecs."""

    matvecs = 0

    def __matmul__(self, x):
        self.matvecs += 1
        return super().__matmul__(x)


class TestSolveSetup:
    def test_zero_start_spends_no_matvec(self):
        # Jacobi-CG solves a diagonal system in one iteration
        def counted(x0):
            K = CountingKron(2, 3, [(1.0, np.diag([1.0, 2.0]),
                                     np.diag([1.0, 3.0, 5.0]))], symmetric=True)
            result = solve(K, np.arange(1.0, 7.0), x0=x0)
            assert result.iterations == 1
            return result.x, K.matvecs

        x, matvecs = counted(None)
        x_zero, matvecs_zero = counted(np.zeros(6))
        assert matvecs == matvecs_zero - 1 == 1
        assert np.array_equal(x, x_zero)

    @pytest.mark.parametrize("precond", [None, lambda r: r])
    def test_nonpositive_operator_diagonal_raises_every_call(self, precond):
        K = KronOperator(2, 2, [(1.0, np.diag([1.0, -1.0]), np.eye(2))],
                         symmetric=True)
        for _ in range(2):
            with pytest.raises(IndefiniteOperatorError):
                solve(K, np.ones(4), precond=precond)


class TestAgainstDenseOracle:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_cg_matches_dense_cholesky(self, seed):
        K = random_spd(50, seed)
        rng = np.random.default_rng(seed + 1)
        rhs = rng.normal(size=50)
        x_cg, _, _ = solve(K, rhs, rel_tol=1e-12)
        x_ch = np.linalg.solve(K.toarray(), rhs)
        assert np.linalg.norm(x_cg - x_ch) <= 1e-8 * np.linalg.norm(x_ch)

    def test_jacobi_and_plain_agree(self):
        K = random_spd(40, 3)
        rhs = np.ones(40)
        for precond in (lambda r: r, None):
            x, res, _ = solve(K, rhs, precond=precond)
            assert res <= 1e-10 * np.linalg.norm(rhs)


class TestErrorPaths:
    def test_nonconvergence_carries_best_iterate(self):
        K = random_spd(60, 4)
        rhs = np.ones(60)
        with pytest.raises(NonConvergenceError) as err:
            linsolve._cg(K, rhs, None, 1e-10, max_iter=2, precond=lambda r: r,
                         callback=None)
        assert err.value.iterations == 2
        assert err.value.best_x.shape == (60,)
        assert np.isfinite(err.value.residual_norm)

    def test_iteration_cap_is_twenty_n(self, monkeypatch):
        caps = []
        real_cg = linsolve._cg

        def capped_cg(K, b, x0, rel_tol, max_iter, precond, callback):
            caps.append(max_iter)
            return real_cg(K, b, x0, rel_tol, max_iter, precond, callback)

        monkeypatch.setattr(linsolve, "_cg", capped_cg)
        for n in (7, 30):
            solve(random_spd(n, n), np.ones(n))
        assert caps == [20 * 7, 20 * 30]

    def test_indefinite_breakdown_is_reported(self):
        K = sp.diags([1.0, -1.0, 1.0]).tocsr()
        with pytest.raises(IndefiniteOperatorError, match="not positive definite$"):
            solve(K, np.array([1.0, 1.0, 1.0]), precond=lambda r: r)

    def test_nonsymmetric_routes_to_lu(self):
        K = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
        x, res, it = solve(K, np.array([3.0, 2.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)
        assert it == 0


class TestCgProperties:
    def test_energy_error_monotone_on_iterates(self):
        K = random_spd(35, 7)
        rhs = np.arange(1.0, 36.0)
        x_star = np.linalg.solve(K.toarray(), rhs)
        iterates = []
        solve(K, rhs, rel_tol=1e-12, precond=lambda r: r, callback=iterates.append)
        energies = [float((x - x_star) @ (K @ (x - x_star))) for x in iterates]
        for a, b in zip(energies, energies[1:]):
            assert b <= a * (1.0 + 1e-10)

    def test_polishing_never_increases_true_residual(self):
        K = random_spd(45, 11)
        rhs = np.ones(45)
        x1, res1, _ = solve(K, rhs, rel_tol=1e-6)
        x2, res2, _ = solve(K, rhs, rel_tol=1e-12, x0=x1)
        assert res2 <= res1 * (1.0 + 1e-12)


class TestConfigValidation:
    @pytest.mark.parametrize("rel_tol", [0.0, -1e-10, -1.0])
    def test_bad_config_rejected(self, rel_tol):
        with pytest.raises(ValueError, match="rel_tol"):
            solve(random_spd(5, 0), np.ones(5), rel_tol=rel_tol)


def _sparse_verdict(K, tol=1e-12):
    """The symmetry verdict computed on the sparse matrix alone."""
    d = K - K.T
    return abs(d).max() <= tol * max(abs(K).max(), 1e-300)


def _stored(dense, n_stored):
    """CSR of ``dense`` storing ``n_stored`` entries on a symmetric pattern:
    the first 9 or 10 diagonal entries and the first upper-triangle pairs in
    row-major order, zeros among them kept as explicit entries."""
    n = dense.shape[0]
    n_diag = 10 - n_stored % 2
    upper = np.array(np.triu_indices(n, 1))[:, : (n_stored - n_diag) // 2]
    rows = np.concatenate([np.arange(n_diag), upper[0], upper[1]])
    cols = np.concatenate([np.arange(n_diag), upper[1], upper[0]])
    K = sp.csr_matrix((dense[rows, cols], (rows, cols)), shape=dense.shape)
    assert K.nnz == n_stored
    return K


class TestSymmetryCheck:
    """Dense-view and sparse computations of ``_is_symmetric`` agree."""

    @pytest.fixture(scope="class")
    def nonsymmetric_coupling(self):
        return CoefficientField(
            1.0, as_field(lambda x1, x2: 0.3 * np.sin(x1) * np.sin(x2)),
            as_field(lambda x1, x2: 0.1 * np.sin(x1) * np.sin(x2)), 1.0, lam=0.75)

    def test_identity_sine_system(self, sine8, A_identity):
        K = assemble_system(sine8, A_identity).stiffness(0.5)
        assert 2 * K.nnz >= K.shape[0] ** 2  # checked on the dense view
        assert _is_symmetric(K) and _sparse_verdict(K)

    def test_unequal_coupling_sine_system(self, sine8, nonsymmetric_coupling):
        K = assemble_system(sine8, nonsymmetric_coupling).stiffness(0.5)
        assert 2 * K.nnz >= K.shape[0] ** 2
        assert not _is_symmetric(K) and not _sparse_verdict(K)

    def test_unequal_coupling_routed_to_lu(self, monkeypatch, dom, sine8,
                                           nonsymmetric_coupling, f_mode11):
        def no_cg(*args):
            raise AssertionError("nonsymmetric system reached CG")

        monkeypatch.setattr(linsolve, "_cg", no_cg)
        problem = ProblemSpec(dom, nonsymmetric_coupling, f_mode11).with_epsilon(0.5)
        system = assemble_system(sine8, nonsymmetric_coupling, f_mode11)
        sol = solve_linear(problem, sine8, system=system)
        K = system.stiffness(0.5).toarray()
        assert np.allclose(sol.coeffs, np.linalg.solve(K, system.F),
                           rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n_stored", [49, 50, 51])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_half_density_threshold(self, n_stored, symmetric):
        # n = 10: 50 stored entries are exactly half of n^2; some stored
        # entries are explicit zeros
        rng = np.random.default_rng(n_stored)
        B = rng.normal(size=(10, 10))
        dense = B + B.T
        dense[::2, ::2] = 0.0
        if not symmetric:
            dense[1, 2] += 1e-6
        K = _stored(dense, n_stored)
        stored = K.toarray()
        assert np.count_nonzero(stored) < K.nnz
        assert _is_symmetric(K) == _sparse_verdict(K) == _is_symmetric(stored) == symmetric


def test_lu_solver_matches_spsolve_on_a_cea_gram_matrix(dom):
    # the Gram matrix and right-hand side of the Cea check's best
    # approximation of a q1 m=8 reference onto its m=4 subspace
    import scipy.sparse.linalg as spla
    from anisolab.spaces import build_space, embedding_matrix
    fine = build_space(dom, "q1", 8, "q1", 8)
    G = assemble_system(fine, CoefficientField.identity()).G2.tocsr()
    E = embedding_matrix(build_space(dom, "q1", 4, "q1", 4), fine)
    gram = E.T @ (G @ E)
    rhs = E.T @ (G @ np.random.default_rng(3).normal(size=fine.dim))
    assert np.array_equal(lu_solver(gram)(rhs), spla.spsolve(gram.tocsc(), rhs))
