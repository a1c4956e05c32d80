"""The factored system operators of ``AssembledProblem`` against their CSR
materialisation, the once-per-system symmetry verdict, and the solve path
that builds no Kronecker product."""

import numpy as np
import pytest
import scipy.sparse

from anisolab import assembly, linsolve
from anisolab.assembly import assemble_mass, assemble_system
from anisolab.coefficients import CoefficientField, ScalarField, as_field
from anisolab.elliptic import LIMIT, ProblemSpec, solve_linear
from anisolab.expressions import parse_expression
from anisolab.linsolve import _is_symmetric
from anisolab.spaces import build_space
from anisolab.stencil import Tridiagonal


def _expr(source):
    return as_field(parse_expression(source))


def _nonsymmetric_coupling():
    return CoefficientField(
        1.0, ScalarField(lambda x1, x2: 0.3 * np.sin(x1) * np.sin(x2), {"x1", "x2"}),
        ScalarField(lambda x1, x2: 0.1 * np.sin(x1) * np.sin(x2), {"x1", "x2"}),
        1.0, lam=0.75)


def _coefficients(kind, request):
    """One coefficient set per dependence class of its entries."""
    if kind == "constant":
        return request.getfixturevalue("A_offdiag_const")
    if kind == "x1":
        return CoefficientField(_expr("1 + x1/4"), _expr("0.2*sin(x1)"),
                                _expr("0.2*sin(x1)"), 1.0, lam=0.5)
    if kind == "x2":
        return CoefficientField(1.0, _expr("0.1*cos(x2)"), _expr("0.1*cos(x2)"),
                                _expr("1 + x2*x2/10"), lam=0.5)
    coupled = request.getfixturevalue("A_offdiag_variable")
    return CoefficientField(_expr("1 + x1*x2/10"), coupled.a12, coupled.a21, 1.0,
                            lam=0.5)


@pytest.fixture(scope="module", params=[("sine", "sine"), ("q1", "q1"), ("q1", "sine")],
                ids=lambda p: "x".join(p))
def space(request, dom):
    return build_space(dom, request.param[0], 8, request.param[1], 6)


def _close(got, want):
    scale = max(np.max(np.abs(want)), 1e-300)
    return np.max(np.abs(got - want)) <= 1e-12 * scale


class TestOperatorAgainstCSR:
    @pytest.mark.parametrize("kind", ["constant", "x1", "x2", "2d"])
    @pytest.mark.parametrize("mu", [0.0, 3.0])
    @pytest.mark.parametrize("epsilon", [None, 0.5, 0.0625])
    def test_apply_diagonal_and_dense_view(self, request, space, kind, mu, epsilon):
        system = assemble_system(space, _coefficients(kind, request))
        op = system.operator(epsilon, mu)
        K = system.limit_stiffness() if epsilon is None else system.stiffness(epsilon)
        want = (K + mu * assemble_mass(space)).toarray()
        v = np.random.default_rng(7).normal(size=space.dim)
        assert op.shape == want.shape
        assert _close(op @ v, want @ v)
        assert _close(op.diagonal(), np.diag(want))
        assert _close(op.toarray(), want)
        assert _close(op.tocsr().toarray(), want)

    def test_blocks_match_their_kernel(self, request, space):
        # a constant and a one-variable coefficient give one factored term,
        # a 2D one a remainder
        system = assemble_system(space, _coefficients("x2", request))
        assert len(system.K22.terms) == 1 and not system.K22.remainders
        system = assemble_system(space, _coefficients("2d", request))
        assert not system.K12.terms and len(system.K12.remainders) == 1

    def test_q1_factors_stay_sparse(self, dom):
        # three diagonals, with 0 at the two corners outside the matrix
        system = assemble_system(build_space(dom, "q1", 16, "sine", 4),
                                 CoefficientField.identity())
        (_, B1, B2), = system.K22.terms
        assert isinstance(B1, Tridiagonal) and B1.bands.shape == (3, 15)
        assert np.count_nonzero(B1.bands) == 15 + 2 * 14
        assert B1.bands[0, 0] == B1.bands[2, -1] == 0.0
        assert isinstance(B2, np.ndarray)


class TestSymmetryVerdict:
    @pytest.mark.parametrize("name", ["A_identity", "A_offdiag_const",
                                      "A_offdiag_variable", "nonsymmetric"])
    @pytest.mark.parametrize("basis", ["sine", "q1"])
    def test_verdict_equals_check_on_stiffness(self, request, dom, name, basis):
        A = (_nonsymmetric_coupling() if name == "nonsymmetric"
             else request.getfixturevalue(name))
        system = assemble_system(build_space(dom, basis, 8, basis, 8), A)
        for eps in (1.0, 0.5, 0.125):
            verdict = _is_symmetric(system.stiffness(eps))
            assert system.coupling_symmetric == verdict
            assert system.operator(eps).symmetric == verdict
            assert system.operator(eps, 2.0).symmetric == verdict
        assert system.operator(None).symmetric is True
        assert system.coupling_symmetric == (name != "nonsymmetric")

    def test_nonsymmetric_system_reaches_lu(self, monkeypatch, dom, f_mode11):
        def no_cg(*args):
            raise AssertionError("nonsymmetric system reached CG")

        monkeypatch.setattr(linsolve, "_cg", no_cg)
        A = _nonsymmetric_coupling()
        q1_8 = build_space(dom, "q1", 8, "q1", 8)
        system = assemble_system(q1_8, A, f_mode11)
        sol = solve_linear(ProblemSpec(dom, A, f_mode11).with_epsilon(0.5), q1_8,
                           system=system)
        K = system.stiffness(0.5).toarray()
        assert np.allclose(sol.coeffs, np.linalg.solve(K, system.F),
                           rtol=1e-12, atol=1e-14)


class TestSolvePath:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"_is_symmetric": 0, "kron": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        symmetric = counted("_is_symmetric", linsolve._is_symmetric)
        monkeypatch.setattr(linsolve, "_is_symmetric", symmetric)
        monkeypatch.setattr(assembly, "_is_symmetric", symmetric)
        monkeypatch.setattr(scipy.sparse, "kron", counted("kron", scipy.sparse.kron))
        return counts

    def test_uncoupled_sine_solve_builds_no_kron_and_checks_nothing(
            self, counts, dom, sine16, A_identity, f_mode11):
        problem = ProblemSpec(dom, A_identity, f_mode11)
        for eps in (LIMIT, 0.5, 0.125):
            sol = solve_linear(problem.with_epsilon(eps), sine16)
            assert sol.final_residual <= 1e-9
        assert counts == {"_is_symmetric": 0, "kron": 0}

    def test_coupled_system_is_checked_once(self, counts, dom, sine8,
                                            A_offdiag_variable, f_mode11):
        problem = ProblemSpec(dom, A_offdiag_variable, f_mode11)
        system = assemble_system(sine8, A_offdiag_variable, f_mode11)
        for eps in (0.5, 0.25, 0.125, LIMIT):
            solve_linear(problem.with_epsilon(eps), sine8, system=system)
        assert counts["_is_symmetric"] == 1
