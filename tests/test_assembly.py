import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from anisolab.assembly import (assemble_block_stiffness, assemble_limit_stiffness,
                               assemble_load, assemble_mass,
                               assemble_scaled_stiffness, assemble_system,
                               mass_1d, project, seminorm_matrices,
                               stiffness_1d)
from anisolab.coefficients import CoefficientField, ScalarField, as_field
from anisolab.expressions import parse_expression
from anisolab.spaces import build_space

PI = math.pi
NORM = 2.0 / PI


def mode_indices(m):
    j, k = np.meshgrid(np.arange(1, m + 1), np.arange(1, m + 1), indexing="ij")
    return j.ravel(), k.ravel()


class TestSineAssembly:
    def test_mass_is_identity(self, sine8):
        M = assemble_mass(sine8).toarray()
        assert np.max(np.abs(M - np.eye(64))) < 1e-12

    def test_block_stiffness_eigenvalues(self, sine8, A_identity):
        j, k = mode_indices(8)
        K11 = assemble_block_stiffness(sine8, A_identity, "11").toarray()
        K22 = assemble_block_stiffness(sine8, A_identity, "22").toarray()
        assert np.max(np.abs(K11 - np.diag(j.astype(float) ** 2))) < 5e-12
        assert np.max(np.abs(K22 - np.diag(k.astype(float) ** 2))) < 5e-12

    def test_first_mode_energy_is_one(self, sine8, A_identity):
        # the L2-normalized first tensor mode has unit energy in each direction
        K11 = assemble_block_stiffness(sine8, A_identity, "11")
        K22 = assemble_block_stiffness(sine8, A_identity, "22")
        e = np.zeros(64)
        e[0] = 1.0
        assert e @ (K11 @ e) == pytest.approx(1.0, abs=1e-13)
        assert e @ (K22 @ e) == pytest.approx(1.0, abs=1e-13)

    def test_offdiagonal_blocks_vanish_for_identity(self, sine8, A_identity):
        for block in ("12", "21"):
            K = assemble_block_stiffness(sine8, A_identity, block)
            assert K.nnz == 0 or abs(K).max() < 1e-12

    def test_unknown_block_rejected(self, sine8, A_identity):
        with pytest.raises(ValueError, match="block"):
            assemble_block_stiffness(sine8, A_identity, "13")


class TestReassemblyIdentity:
    def test_scaled_assembly_matches_block_combination(self, sine8,
                                                       A_offdiag_variable):
        system = assemble_system(sine8, A_offdiag_variable)
        for eps in (1.0, 0.5, 0.125):
            direct = assemble_scaled_stiffness(sine8, A_offdiag_variable, eps)
            combo = system.stiffness(eps)
            scale = abs(combo).max()
            assert abs(direct - combo).max() < 1e-12 * scale


class TestScaledStiffness:
    # the direct assembly weights the blocks 11, 12, 21, 22 by eps^2, eps, eps, 1
    def test_unperturbed(self, sine8, A_identity):
        K = assemble_scaled_stiffness(sine8, A_identity, 1.0)
        e = np.zeros(64)
        e[0] = 1.0
        assert e @ (K @ e) == pytest.approx(2.0, abs=1e-13)

    def test_half(self, sine8, A_identity):
        # unit energy of the first mode in each direction: 0.25 * 1 + 1
        K = assemble_scaled_stiffness(sine8, A_identity, 0.5)
        e = np.zeros(64)
        e[0] = 1.0
        assert e @ (K @ e) == pytest.approx(1.25, abs=1e-13)

    def test_block_limit(self, sine8, A_offdiag_variable):
        # as eps -> 0 only the second-direction block survives
        K = assemble_scaled_stiffness(sine8, A_offdiag_variable, 1e-8)
        K22 = assemble_block_stiffness(sine8, A_offdiag_variable, "22")
        assert abs(K - K22).max() < 1e-7 * abs(K22).max()

    @pytest.mark.parametrize("eps", [0.0, -0.5, 1.5, 2.0])
    def test_rejects_out_of_range(self, sine8, A_identity, eps):
        with pytest.raises(ValueError, match="epsilon"):
            assemble_scaled_stiffness(sine8, A_identity, eps)


class TestLimitStiffness:
    def test_equals_block_22(self, sine8, A_offdiag_const):
        K = assemble_limit_stiffness(sine8, A_offdiag_const)
        K22 = assemble_block_stiffness(sine8, A_offdiag_const, "22")
        assert abs(K - K22).max() == 0.0

    def test_sine_diagonal_eigenvalues(self, sine8, A_identity):
        K = assemble_limit_stiffness(sine8, A_identity).toarray()
        _, k = mode_indices(8)
        assert np.max(np.abs(K - np.diag(k.astype(float) ** 2))) < 5e-12

    @pytest.mark.parametrize("a22", [None, "poly"])
    def test_kronecker_identity_q1(self, dom, a22):
        space = build_space(dom, "q1", 4, "q1", 4)
        if a22 is None:
            A = CoefficientField.identity()
            coef_1d = lambda x: np.ones_like(x)
        else:
            fld = ScalarField(lambda x1, x2: 1.0 + x2 ** 2 / 10.0, {"x2"})
            A = CoefficientField(1.0, 0.0, 0.0, fld, lam=1.0)
            coef_1d = lambda x: 1.0 + x ** 2 / 10.0
        K = assemble_limit_stiffness(space, A)
        M1 = mass_1d(space.basis1)
        K2 = stiffness_1d(space.basis2, coef_1d)
        assert abs(K - sp.kron(M1, K2)).max() < 1e-12


class TestLoadAndNorms:
    def test_single_mode_load_hits_one_entry(self, sine8, f_mode11):
        F = assemble_load(sine8, f_mode11)
        expected = np.zeros(64)
        expected[0] = 1.0
        assert np.max(np.abs(F - expected)) < 1e-13

    def test_zero_source(self, sine8):
        assert np.all(assemble_load(sine8, 0.0) == 0.0)

    def test_normalized_mode_has_unit_mass_norm(self, sine8):
        M = assemble_mass(sine8)
        v = np.zeros(64)
        v[0] = 1.0
        assert v @ (M @ v) == pytest.approx(1.0, abs=1e-13)

    def test_nonfinite_source_rejected(self, sine8):
        with pytest.raises(ValueError, match="finite"):
            with np.errstate(divide="ignore", invalid="ignore"):
                assemble_load(sine8, lambda x1, x2: x1 / (x2 - x2))

    def test_projection_recovers_in_space_function(self, sine8):
        c = project(sine8, lambda x1, x2: NORM * np.sin(2 * x1) * np.sin(3 * x2))
        expected = np.zeros(64)
        expected[sine8.flat_index(1, 2)] = 1.0
        assert np.max(np.abs(c - expected)) < 1e-12


class TestProjection:
    # project applies the mass inverse from the 1D eigenbases: no CSR is
    # built and no sparse system solved
    @pytest.mark.parametrize("kinds", [("sine", "sine"), ("q1", "q1"),
                                       ("sine", "q1")])
    @pytest.mark.parametrize("fn", [
        lambda x1, x2: x1 * (PI - x1) * np.exp(x2),
        parse_expression("sin(x1) * x2 * (pi - x2) + cos(x1)"),
    ])
    def test_equals_the_mass_solve(self, monkeypatch, dom, kinds, fn):
        from anisolab.assembly import KronOperator
        space = build_space(dom, kinds[0], 8, kinds[1], 8)
        want = scipy.sparse.linalg.spsolve(assemble_mass(space).tocsc(),
                                           assemble_load(space, fn))

        def refuse(*args, **kwargs):
            raise AssertionError("project built a CSR matrix or solved one")
        monkeypatch.setattr(KronOperator, "tocsr", refuse)
        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", refuse)
        got = project(space, fn)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestStructure:
    def test_symmetry_of_scaled_stiffness(self, sine8, A_offdiag_variable):
        K = assemble_system(sine8, A_offdiag_variable).stiffness(0.5)
        assert abs(K - K.T).max() < 1e-12 * abs(K).max()

    def test_transpose_relation_of_off_blocks(self, q1_8, A_offdiag_variable):
        K12 = assemble_block_stiffness(q1_8, A_offdiag_variable, "12")
        K21 = assemble_block_stiffness(q1_8, A_offdiag_variable, "21")
        assert abs(K12 - K21.T).max() < 1e-12 * abs(K12).max()

    def test_positive_definite_after_reduction(self, q1_8, A_offdiag_const):
        K = assemble_system(q1_8, A_offdiag_const).stiffness(0.25).toarray()
        w = scipy.linalg.eigvalsh(K)
        assert w.min() > 0

    def test_discrete_ellipticity(self, sine8, A_offdiag_const):
        system = assemble_system(sine8, A_offdiag_const)
        rng = np.random.default_rng(5)
        lam = A_offdiag_const.lam
        for eps in (1.0, 0.25, 0.0625):
            K = system.stiffness(eps)
            for _ in range(8):
                v = rng.normal(size=sine8.dim)
                lhs = v @ (K @ v)
                rhs = lam * (eps ** 2 * (v @ (system.G1 @ v))
                             + v @ (system.G2 @ v))
                assert lhs >= rhs - 1e-10 * abs(lhs)

    def test_discrete_poincare_on_sine(self, sine16, dom):
        M, _, G2 = (assemble_mass(sine16), *seminorm_matrices(sine16))
        w = scipy.linalg.eigvalsh(G2.toarray(), M.toarray())
        assert w.min() >= 1.0 / dom.poincare_omega2 ** 2 - 1e-10


class TestQuadratureRefinement:
    @pytest.mark.parametrize("kind,m", [("sine", 8), ("q1", 8)])
    def test_doubling_order_is_stable(self, dom, kind, m, A_offdiag_variable):
        s4 = build_space(dom, kind, m, kind, m, quad_order=4)
        s8 = build_space(dom, kind, m, kind, m, quad_order=8)
        for block in ("11", "12", "22"):
            K4 = assemble_block_stiffness(s4, A_offdiag_variable, block)
            K8 = assemble_block_stiffness(s8, A_offdiag_variable, block)
            assert abs(K4 - K8).max() < 1e-10


class TestIndependentOracle:
    def test_variable_coefficient_entry_against_adaptive_quadrature(self, dom):
        # one trig-coefficient coupling entry, cross-checked with an adaptive
        # integrator that shares nothing with the assembly path
        space = build_space(dom, "sine", 3, "sine", 3)
        g = ScalarField(lambda x1, x2: 0.2 * np.sin(x1) * np.sin(x2),
                        {"x1", "x2"},
                        dx1=as_field(lambda x1, x2: 0.2 * np.cos(x1) * np.sin(x2)),
                        dx2=as_field(lambda x1, x2: 0.2 * np.sin(x1) * np.cos(x2)))
        A = CoefficientField(1.0, g, g, 1.0, lam=0.8,
                             offdiag_mixed_deriv_in_l2=True)
        K12 = assemble_block_stiffness(space, A, "12").toarray()
        row = space.flat_index(1, 0)  # test phi_{2,1}
        col = space.flat_index(0, 1)  # trial phi_{1,2}
        scale = 2.0 / PI

        def integrand(x2, x1):
            trial_d2 = scale * np.sin(x1) * 2 * np.cos(2 * x2)
            test_d1 = scale * 2 * np.cos(2 * x1) * np.sin(x2)
            return 0.2 * np.sin(x1) * np.sin(x2) * trial_d2 * test_d1

        ref, err = scipy.integrate.dblquad(integrand, 0, PI, 0, PI,
                                           epsabs=1e-12, epsrel=1e-12)
        assert K12[row, col] == pytest.approx(ref, abs=1e-9)

    def test_q1_coupling_entry_against_adaptive_quadrature(self, q1_8):
        # a coefficient that is not a product of one-variable factors, on the
        # one cell [3h, 4h]^2 where the test and trial hats both live
        g = ScalarField(lambda x1, x2: 0.2 * np.sin(x1 * x2 / 2), {"x1", "x2"})
        A = CoefficientField(1.0, g, g, 1.0, lam=0.8)
        K12 = assemble_block_stiffness(q1_8, A, "12").toarray()
        h = PI / 8
        row = q1_8.flat_index(3, 2)  # test: hat at 4h in x1, at 3h in x2
        col = q1_8.flat_index(2, 3)  # trial: hat at 3h in x1, at 4h in x2

        def integrand(x2, x1):
            test_d1 = (1.0 / h) * (4 * h - x2) / h
            trial_d2 = (4 * h - x1) / h * (1.0 / h)
            return 0.2 * np.sin(x1 * x2 / 2) * test_d1 * trial_d2

        ref, err = scipy.integrate.dblquad(integrand, 3 * h, 4 * h, 3 * h, 4 * h,
                                           epsabs=1e-13, epsrel=1e-13)
        assert K12[row, col] == pytest.approx(ref, rel=1e-10, abs=1e-12)

