import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisolab.spaces import (Q1Basis, SineBasis, TensorDomain, build_space,
                             embedding_matrix, eval_basis, gauss_rule)

PI = math.pi


class TestTensorDomain:
    def test_poincare_constants_are_best_interval_constants(self):
        d = TensorDomain((0, PI), (0, PI))
        assert d.poincare_omega1 == pytest.approx(1.0)
        assert d.poincare_omega2 == pytest.approx(1.0)
        assert d.poincare_domain == pytest.approx(1.0 / math.sqrt(2.0))
        d2 = TensorDomain((0, 2.0), (1.0, 1.5))
        assert d2.poincare_omega1 == pytest.approx(2.0 / PI)
        assert d2.poincare_omega2 == pytest.approx(0.5 / PI)

    @pytest.mark.parametrize("bad", [((1, 1), (0, 1)), ((0, 1), (2, 1))])
    def test_degenerate_interval_rejected(self, bad):
        with pytest.raises(ValueError):
            TensorDomain(*bad)


class TestBuildSpace:
    def test_sine_dimension(self, dom):
        assert build_space(dom, "sine", 4, "sine", 4).dim == 16

    def test_q1_dimension(self, dom):
        assert build_space(dom, "q1", 8, "q1", 8).dim == 49

    def test_dof_ordering_is_second_direction_fastest(self, dom):
        s = build_space(dom, "sine", 3, "sine", 5)
        assert s.flat_index(2, 1) == 2 * 5 + 1
        assert s.unflatten(11) == (2, 1)

    @pytest.mark.parametrize("m1,m2", [(0, 4), (4, 0), (-1, 2)])
    def test_nonpositive_sizes_rejected(self, dom, m1, m2):
        with pytest.raises(ValueError):
            build_space(dom, "sine", m1, "sine", m2)

    def test_unknown_kind_rejected(self, dom):
        with pytest.raises(ValueError, match="kind"):
            build_space(dom, "fourier", 4, "sine", 4)


class TestNesting:
    def test_sine_nesting_projection_residual(self, dom):
        coarse = build_space(dom, "sine", 2, "sine", 2)
        fine = build_space(dom, "sine", 4, "sine", 4)
        E = embedding_matrix(coarse, fine)
        rng = np.random.default_rng(7)
        c = rng.normal(size=coarse.dim)
        x = rng.uniform(0, PI, size=9)
        y = rng.uniform(0, PI, size=9)
        diff = coarse.evaluate(c, x, y) - fine.evaluate(E @ c, x, y)
        assert np.max(np.abs(diff)) < 1e-12

    def test_q1_nesting_reproduces_coarse_functions(self, dom):
        coarse = build_space(dom, "q1", 4, "q1", 4)
        fine = build_space(dom, "q1", 8, "q1", 8)
        E = embedding_matrix(coarse, fine)
        rng = np.random.default_rng(8)
        c = rng.normal(size=coarse.dim)
        x = rng.uniform(0, PI, size=23)
        y = rng.uniform(0, PI, size=23)
        diff = coarse.evaluate(c, x, y) - fine.evaluate(E @ c, x, y)
        assert np.max(np.abs(diff)) < 1e-12

    def test_incompatible_nesting_rejected(self, dom):
        a = build_space(dom, "q1", 4, "q1", 4)
        b = build_space(dom, "q1", 6, "q1", 6)  # 6 not a multiple of 4
        with pytest.raises(ValueError):
            embedding_matrix(a, b)


class TestEvalBasis:
    def test_sine_mode_11_extremum(self, sine8):
        # peak of the first tensor mode; the L2-normalized amplitude is 2/pi
        value, d1, d2 = eval_basis(sine8, sine8.flat_index(0, 0), (PI / 2, PI / 2))
        assert value == pytest.approx(2.0 / PI, abs=1e-14)
        assert d1 == pytest.approx(0.0, abs=1e-14)
        assert d2 == pytest.approx(0.0, abs=1e-14)

    def test_zero_trace_at_corner(self, sine8, q1_8):
        for space in (sine8, q1_8):
            for flat in range(0, space.dim, 7):
                value, _, _ = eval_basis(space, flat, (0.0, 0.0))
                assert value == pytest.approx(0.0, abs=1e-14)

    def test_q1_hat_nodal_property(self, q1_8):
        nodes1 = q1_8.basis1.nodes()
        nodes2 = q1_8.basis2.nodes()
        flat = q1_8.flat_index(2, 3)
        v, _, _ = eval_basis(q1_8, flat, (nodes1[2], nodes2[3]))
        assert v == pytest.approx(1.0, abs=1e-14)
        v, _, _ = eval_basis(q1_8, q1_8.flat_index(1, 3), (nodes1[2], nodes2[3]))
        assert v == pytest.approx(0.0, abs=1e-14)

    def test_out_of_range_index(self, sine8):
        with pytest.raises(IndexError):
            eval_basis(sine8, sine8.dim, (1.0, 1.0))

    def test_point_outside_domain(self, sine8):
        with pytest.raises(ValueError, match="outside"):
            eval_basis(sine8, 0, (-0.1, 1.0))


class TestPartitionOfUnity:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.2, max_value=0.8))
    def test_q1_hats_sum_to_one_away_from_boundary(self, frac):
        basis = Q1Basis((0.0, PI), 8)
        # stay inside interior elements, away from the first and last cells
        x = basis.interval[0] + basis.h + frac * (basis.length - 2 * basis.h)
        V, _ = basis.eval_table([x])
        assert V.sum() == pytest.approx(1.0, abs=1e-13)


class TestQuadrature:
    def test_gauss_rule_polynomial_exactness(self):
        pts, wts = gauss_rule(4)
        # degree 7 on [0, 1]
        assert wts @ pts ** 7 == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_gauss_rule_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gauss_rule(0)

    @pytest.mark.parametrize("order", [1, 4, 16])
    def test_gauss_rule_is_computed_once_and_read_only(self, order):
        pts, wts = gauss_rule(order)
        again = gauss_rule(order)
        assert again[0] is pts and again[1] is wts
        for a in (pts, wts):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        x, w = np.polynomial.legendre.leggauss(order)
        assert np.array_equal(pts, 0.5 * (x + 1.0))
        assert np.array_equal(wts, 0.5 * w)
        with pytest.raises(ValueError):
            gauss_rule(0)

    def test_sine_rule_integrates_mode_products_exactly(self):
        basis = SineBasis((0.0, PI), 16)
        pts, wts = basis.quad_points(4)
        V, _ = basis.eval_table(pts)
        gram = V.T @ (wts[:, None] * V)
        assert np.max(np.abs(gram - np.eye(16))) < 1e-13

    @pytest.mark.parametrize("order", [3, 4, 8])
    @pytest.mark.parametrize("m", [1, 2, 16, 48])
    def test_sine_1d_matrices_match_closed_forms(self, m, order):
        a, b = -0.5, 1.3
        L = b - a
        basis = SineBasis((a, b), m)
        pts, wts = basis.quad_points(order)
        V, D = basis.eval_table(pts)
        k = np.arange(1, m + 1)
        J, K = np.meshgrid(k, k, indexing="ij")
        odd = (J + K) % 2 == 1
        # int phi_j phi_k' = 4 j k / (L (j^2 - k^2)) when j + k is odd
        mixed = np.where(odd, 4.0 * J * K / (L * np.where(odd, J * J - K * K, 1)), 0.0)
        cases = ((V.T @ (wts[:, None] * V), np.eye(m)),
                 (D.T @ (wts[:, None] * D), np.diag((k * PI / L) ** 2)),
                 (V.T @ (wts[:, None] * D), mixed))
        for got, exact in cases:
            scale = max(1.0, np.max(np.abs(exact)))
            assert np.max(np.abs(got - exact)) / scale < 1e-13

    @pytest.mark.parametrize("order", [1, 2])
    def test_sine_rule_rejects_orders_that_miss_mode_products(self, order):
        with pytest.raises(ValueError, match="sine quadrature order"):
            SineBasis((0.0, PI), 4).quad_points(order)

    @pytest.mark.parametrize("m", [1, 2, 8, 32, 64])
    def test_sine_rule_integrates_trig_up_to_twice_the_product_band(self, m):
        a, b = -0.5, 1.3
        L = b - a
        pts, wts = SineBasis((a, b), m).quad_points(4)
        for F in range(4 * m + 3):
            omega = F * PI / L
            phase = omega * (pts - a)
            exact_sin = L * (1.0 - math.cos(F * PI)) / (F * PI) if F else 0.0
            exact_cos = L if F == 0 else 0.0
            assert abs(wts @ np.sin(phase) - exact_sin) < 1e-13
            assert abs(wts @ np.cos(phase) - exact_cos) < 1e-13

    def test_q1_rule_covers_interval(self):
        basis = Q1Basis((0.0, 2.0), 5)
        pts, wts = basis.quad_points(4)
        assert wts.sum() == pytest.approx(2.0, abs=1e-14)
        assert pts.min() > 0 and pts.max() < 2.0


class TestFamilyRules:
    # each rule is stated once on BasisFamily1D and read by both families
    @pytest.mark.parametrize("cls,least_m,least_order,unit", [
        (Q1Basis, 2, 1, "subintervals"), (SineBasis, 1, 3, "mode")])
    def test_least_size_and_order(self, cls, least_m, least_order, unit):
        assert (cls.least_m, cls.least_order, cls.unit) == (least_m, least_order, unit)
        # the least size holds one function, and each unit adds one
        assert [cls((0.0, 1.0), least_m + k).dim for k in range(3)] == [1, 2, 3]
        with pytest.raises(ValueError, match=f"^{cls.kind} family needs at "
                                             f"least {least_m} {unit}$"):
            cls((0.0, 1.0), least_m - 1)
        with pytest.raises(ValueError, match="^degenerate interval$"):
            cls((1.0, 1.0), 4)
        with pytest.raises(ValueError, match="quadrature order must be >= "
                                             f"{least_order}"):
            cls((0.0, 1.0), 4).quad_points(least_order - 1)
        pts, _ = cls((0.0, 1.0), 4).quad_points(least_order)
        assert pts.size > 0

    @pytest.mark.parametrize("cls", [Q1Basis, SineBasis])
    def test_refined_is_nested_and_keeps_kind_and_interval(self, cls):
        coarse = cls((-0.5, 1.3), 4)
        fine = coarse.refined(3)
        assert (type(fine), fine.interval, fine.m) == (cls, coarse.interval, 12)
        assert repr(fine) == f"{cls.__name__}((-0.5, 1.3), m=12)"
        assert coarse.is_nested_in(fine) and not fine.is_nested_in(coarse)
        assert coarse.embedding_into(fine).shape == (fine.dim, coarse.dim)
        with pytest.raises(ValueError, match="is not nested in"):
            fine.embedding_into(coarse)

    def test_nesting_needs_the_same_kind_interval_and_a_nested_size(self):
        q1, sine = Q1Basis((0.0, 1.0), 4), SineBasis((0.0, 1.0), 4)
        assert not q1.is_nested_in(sine) and not sine.is_nested_in(q1)
        assert not q1.is_nested_in(Q1Basis((0.0, 2.0), 8))
        assert not q1.is_nested_in(Q1Basis((0.0, 1.0), 6))
        assert sine.is_nested_in(SineBasis((0.0, 1.0), 5))

    def test_refined_space_refines_both_directions(self, dom):
        space = build_space(dom, "q1", 4, "sine", 3, quad_order=5)
        fine = space.refine(2)
        assert (fine.basis1.m, fine.basis2.m) == (8, 6)
        assert (fine.basis1.kind, fine.basis2.kind) == ("q1", "sine")
        assert fine.quadrature is space.quadrature

    @pytest.mark.parametrize("side", [(0.0, 1e-200), (-1e200, 1e200),
                                      (-1e308, 1e308)])
    def test_side_out_of_range_rejected(self, side):
        with pytest.raises(ValueError, match="is out of range"):
            TensorDomain(side, (0.0, 1.0))
