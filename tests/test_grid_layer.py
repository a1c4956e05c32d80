"""The quadrature grid of a Galerkin space and the one discrete norm.

``GalerkinSpace`` is the only reader of its rules and basis tables; its grid
values, integral and load must equal the explicit ``V``/``D``/``w`` formulas
bit for bit, so that every caller moved onto them keeps its reports
byte-identical.  ``energy_norm`` takes every ``sqrt(v^T G v)``, and the CSR
mass and seminorm matrices are views of the cached ``norm_matrices``.
"""

import math

import numpy as np
import pytest

from anisolab.assembly import (assemble_load, assemble_mass, bilinear_form,
                               energy_norm, norm_matrices, seminorm_matrices)
from anisolab.coefficients import (ReactionSpec, as_field, grid_values,
                                   integrate_on_domain)
from anisolab.elliptic import reaction_load
from anisolab.expressions import parse_expression
from anisolab.spaces import _composite_gauss, build_space

PI = math.pi


@pytest.fixture(scope="module")
def q1_sine(dom):
    return build_space(dom, "q1", 8, "sine", 6)


@pytest.fixture(params=["sine8", "q1_8", "q1_sine"])
def space(request):
    return request.getfixturevalue(request.param)


def explicit_tables(space, direction):
    """Rule and tables straight from the basis family."""
    family = space.basis1 if direction == 1 else space.basis2
    pts, wts = family.quad_points(space.quadrature.order)
    V, D = family.eval_table(pts)
    return pts, wts, V, D


def coefficients(space, seed=3):
    return np.random.default_rng(seed).normal(size=space.dim)


def smooth(x1, x2):
    return np.exp(x1) * np.sin(x2) + x1 * x2


class TestRule:
    @pytest.mark.parametrize("direction", [1, 2])
    def test_rule_is_the_family_rule_and_tables(self, space, direction):
        got = space.rule(direction)
        want = explicit_tables(space, direction)
        assert len(got) == 4
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_rule_is_built_once(self, space):
        for direction in (1, 2):
            first, second = space.rule(direction), space.rule(direction)
            assert all(a is b for a, b in zip(first, second))

    def test_grid_axes_are_the_rule_points(self, space):
        x1, x2 = space.grid_axes
        assert np.array_equal(x1, explicit_tables(space, 1)[0])
        assert np.array_equal(x2, explicit_tables(space, 2)[0])


class TestGridValues:
    @pytest.mark.parametrize("selector", [0, 1, 2])
    def test_on_grid_is_the_table_product(self, space, selector):
        _, _, V1, D1 = explicit_tables(space, 1)
        _, _, V2, D2 = explicit_tables(space, 2)
        c = coefficients(space)
        U = c.reshape(space.basis1.dim, space.basis2.dim)
        left = D1 if selector == 1 else V1
        right = D2 if selector == 2 else V2
        got = space.on_grid(c, selector)
        assert got.shape == (V1.shape[0], V2.shape[0])
        assert np.array_equal(got, left @ U @ right.T)

    def test_on_grid_takes_a_list(self, space):
        c = coefficients(space)
        assert np.array_equal(space.on_grid(list(c)), space.on_grid(c))

    def test_integral_is_the_weighted_sum(self, space):
        _, w1, _, _ = explicit_tables(space, 1)
        _, w2, _, _ = explicit_tables(space, 2)
        vals = space.on_grid(coefficients(space), 1) ** 2
        got = space.integrate(vals)
        assert isinstance(got, float)
        assert got == float(w1 @ vals @ w2)

    def test_load_is_the_weighted_projection(self, space):
        _, w1, V1, _ = explicit_tables(space, 1)
        _, w2, V2, _ = explicit_tables(space, 2)
        vals = np.ascontiguousarray(grid_values(smooth, *space.grid_axes))
        want = (V1.T @ ((w1[:, None] * w2[None, :] * vals) @ V2)).ravel()
        assert np.array_equal(space.load(vals), want)
        assert np.array_equal(assemble_load(space, smooth), want)

    def test_reaction_load_is_the_load_of_beta(self, space):
        _, w1, V1, _ = explicit_tables(space, 1)
        _, w2, V2, _ = explicit_tables(space, 2)
        c = coefficients(space)
        U = c.reshape(space.basis1.dim, space.basis2.dim)
        vals = np.arctan(V1 @ U @ V2.T)
        want = (V1.T @ ((w1[:, None] * w2[None, :] * vals) @ V2)).ravel()
        assert np.array_equal(reaction_load(space, ReactionSpec.arctan(), c), want)

    @pytest.mark.parametrize("text,direction", [("1 + x1*x1", 1),
                                                ("2 + sin(x2)", 2)])
    def test_one_variable_factor_uses_the_axis_values(self, space, text,
                                                      direction):
        # the factor of a one-variable coefficient is S^T diag(w c) T with c
        # on its own axis; the other direction keeps the plain mass factor
        expr = parse_expression(text)
        coef = as_field(expr)
        assert coef.deps == {f"x{direction}"}
        pts, w, _, D = explicit_tables(space, direction)
        _, wo, Vo, _ = explicit_tables(space, 3 - direction)
        c = np.asarray(expr(**{f"x{direction}": pts}), dtype=float)
        B = D.T @ ((w * c)[:, None] * D)
        P = Vo.T @ (wo[:, None] * Vo)
        want = np.kron(B, P) if direction == 1 else np.kron(P, B)
        got = bilinear_form(space, coef, direction, direction).toarray()
        assert np.array_equal(got, want)


class TestEnergyNorm:
    @staticmethod
    def round_off_negative():
        """A positive semidefinite ``G = b b^T`` with ``b = (1, 2, 3)``,
        exact in floating point, and a vector ``v`` nearly orthogonal to
        ``b``: exactly ``v^T G v = (b.v)^2 >= 0``, but it computes below 0."""
        b = np.array([1.0, 2.0, 3.0])
        G = np.outer(b, b)
        rng = np.random.default_rng(0)
        for _ in range(10000):
            x, y = rng.uniform(-1.0, 1.0, 2)
            v = np.array([x, y, -(x + 2.0 * y) / 3.0])
            if v @ (G @ v) < 0.0:
                return G, v
        pytest.fail("no vector found whose form rounds below zero")

    def test_reads_zero_on_a_form_negative_by_round_off(self):
        G, v = self.round_off_negative()
        assert v @ (G @ v) < 0.0
        assert energy_norm(G, v) == 0.0

    def test_is_the_square_root_of_the_form(self, space):
        c = coefficients(space)
        for G in norm_matrices(space):
            got = energy_norm(G, c)
            assert isinstance(got, float)
            assert got == float(np.sqrt(c @ (G @ c)))
        assert energy_norm(norm_matrices(space)[0], list(c)) == \
            energy_norm(norm_matrices(space)[0], c)


class TestNormMatrices:
    def test_mass_is_the_plain_form(self, space):
        want = bilinear_form(space, 1.0, 0, 0)
        got = assemble_mass(space)
        assert got.shape == want.shape
        assert np.array_equal(got.toarray(), want.toarray())

    def test_seminorms_are_the_plain_forms(self, space):
        for s, got in zip((1, 2), seminorm_matrices(space)):
            want = bilinear_form(space, 1.0, s, s)
            assert got.shape == want.shape
            assert np.array_equal(got.toarray(), want.toarray())

    def test_views_of_the_cached_norm_matrices(self, space):
        M, G1, G2 = norm_matrices(space)
        assert assemble_mass(space) is M.tocsr()
        assert all(a is b.tocsr() for a, b in
                   zip(seminorm_matrices(space), (G1, G2)))


def test_integrate_on_domain_uses_the_composite_gauss_rule(dom):
    # sqrt(x1) is not smooth at 0, so another rule would round differently
    def rough(x1, x2):
        return np.sqrt(x1) * (1.0 + x2)

    p, w = _composite_gauss(0.0, PI / 64, 64, 4)
    vals = np.ascontiguousarray(grid_values(rough, p, p))
    assert integrate_on_domain(dom, rough) == float(w @ vals @ w)
