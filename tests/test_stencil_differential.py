"""The q1 x q1 operators, kept as one 9-point stencil, against the matrix
materialised from the basis tables alone.

Every view of ``AssembledProblem.operator`` (``@``, ``diagonal``,
``toarray``, ``tocsr``) and its ``symmetric`` verdict must agree with the
Galerkin matrix summed point by point over the quadrature grid, to 1e-14
relative, on spaces with ``m1 != m2`` (so that a swapped axis shows) and for
separable, genuinely 2D and nonsymmetric coefficients.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from anisolab.assembly import assemble_system
from anisolab.coefficients import CoefficientField, ScalarField, as_field, grid_values
from anisolab.expressions import parse_expression
from anisolab.linsolve import _is_symmetric
from anisolab.spaces import TensorDomain, build_space

DOMAIN = TensorDomain((0.0, math.pi), (0.0, math.pi))
TOL = 1e-14


def _expr(source):
    return as_field(parse_expression(source))


def _field(fn):
    """A coefficient of both variables that the assembly cannot split."""
    return ScalarField(fn, {"x1", "x2"})


def _coefficients(kind, c):
    if kind == "separable":
        # one factored term per block, no remainder
        return CoefficientField(_expr(f"1 + {c}*x1"), _expr(f"{c}*sin(x1)*sin(x2)"),
                                _expr(f"{c}*sin(x1)*sin(x2)"),
                                _expr(f"1 + x2*x2/{1 + c}"), lam=0.1)
    if kind == "2d":
        # a remainder in every block
        return CoefficientField(
            _field(lambda x1, x2: 1 + c * np.sin(x1 * x2)),
            _field(lambda x1, x2: c * np.cos(x1 - 2 * x2)),
            _field(lambda x1, x2: c * np.cos(x1 - 2 * x2)),
            _field(lambda x1, x2: 1 + x1 * x2 / 10), lam=0.1)
    # a12 != a21: a term and a remainder that no transpose pairs
    return CoefficientField(
        1.0, _expr(f"{c}*sin(x1)*cos(x2)"),
        _field(lambda x1, x2: c * np.sin(x1 + 2 * x2) / 2), 1.0, lam=0.1)


def _block(space, coef, test_sel, trial_sel):
    """``sum_{p,q} w1 w2 c D^t phi_(i,j) D^s phi_(k,l)`` over the quadrature
    grid, from the dense basis tables, on the flat index ``i * n2 + j``."""
    (x1, w1, V1, D1), (x2, w2, V2, D2) = space.rule(1), space.rule(2)
    W = np.outer(w1, w2) * grid_values(coef, x1, x2)
    S1, T1 = (D1 if sel == 1 else V1 for sel in (test_sel, trial_sel))
    S2, T2 = (D2 if sel == 2 else V2 for sel in (test_sel, trial_sel))
    R = np.einsum("pi,qj,pq,pk,ql->ijkl", S1, S2, W, T1, T2)
    return R.reshape(space.dim, space.dim)


def _materialised(space, A, epsilon, mu):
    one = as_field(1.0)
    K = _block(space, A.a22, 2, 2) + mu * _block(space, one, 0, 0)
    if epsilon is not None:
        K += (epsilon ** 2 * _block(space, A.a11, 1, 1)
              + epsilon * (_block(space, A.a12, 1, 2) + _block(space, A.a21, 2, 1)))
    return K


def _assert_close(got, want, scale):
    assert np.max(np.abs(got - want)) <= TOL * scale


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m1=st.integers(2, 9), m2=st.integers(2, 9),
       kind=st.sampled_from(["separable", "2d", "nonsymmetric"]),
       c=st.sampled_from([0.1, 0.25, 0.4]),
       epsilon=st.sampled_from([None, 1.0, 0.3]),
       mu=st.sampled_from([0.0, 2.0]),
       seed=st.integers(0, 2 ** 16))
def test_stencil_views_match_the_materialised_matrix(m1, m2, kind, c, epsilon, mu,
                                                     seed):
    if m1 == m2:
        m2 = m1 + 1
    space = build_space(DOMAIN, "q1", m1, "q1", m2)
    A = _coefficients(kind, c)
    system = assemble_system(space, A)
    op = system.operator(epsilon, mu)
    want = _materialised(space, A, epsilon, mu)
    scale = np.max(np.abs(want))
    x = np.random.default_rng(seed).normal(size=space.dim)

    assert op.stencil is not None
    _assert_close(op @ x, want @ x, np.max(np.abs(want) @ np.abs(x)))
    _assert_close(op.diagonal(), np.diag(want), scale)
    _assert_close(op.toarray(), want, scale)
    _assert_close(op.tocsr().toarray(), want, scale)
    verdict = _is_symmetric(want)
    assert op.stencil.is_symmetric() == verdict
    if min(m1, m2) > 2:
        # with one node in a direction the coupling is 0 up to round-off,
        # and the verdict on it alone may read nonsymmetric
        assert op.symmetric == verdict
        assert verdict == (epsilon is None or kind != "nonsymmetric")
