"""The grid-contraction kernel of genuinely 2D coefficients: its agreement
with the factored kernel on a separable coefficient, and its storage (dense
on sine x sine, a 9-point stencil on q1 x q1, CSR on a mixed space)."""

import numpy as np
import pytest
import scipy.sparse as sp

from anisolab.assembly import _matrix_1d, assemble_system, bilinear_form
from anisolab.spaces import build_space
from anisolab.stencil import Stencil

SELECTORS = [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1), (0, 1), (2, 0)]


@pytest.fixture(scope="module", params=[("sine", 8, "sine", 8),
                                        ("q1", 8, "q1", 6),
                                        ("q1", 8, "sine", 6)],
                ids=lambda p: f"{p[0]}x{p[2]}")
def space(request, dom):
    return build_space(dom, *request.param)


@pytest.mark.parametrize("test_sel,trial_sel", SELECTORS)
def test_separable_coefficient_matches_the_factored_kernel(space, test_sel,
                                                           trial_sel):
    # a callable is taken to depend on both variables, so this runs the grid
    # contraction; the factors (1 + x1) and (2 + x2) give one factored term
    got = bilinear_form(space, lambda x1, x2: (1 + x1) * (2 + x2),
                        test_sel, trial_sel).toarray()
    factors = []
    for direction, shift in ((1, 1.0), (2, 2.0)):
        t, s = (sel if sel == direction else 0 for sel in (test_sel, trial_sel))
        axis = space.grid_axes[direction - 1]
        factors.append(_matrix_1d(space, direction, t, s, shift + axis))
    want = np.kron(*factors)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_remainder_storage(space, A_offdiag_variable):
    # every basis pair overlaps for sine, neighbours only for q1
    system = assemble_system(space, A_offdiag_variable)
    pairs = [n * n if b.kind == "sine" else 3 * n - 2
             for b, n in ((space.basis1, space.basis1.dim),
                          (space.basis2, space.basis2.dim))]
    kinds = (space.basis1.kind, space.basis2.kind)
    for block in (system.K12, system.K21):
        (_, R), = block.remainders
        assert R.shape == (space.dim, space.dim)
        if kinds == ("sine", "sine"):
            assert isinstance(R, np.ndarray)
        elif kinds == ("q1", "q1"):
            # a 9-point stencil, materialised with an entry for every
            # neighbour that exists
            assert isinstance(R, Stencil)
            assert R.weights.shape == (3, 3, space.basis1.dim, space.basis2.dim)
            assert R.tocsr().nnz == pairs[0] * pairs[1]
        else:
            assert sp.isspmatrix_csr(R)
            assert R.nnz == pairs[0] * pairs[1]


def test_q1_remainder_has_the_neighbour_pattern(dom, A_offdiag_variable):
    space = build_space(dom, "q1", 8, "q1", 6)
    n1, n2 = space.basis1.dim, space.basis2.dim
    (_, R), = assemble_system(space, A_offdiag_variable).K12.remainders
    assert isinstance(R, Stencil)
    csr = R.tocsr()
    assert csr.nnz == (3 * n1 - 2) * (3 * n2 - 2)
    rows, cols = csr.nonzero()
    (i, j), (k, l) = divmod(rows, n2), divmod(cols, n2)
    assert np.abs(i - k).max() <= 1 and np.abs(j - l).max() <= 1
    # a neighbour past an edge of the grid has weight 0
    W = R.weights
    for edge in (W[0, :, 0], W[2, :, -1], W[:, 0, :, 0], W[:, 2, :, -1]):
        assert not np.any(edge)
