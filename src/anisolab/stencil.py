"""Storage of Q1 operators: a tridiagonal 1D factor as its three diagonals,
and an operator on a Q1 x Q1 space of two or more parts as one 9-point
stencil.

On the uniform mesh of a Q1 direction every 1D factor couples a hat only
to its two neighbours, so :class:`Tridiagonal` keeps the ``(3, n)`` array
of its diagonals, and applies it to the columns (``@``) or the rows
(``apply_to_rows``) of a matrix; an operator of one Kronecker term is
applied through its two factors, ``6 n`` doubles.  On the ``(n1, n2)``
node grid of a Q1 x Q1 space every form couples a node only to the nine
nodes around it, so :class:`Stencil` keeps the ``(3, 3, n1, n2)`` array of
those couplings and applies it by nine shifted multiply-adds on the flat
vector, with no sparse matrix; the CSR and dense views are built on demand,
and the symmetry test reads the weights.  :func:`_element_stencil`
contracts the grid form of a coefficient that does not split straight into
a stencil, element block by element block, since each quadrature point
touches two hats per direction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .linsolve import SYMMETRY_TOL, _max_abs, sparse
from .spaces import GalerkinSpace

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["Tridiagonal", "Stencil"]


class Tridiagonal:
    """A tridiagonal 1D factor of a Q1 direction, kept as its three
    diagonals: ``bands[a, i]`` is the entry ``(i, i + a - 1)``, and 0 where
    that column does not exist (``bands[0, 0]`` and ``bands[2, -1]``)."""

    def __init__(self, B: np.ndarray):
        """The three diagonals of the dense ``n x n`` matrix ``B``."""
        n = B.shape[0]
        self.shape = (n, n)
        self.bands = np.zeros((3, n))
        self.bands[0, 1:] = np.diagonal(B, -1)
        self.bands[1] = np.diagonal(B)
        self.bands[2, :-1] = np.diagonal(B, 1)

    def diagonal(self) -> np.ndarray:
        return self.bands[1].copy()

    def toarray(self) -> np.ndarray:
        n = self.shape[0]
        out = np.diag(self.bands[1])
        out[np.arange(1, n), np.arange(n - 1)] = self.bands[0, 1:]
        out[np.arange(n - 1), np.arange(1, n)] = self.bands[2, :-1]
        return out

    def __matmul__(self, X):
        """``B @ X`` for a vector or a matrix ``X`` of ``n`` rows."""
        lower, diag, upper = self.bands.reshape(self.bands.shape + (1,) * (X.ndim - 1))
        out = diag * X
        out[1:] += lower[1:] * X[:-1]
        out[:-1] += upper[:-1] * X[1:]
        return out

    def apply_to_rows(self, Y: np.ndarray) -> np.ndarray:
        """``Y @ B^T``, ``B`` applied to each row of a matrix ``Y`` of ``n``
        columns, with no transposed copy."""
        lower, diag, upper = self.bands
        out = Y * diag
        out[:, 1:] += Y[:, :-1] * lower[1:]
        out[:, :-1] += Y[:, 1:] * upper[:-1]
        return out


class Stencil:
    """A 9-point operator on the ``(n1, n2)`` node grid of a Q1 x Q1 space,
    on the flat index ``i * n2 + j``: ``weights[a, b, i, j]`` couples node
    ``(i, j)`` to node ``(i + a - 1, j + b - 1)``, and is 0 where that node
    does not exist.  ``@`` is nine shifted multiply-adds on the flat
    vector; ``tocsr`` and ``toarray`` hold the couplings to every existing
    node, ``(3 n1 - 2)(3 n2 - 2)`` entries."""

    def __init__(self, weights: np.ndarray):
        self.weights = weights
        _, _, self.n1, self.n2 = weights.shape
        self.shape = (self.n1 * self.n2,) * 2

    def __add__(self, other: "Stencil") -> "Stencil":
        return Stencil(self.weights + other.weights)

    def _shift(self, k: int) -> int:
        """Flat offset of the neighbour ``(a, b) = divmod(k, 3)``."""
        a, b = divmod(k, 3)
        return (a - 1) * self.n2 + b - 1

    def __matmul__(self, x):
        n, pad = self.shape[0], self.n2 + 1
        W = self.weights.reshape(9, n)
        # padded by n2 + 1 zeros at each end, the vector holds the neighbour
        # of flat index p at p + shift + n2 + 1; a neighbour read across the
        # end of a row has weight 0
        padded = np.zeros(n + 2 * pad)
        padded[pad:pad + n] = np.asarray(x, dtype=float).reshape(n)
        out = W[4] * padded[pad:pad + n]
        product = np.empty(n)
        for k in (0, 1, 2, 3, 5, 6, 7, 8):
            start = self._shift(k) + pad
            np.multiply(W[k], padded[start:start + n], out=product)
            out += product
        return out

    def diagonal(self) -> np.ndarray:
        return self.weights[1, 1].ravel().copy()

    def is_symmetric(self, scale: float = 0.0) -> bool:
        """``max|K - K^T| <= SYMMETRY_TOL max(max|K|, scale)``, the relative
        test of ``_is_symmetric``, on the weights: ``K^T`` couples node
        ``p`` to node ``p + s`` by the weight of ``p + s`` to ``p``, the
        neighbour ``8 - k`` of the opposite offset."""
        n = self.shape[0]
        W = self.weights.reshape(9, n)
        shifts = [(k, self._shift(k)) for k in (5, 6, 7, 8)]
        gap = max((_max_abs(W[k, :n - s] - W[8 - k, s:]) for k, s in shifts if s < n),
                  default=0.0)
        return gap <= SYMMETRY_TOL * max(_max_abs(W), scale, 1e-300)

    def _entries(self):
        """``(rows, cols, values)`` of the couplings to every existing node,
        row by row and by column within a row."""
        n1, n2 = self.n1, self.n2
        i = np.arange(n1)[:, None] + np.arange(-1, 2)  # (n1, 3) neighbour rows
        j = np.arange(n2)[:, None] + np.arange(-1, 2)
        # axes (i, j, a, b)
        present = (((i >= 0) & (i < n1))[:, None, :, None]
                   & ((j >= 0) & (j < n2))[None, :, None, :])
        cols = i[:, None, :, None] * n2 + j[None, :, None, :]
        rows = np.broadcast_to(np.arange(n1 * n2).reshape(n1, n2, 1, 1), cols.shape)
        return rows[present], cols[present], self.weights.transpose(2, 3, 0, 1)[present]

    def tocsr(self) -> sp.csr_matrix:
        rows, cols, values = self._entries()
        return sparse().csr_matrix((values, (rows, cols)), shape=self.shape)

    def toarray(self) -> np.ndarray:
        rows, cols, values = self._entries()
        out = np.zeros(self.shape)
        out[rows, cols] = values
        return out


def _element_table(space: GalerkinSpace, direction: int, test_sel: int,
                   trial_sel: int) -> np.ndarray:
    """``C[e, p, h, k] = S[p, e - 1 + h] T[p, e - 1 + k]`` of a Q1
    direction at the ``p``-th quadrature point of element ``e``: the
    products of its test and trial hats, ``h, k = 0`` for the hat of its
    left node and 1 for its right node, and 0 for a boundary node, which
    carries no hat."""
    family = space.basis1 if direction == 1 else space.basis2
    _, _, V, D = space.rule(direction)
    m, n = family.m, family.dim
    e = np.arange(m)
    hats = e[:, None] + np.arange(-1, 1)  # (m, 2) the hats of each element
    ok = ((hats >= 0) & (hats < n))[:, None, :]

    def local(table):
        table = table.reshape(m, -1, n)
        points = np.arange(table.shape[1])[None, :, None]
        return np.where(ok, table[e[:, None, None], points,
                                  np.clip(hats, 0, n - 1)[:, None, :]], 0.0)
    S, T = (local(D if sel == direction else V) for sel in (test_sel, trial_sel))
    return S[..., :, None] * T[..., None, :]


def _element_stencil(space: GalerkinSpace, Wc, test_sel: int,
                     trial_sel: int) -> Stencil:
    """The grid contraction ``C1^T Wc C2`` of a Q1 x Q1 space by element
    blocks of the quadrature grid, each point touching two hats per
    direction: every pair of elements ``(e1, e2)`` gives the couplings of
    its four test hats to its four trial hats, summed into the stencil."""
    C1 = _element_table(space, 1, test_sel, trial_sel)
    C2 = _element_table(space, 2, test_sel, trial_sel)
    (m1, g1), (m2, g2) = C1.shape[:2], C2.shape[:2]
    # Y[(e1, h1, k1), e2, q] = sum_p C1[e1, p, h1, k1] Wc[(e1, p), (e2, q)]
    Y = np.matmul(C1.reshape(m1, g1, 4).transpose(0, 2, 1),
                  Wc.reshape(m1, g1, m2 * g2)).reshape(m1 * 4, m2, g2)
    # E[e2, e1, h1, k1, h2, k2] = sum_q Y[(e1, h1, k1), e2, q] C2[e2, q, h2, k2]
    E = np.matmul(Y.transpose(1, 0, 2), C2.reshape(m2, g2, 4))
    E = E.reshape(m2, m1, 2, 2, 2, 2)
    # the hat h of element e is node e - 1 + h, at e + h of the node axis
    # padded by one node at each end
    weights = np.zeros((3, 3, m1 + 1, m2 + 1))
    for h1, k1, h2, k2 in np.ndindex(2, 2, 2, 2):
        weights[k1 - h1 + 1, k2 - h2 + 1, h1:h1 + m1, h2:h2 + m2] += \
            E[:, :, h1, k1, h2, k2].T
    return Stencil(np.ascontiguousarray(weights[:, :, 1:-1, 1:-1]))
