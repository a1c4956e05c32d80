"""Assembly of all bilinear and linear forms on a tensor space.

Derivative selectors are 0 (value), 1 (d/dx1), 2 (d/dx2); a generic form is

    B[row, col] = integral  c(x) * D^t phi_row * D^s phi_col  dx

with ``t`` the test selector and ``s`` the trial selector.  Every form is a
:class:`KronOperator`: a short list of factored terms ``c B1 (x) B2`` plus
remainders.  Two kernels are used depending on the structure of the
coefficient:

* a separable coefficient, a sum of products ``scale * g(x1) * h(x2)``
  (``ScalarField.products``; a constant or one-variable coefficient is one
  such product), gives one factored term per product, of two 1D matrices
  weighted by ``g`` and ``h``: dense for sine, and for Q1 its three
  diagonals (:class:`Tridiagonal`); the coefficient-free factors are built
  once per space;
* a coefficient that does not split gives a remainder by a contraction over
  the quadrature grid, restricted in each direction to the basis pairs whose
  supports overlap (every pair for sine, neighbours for Q1): dense for
  sine x sine, a 9-point :class:`Stencil` for Q1 x Q1 (contracted by
  element blocks, each quadrature point touching two hats per direction),
  CSR on a mixed space.

On a Q1 x Q1 space an operator of two or more parts folds its terms and
remainders into one cached stencil, the ``(3, 3, n1, n2)`` array of each
node's couplings to its neighbours, and applies it by nine shifted
multiply-adds.  An operator of one term and no remainder (the norm
matrices, and a block or limit operator of one product) keeps its two
tridiagonal factors, ``6 n`` doubles where a stencil holds ``9 n1 n2``, and
is applied and materialised through them; its symmetry verdict is still
taken on the nine weights, folded for the check and dropped.  Either way a
Q1 run that factorises nothing imports no ``scipy.sparse``.

Loads follow the same split: a separable source is a sum of outer products
of 1D loads, any other source is contracted on the quadrature grid.
:func:`project` applies the mass inverse ``Q1 Q1^T (x) Q2 Q2^T`` of the 1D
eigenbases (:func:`pencil_eigenbasis`) to a load.

The data of the space alone (coefficient-free 1D factors, norm matrices,
1D eigenbases and mass inverses) is cached per space by ``_per_space``, in
a weak dictionary keyed by the space: built once, shared by every system
and projection on the space, and freed with it.  A square space (both
directions the same family) builds its 1D eigenbasis and mass inverse once
for both directions, as it does its rule and basis tables.

The public ``bilinear_form`` family and ``AssembledProblem.stiffness``
return the CSR materialisation of these operators, built on demand (from
the stencil of a Q1 x Q1 operator that keeps one); the Galerkin solves
apply them factored.

The quadrature grid belongs to the space: every kernel and load reads its
rules and basis tables through :meth:`GalerkinSpace.rule`, and the loads of
sources that do not split are :meth:`GalerkinSpace.load` of grid values.
Such coefficients and sources are evaluated on the grid along its axes
(``coefficients.grid_values``), and a factor of one variable on its own axis
only (``coefficients._axis_values``), so it is computed once per point of
its axis.  Every discrete norm ``sqrt(v^T G v)`` is :func:`energy_norm`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import TYPE_CHECKING, Optional

import numpy as np

from .coefficients import (CoefficientField, ScalarField, SourceField, _axis_values,
                           as_field, check_epsilon, grid_values)
from .linsolve import (SYMMETRY_TOL, _blocks_symmetric, _is_symmetric, _max_abs,
                       issparse, sparse)
from .spaces import BasisFamily1D, GalerkinSpace, Q1Basis
from .stencil import Stencil, Tridiagonal, _element_stencil

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "bilinear_form",
    "assemble_block_stiffness",
    "assemble_limit_stiffness",
    "assemble_scaled_stiffness",
    "assemble_load",
    "assemble_mass",
    "seminorm_matrices",
    "norm_matrices",
    "energy_norm",
    "mass_1d",
    "stiffness_1d",
    "project",
    "pencil_eigenbasis",
    "fast_diagonal_inverse",
    "KronOperator",
    "AssembledProblem",
    "assemble_system",
]

_BLOCKS = {
    # block -> (coefficient name, test selector, trial selector)
    "11": ("a11", 1, 1),
    "12": ("a12", 1, 2),
    "21": ("a21", 2, 1),
    "22": ("a22", 2, 2),
}


class KronOperator:
    """``sum_k c_k B1_k (x) B2_k + sum_l s_l R_l`` on the flat index
    ``i * n2 + j``, kept factored.

    The 1D factors ``B1_k`` (``n1 x n1``) and ``B2_k`` (``n2 x n2``) are
    dense arrays for sine and :class:`Tridiagonal` for Q1; the remainders
    ``R_l`` are dense (sine x sine), a :class:`Stencil` (Q1 x Q1) or CSR
    (a mixed space).  On a Q1 x Q1 space an operator of two or more parts
    folds into one cached :attr:`stencil`, which ``@`` and ``diagonal``
    read.  Elsewhere, and for one Q1 x Q1 term, ``@`` applies a term to a
    vector ``x`` as ``B1 X B2^T`` with ``X = x.reshape(n1, n2)``: O(m^3)
    work for sine factors instead of the O(m^4) of the materialised
    product, and O(m^2) for tridiagonal ones.  :meth:`is_symmetric` is the
    relative symmetry test, with no whole matrix formed; ``symmetric`` is
    the symmetry verdict that :func:`anisolab.linsolve.solve` routes by
    (None when not known).  Every view of the operator (``@``,
    ``diagonal``, ``tocsr``, ``toarray``, ``row_blocks``) is read off the
    same scaled terms and remainders.
    """

    def __init__(self, n1: int, n2: int, terms=(), remainders=(),
                 symmetric: Optional[bool] = None):
        self.n1, self.n2 = n1, n2
        self.shape = (n1 * n2, n1 * n2)
        self.terms = tuple(terms)
        self.remainders = tuple(remainders)
        self.symmetric = symmetric

    @classmethod
    def combine(cls, parts, symmetric: Optional[bool] = None) -> "KronOperator":
        """``sum s * op`` over ``(s, op)`` pairs of operators on one space:
        one operator of the scaled terms and remainders of all parts; zero
        scales and zero operators are left out."""
        n1, n2 = parts[0][1].n1, parts[0][1].n2
        parts = [(s, op) for s, op in parts if s != 0.0 and not op.is_zero]
        return cls(n1, n2,
                   [(s * c, B1, B2) for s, op in parts for c, B1, B2 in op.terms],
                   [(s * r, R) for s, op in parts for r, R in op.remainders],
                   symmetric)

    @property
    def is_zero(self) -> bool:
        return not self.terms and not self.remainders

    @cached_property
    def stencil(self) -> Optional[Stencil]:
        """The operator as one :class:`Stencil` on a Q1 x Q1 space, folded
        once, on first use (:meth:`fold`), else None.  None also for one
        term and no remainder, which is applied by its two tridiagonal
        factors (``6 n`` doubles, where a stencil takes ``9 n1 n2``); a
        lone remainder of scale 1 is its own stencil."""
        if len(self.terms) == 1 and not self.remainders:
            return None
        if not self.terms and len(self.remainders) == 1:
            s, R = self.remainders[0]
            if s == 1.0 and isinstance(R, Stencil):
                return R
        return self.fold()

    def fold(self) -> Optional[Stencil]:
        """A new :class:`Stencil` of the operator on a Q1 x Q1 space (every
        factor tridiagonal, every remainder a stencil), else None: the terms
        by one matrix product per neighbour ``(a, b)``,
        ``sum_k (c_k bands1_k[a]) (x) bands2_k[b]``, then the scaled
        remainders."""
        factors = [B for term in self.terms for B in term[1:]]
        if (self.is_zero or not all(isinstance(B, Tridiagonal) for B in factors)
                or not all(isinstance(R, Stencil) for _, R in self.remainders)):
            return None
        shape = (3, 3, self.n1, self.n2)
        if self.terms:
            weights = np.empty(shape)
            U = np.stack([c * B1.bands for c, B1, _ in self.terms], axis=-1)
            V = np.stack([B2.bands for *_, B2 in self.terms])
            for a in range(3):
                for b in range(3):
                    np.dot(U[a], V[:, b], out=weights[a, b])
        else:
            weights = np.zeros(shape)
        for s, R in self.remainders:
            weights += s * R.weights
        return Stencil(weights)

    def is_symmetric(self, scale: float = 0.0) -> bool:
        """``max|K - K^T| <= SYMMETRY_TOL max(max|K|, scale)``, the test of
        ``_is_symmetric``, with no whole matrix formed when it can be
        avoided: on the weights of a Q1 x Q1 operator (folded for the
        verdict and dropped when it keeps no :attr:`stencil`), on the CSR
        view when a remainder is CSR (a mixed space), else by
        :meth:`row_blocks`."""
        stencil = self.stencil or self.fold()
        if stencil is not None:
            return stencil.is_symmetric(scale)
        if any(issparse(R) for _, R in self.remainders):
            csr = self.tocsr()
            return _blocks_symmetric([(csr, csr.T)], scale)
        return _blocks_symmetric(self.row_blocks(), scale)

    def __matmul__(self, x):
        if self.stencil is not None:
            return self.stencil @ x
        x = np.asarray(x, dtype=float)
        X = x.reshape(self.n1, self.n2)
        out = np.zeros(self.shape[0])
        grid = out.reshape(self.n1, self.n2)
        for c, B1, B2 in self.terms:
            Y = B1 @ X
            grid += c * (B2.apply_to_rows(Y) if isinstance(B2, Tridiagonal)
                         else (B2 @ Y.T).T)
        for s, R in self.remainders:
            out += s * (R @ x)
        return out

    def diagonal(self) -> np.ndarray:
        if self.stencil is not None:
            return self.stencil.diagonal()
        return self.parts_diagonal()

    def parts_diagonal(self) -> np.ndarray:
        """The diagonal summed from the scaled terms and remainders, with no
        fold."""
        out = np.zeros(self.shape[0])
        for c, B1, B2 in self.terms:
            out += c * np.outer(B1.diagonal(), B2.diagonal()).ravel()
        for s, R in self.remainders:
            out += s * R.diagonal()
        return out

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        if self.stencil is not None:
            return self.stencil.tocsr()
        sp = sparse()
        pieces = ([sp.csr_matrix(c * sp.kron(sp.csr_matrix(_dense(B1)),
                                             sp.csr_matrix(_dense(B2))))
                   for c, B1, B2 in self.terms]
                  + [sp.csr_matrix(s * R) for s, R in self.remainders])
        if not pieces:
            return sp.csr_matrix(self.shape)
        return sum(pieces[1:], pieces[0]).tocsr()

    def tocsr(self) -> sp.csr_matrix:
        """CSR materialisation, built once from the scaled terms and
        remainders (from the stencil on Q1 x Q1) and returned on every call
        (do not modify it)."""
        return self._csr

    def toarray(self) -> np.ndarray:
        if self.stencil is not None:
            return self.stencil.toarray()
        out = np.zeros(self.shape)
        for c, B1, B2 in self.terms:
            out += c * np.kron(_dense(B1), _dense(B2))
        for s, R in self.remainders:
            out += s * _dense(R)
        return out

    def row_blocks(self):
        """``(K[rows], K^T[rows])`` as dense arrays for each block of ``n2``
        rows (one ``i`` of the flat index ``i * n2 + j``): O(n1 n2^2) memory
        per block, where the whole matrix takes (n1 n2)^2.  For an operator
        without a :attr:`stencil`, which has its own symmetry test."""
        terms = [(c, _dense(B1), _dense(B2)) for c, B1, B2 in self.terms]
        for i in range(self.n1):
            rows = slice(i * self.n2, (i + 1) * self.n2)
            block = np.zeros((self.n2, self.shape[1]))
            block_t = np.zeros_like(block)
            for c, B1, B2 in terms:
                block += c * np.kron(B1[i:i + 1], B2)
                block_t += c * np.kron(B1[:, i:i + 1].T, B2.T)
            for s, R in self.remainders:
                block += s * _dense(R[rows])
                block_t += s * _dense(R[:, rows]).T
            yield block, block_t


def _dense(B) -> np.ndarray:
    return B if isinstance(B, np.ndarray) else B.toarray()


def _per_space(fn):
    """Memoise ``fn(space, *args)`` on its space: built once per space,
    shared by every caller (so read-only) and freed with the space.  A value
    must not refer to its space, or the space never dies."""
    memo = weakref.WeakKeyDictionary()  # space -> {args: value}

    @wraps(fn)
    def memoised(space: GalerkinSpace, *args):
        values = memo.setdefault(space, {})
        if args not in values:
            values[args] = fn(space, *args)
        return values[args]
    return memoised


def _pick(selector: int, direction: int, V, D):
    """Pick value or derivative table for one cartesian direction."""
    return D if selector == direction else V


def _matrix_1d(space: GalerkinSpace, direction: int, test_sel: int, trial_sel: int,
               coef_values=None):
    """1D factor matrix S^T diag(w c) T for one direction."""
    _, wts, V, D = space.rule(direction)
    S = _pick(test_sel, direction, V, D)
    T = _pick(trial_sel, direction, V, D)
    w = wts if coef_values is None else wts * coef_values
    return S.T @ (w[:, None] * T)


def _factor(space: GalerkinSpace, direction: int, test_sel: int, trial_sel: int,
            coef_values=None):
    """:func:`_matrix_1d` as a term stores it: its three diagonals
    (:class:`Tridiagonal`) in a Q1 direction."""
    B = _matrix_1d(space, direction, test_sel, trial_sel, coef_values)
    family = space.basis1 if direction == 1 else space.basis2
    return Tridiagonal(B) if isinstance(family, Q1Basis) else B


@_per_space
def _plain_factor(space: GalerkinSpace, direction: int, test_sel: int,
                  trial_sel: int):
    """The coefficient-free 1D factor, built once per space and shared by
    every term, norm matrix and eigenbasis that uses it; read-only."""
    return _factor(space, direction, test_sel, trial_sel)


def _finite(values, name: str):
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} produced non-finite values on the quadrature grid")
    return values


def _part_values(space: GalerkinSpace, direction: int, part: ScalarField,
                 name: str):
    """A one-variable factor on the quadrature points of its direction."""
    # a division by zero is reported by the check, not as a warning
    with np.errstate(all="ignore"):
        return _finite(_axis_values(part, *space.grid_axes).ravel(), name)


def _factored_path(space, products, test_sel: int, trial_sel: int):
    """One factored term ``scale B1 (x) B2`` per product ``(scale, g, h)``;
    each 1D factor is weighted by its part (coefficient free for None) and
    is tridiagonal in a Q1 direction."""
    terms = []
    for scale, *parts in products:
        if _finite(scale, "coefficient") == 0.0:
            continue
        factors = []
        for direction, part in zip((1, 2), parts):
            # a selector of the other direction picks the value table here
            t, s = (sel if sel == direction else 0 for sel in (test_sel, trial_sel))
            factors.append(
                _plain_factor(space, direction, t, s) if part is None else
                _factor(space, direction, t, s,
                        _part_values(space, direction, part, "coefficient")))
        terms.append((scale, *factors))
    return KronOperator(space.basis1.dim, space.basis2.dim, terms)


def _pair_table(space: GalerkinSpace, direction: int, test_sel: int,
                trial_sel: int):
    """``(i, k, C)`` of one direction: the basis pairs whose supports
    overlap, read off the tables as the nonzeros of ``|S|^T |T|``, and their
    products ``C[p, (i, k)] = S[p, i] T[p, k]`` at the quadrature points."""
    _, _, V, D = space.rule(direction)
    S = _pick(test_sel, direction, V, D)
    T = _pick(trial_sel, direction, V, D)
    i, k = np.nonzero(np.abs(S).T @ np.abs(T))
    C = np.take(S, i, axis=1)
    C *= np.take(T, k, axis=1)
    return i, k, C


def _grid_path(space: GalerkinSpace, coef_values, test_sel: int, trial_sel: int):
    """``C1^T (w1 w2^T o c) C2`` over the overlapping pairs: a stencil on
    Q1 x Q1, a dense matrix when every pair overlaps (sine x sine), CSR on
    a mixed space."""
    _, w1, _, _ = space.rule(1)
    _, w2, _, _ = space.rule(2)
    if isinstance(space.basis1, Q1Basis) and isinstance(space.basis2, Q1Basis):
        return _element_stencil(space, np.outer(w1, w2) * coef_values,
                                test_sel, trial_sel)
    i1, k1, C1 = _pair_table(space, 1, test_sel, trial_sel)
    i2, k2, C2 = _pair_table(space, 2, test_sel, trial_sel)
    n1, n2, dim = space.basis1.dim, space.basis2.dim, space.dim
    Wc = (w1[:, None] * w2[None, :]) * coef_values
    pairs = C1.T @ (Wc @ C2)
    if i1.size == n1 * n1 and i2.size == n2 * n2:
        # np.nonzero lists the pairs row by row: (i, k) is column i * n + k
        return pairs.reshape(n1, n1, n2, n2).transpose(0, 2, 1, 3).reshape(dim, dim)
    rows = i1[:, None] * n2 + i2[None, :]
    cols = k1[:, None] * n2 + k2[None, :]
    return sparse().csr_matrix((pairs.ravel(), (rows.ravel(), cols.ravel())),
                               shape=(dim, dim))


def _coef_on_grid(space, coef: ScalarField, name: str = "coefficient"):
    # a division by zero is reported by the check, not as a warning
    with np.errstate(all="ignore"):
        return _finite(grid_values(coef, *space.grid_axes), name)


def _form(space: GalerkinSpace, coef: ScalarField, test_sel: int,
          trial_sel: int) -> KronOperator:
    """``integral c * D^t(test) * D^s(trial)`` as a factored operator: one
    term per product of ``coef.products``, the grid contraction when the
    coefficient does not split."""
    if coef.products is not None:
        return _factored_path(space, coef.products, test_sel, trial_sel)
    R = _grid_path(space, _coef_on_grid(space, coef), test_sel, trial_sel)
    return KronOperator(space.basis1.dim, space.basis2.dim, remainders=((1.0, R),))


def _block(space: GalerkinSpace, A: CoefficientField, block) -> KronOperator:
    key = str(block)
    if key not in _BLOCKS:
        raise ValueError(f"unknown block {block!r}; expected one of 11, 12, 21, 22")
    name, test_sel, trial_sel = _BLOCKS[key]
    return _form(space, getattr(A, name), test_sel, trial_sel)


def bilinear_form(space: GalerkinSpace, coef, test_sel: int, trial_sel: int):
    """Assemble ``integral c * D^t(test) * D^s(trial)`` as a CSR matrix."""
    if test_sel not in (0, 1, 2) or trial_sel not in (0, 1, 2):
        raise ValueError("derivative selectors must be 0, 1, or 2")
    return _form(space, as_field(coef), test_sel, trial_sel).tocsr()


def assemble_block_stiffness(space: GalerkinSpace, A: CoefficientField, block):
    """One unscaled block of the stiffness form; block in {11, 12, 21, 22}."""
    return _block(space, A, block).tocsr()


def assemble_limit_stiffness(space: GalerkinSpace, A: CoefficientField):
    """Stiffness of the reduced problem; coincides with the 22 block."""
    return assemble_block_stiffness(space, A, "22")


def assemble_scaled_stiffness(space: GalerkinSpace, A: CoefficientField,
                              epsilon: float):
    """Directly assemble the eps-scaled stiffness (independent of the blocks).

    Used to cross-check the reassembly identity
    ``K_eps = eps^2 K11 + eps K12 + eps K21 + K22``.
    """
    eps = check_epsilon(epsilon)
    out = None
    for mult, block in zip((eps ** 2, eps, eps, 1.0), ("11", "12", "21", "22")):
        name, test_sel, trial_sel = _BLOCKS[block]
        piece = bilinear_form(space, getattr(A, name).scaled(mult), test_sel, trial_sel)
        out = piece if out is None else out + piece
    return out.tocsr()


def assemble_mass(space: GalerkinSpace):
    """CSR view of the cached mass matrix ``M`` (do not modify it)."""
    return norm_matrices(space)[0].tocsr()


def seminorm_matrices(space: GalerkinSpace):
    """CSR views of the cached seminorm matrices G1, G2 (do not modify them)."""
    return tuple(G.tocsr() for G in norm_matrices(space)[1:])


@_per_space
def norm_matrices(space: GalerkinSpace):
    """Cached factored ``(M, G1, G2)`` of a space; coefficient independent."""
    one = as_field(1.0)
    return _form(space, one, 0, 0), _form(space, one, 1, 1), _form(space, one, 2, 2)


def assemble_load(space: GalerkinSpace, f):
    """Load vector of the source ``f`` (SourceField, field, callable, or
    constant): ``sum scale * outer(V1^T (w1 g), V2^T (w2 h))`` over the
    products of a source that splits, else :meth:`GalerkinSpace.load` of its
    grid values."""
    if isinstance(f, SourceField):
        f = f.f
    f = as_field(f)
    if f.products is None:
        return space.load(_coef_on_grid(space, f, "source"))
    out = np.zeros((space.basis1.dim, space.basis2.dim))
    for scale, g, h in f.products:
        out += _finite(scale, "source") * np.outer(_load_1d(space, 1, g),
                                                   _load_1d(space, 2, h))
    return out.ravel()


def _load_1d(space: GalerkinSpace, direction: int, part):
    """``V^T (w c)`` of one direction, ``c`` a source factor on its points
    (1 for None)."""
    _, w, V, _ = space.rule(direction)
    return V.T @ (w if part is None else w * _part_values(space, direction, part,
                                                          "source"))


def energy_norm(G, v) -> float:
    """``sqrt(v^T G v)`` of a symmetric positive semidefinite ``G`` (any
    operator with ``@``); a form negative by round-off reads 0."""
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(max(v @ (G @ v), 0.0)))


def mass_1d(family: BasisFamily1D, order: int = 4):
    pts, wts = family.quad_points(order)
    V, _ = family.eval_table(pts)
    return sparse().csr_matrix(V.T @ (wts[:, None] * V))


def stiffness_1d(family: BasisFamily1D, coef=None, order: int = 4):
    """1D matrix of ``integral c(x) u' v'`` with ``c`` a function of the coordinate."""
    pts, wts = family.quad_points(order)
    _, D = family.eval_table(pts)
    w = wts if coef is None else wts * np.asarray(coef(pts), dtype=float)
    return sparse().csr_matrix(D.T @ (w[:, None] * D))


@_per_space
def _mass_inverse_1d(space: GalerkinSpace, direction: int) -> np.ndarray:
    """``Q Q^T``, the inverse of the 1D mass matrix of one direction, from
    its eigenbasis ``Q`` (``Q^T M Q = I``); built once per space, and once
    for both directions of a square space."""
    if direction == 2 and space.is_square:
        return _mass_inverse_1d(space, 1)
    Q, _ = pencil_eigenbasis(space, direction)
    return Q @ Q.T


def _project_1d(space: GalerkinSpace, direction: int, fn):
    """L2 projection of a function of one variable onto one direction."""
    pts, w, V, _ = space.rule(direction)
    load = V.T @ (w * np.asarray(fn(pts), dtype=float))
    return _mass_inverse_1d(space, direction) @ load


def project(space: GalerkinSpace, fn):
    """L2 projection of a function onto the tensor space: ``M^{-1}`` of its load."""
    F = assemble_load(space, fn).reshape(space.basis1.dim, space.basis2.dim)
    return (_mass_inverse_1d(space, 1) @ F @ _mass_inverse_1d(space, 2).T).ravel()


@_per_space
def pencil_eigenbasis(space: GalerkinSpace, direction: int):
    """``(Q, lam)`` with ``Q^T M Q = I`` and ``Q^T S Q = diag(lam)`` for the 1D
    mass ``M`` and stiffness ``S`` of one direction, from the family's
    closed-form eigenvectors; built once per space, and once for both
    directions of a square space, whose 1D matrices are the same."""
    if direction == 2 and space.is_square:
        return pencil_eigenbasis(space, 1)
    family = space.basis1 if direction == 1 else space.basis2
    V = family.pencil_vectors()
    M, S = (_dense(_plain_factor(space, direction, sel, sel)) for sel in (0, direction))
    Q = V / np.sqrt(np.einsum("ij,ij->j", V, M @ V))
    return Q, np.einsum("ij,ij->j", Q, S @ Q)


def _direction_eigenbasis(space: GalerkinSpace, direction: int, terms):
    """``(Q, d)`` with ``Q^T M Q = I`` and ``Q^T A Q = diag(d)`` for the 1D
    mass ``M`` of one direction and ``A = sum c B`` over ``(c, B)`` in
    ``terms``: ``pencil_eigenbasis`` itself when every ``B`` is the plain
    stiffness, else one dense ``eigh`` of ``A`` in that basis."""
    Q, lam = pencil_eigenbasis(space, direction)
    S = _plain_factor(space, direction, direction, direction)
    if all(B is S for _, B in terms):
        return Q, sum((c * lam for c, _ in terms), np.zeros_like(lam))
    A = sum(c * _dense(B) for c, B in terms)
    d, W = np.linalg.eigh(Q.T @ A @ Q)
    return Q @ W, d


def _two_term_spectrum(d1, d2, epsilon: Optional[float], mu: float) -> np.ndarray:
    """``e2 d1_i + d2_j + mu``, ``e2 = epsilon^2`` (0 for LIMIT): the fast
    diagonalisation spectrum of the 1D spectra ``d1`` and ``d2``."""
    e2 = 0.0 if epsilon is None else check_epsilon(epsilon) ** 2
    return e2 * d1[:, None] + d2[None, :] + mu


def _transposed(A, B) -> bool:
    """``max|B - A^T| <= SYMMETRY_TOL max|A|``: ``B`` is ``A^T`` by the
    relative test of ``_is_symmetric``."""
    A, B = _dense(A), _dense(B)
    return _max_abs(B - A.T) <= SYMMETRY_TOL * max(_max_abs(A), 1e-300)


@dataclass
class AssembledProblem:
    """All operators of one (space, coefficients) pair, plus an optional load.

    The blocks ``K11 ... K22`` and the norm matrices ``M, G1, G2`` are
    :class:`KronOperator`.  An operator is named by the key ``(epsilon, mu)``,
    ``epsilon`` None for the limit: :meth:`operator` builds it, and
    :meth:`tensor_preconditioner` the preconditioner of the same key.
    """

    space: GalerkinSpace
    K11: KronOperator
    K12: KronOperator
    K21: KronOperator
    K22: KronOperator
    M: KronOperator
    G1: KronOperator
    G2: KronOperator
    F: Optional[np.ndarray] = None

    @cached_property
    def coupling(self) -> KronOperator:
        """``K12 + K21``; epsilon independent, so a remainder in each block
        is summed into one once per system."""
        both = KronOperator.combine([(1.0, self.K12), (1.0, self.K21)])
        if len(both.remainders) < 2:
            return both
        (_, R12), (_, R21) = both.remainders
        return KronOperator(both.n1, both.n2, both.terms, [(1.0, R12 + R21)])

    @cached_property
    def coupling_symmetric(self) -> bool:
        """Symmetry verdict of every ``operator``, taken once per system.

        ``K11``, ``K22`` and ``M`` are symmetric by construction, so only
        ``K12 + K21`` is checked, and only when it is nonzero.  A term
        ``c A (x) B`` of ``K12`` and a term ``c A' (x) B'`` of ``K21`` with
        ``A' = A^T`` and ``B' = B^T`` sum to a symmetric matrix, so each such
        pair is settled on its 1D factors, by the relative test of
        ``_is_symmetric``.  The unpaired terms and the remainders are checked
        as one operator by ``_is_symmetric`` (``KronOperator.is_symmetric``),
        relative to the larger of their own size and ``s``, the smaller of
        the largest diagonal entries of ``K11`` and ``K22``: by
        ``eps^2 a + b >= 2 eps min(a, b)``, every ``operator(eps)`` is at
        least ``eps s`` large where its coupling enters as ``eps (K12 +
        K21)``.  So a coupling of round-off next to the blocks, as on a
        direction with one node, where its 1D factors cancel, reads
        symmetric, as the materialised operator does.
        """
        unpaired = list(self.K21.terms)
        rest = []
        for c, A, B in self.K12.terms:
            match = next((k for k, (c2, A2, B2) in enumerate(unpaired)
                          if c2 == c and _transposed(A, A2) and _transposed(B, B2)),
                         None)
            if match is None:
                rest.append((c, A, B))
            else:
                del unpaired[match]
        left = KronOperator(self.K12.n1, self.K12.n2, rest + unpaired,
                            self.coupling.remainders)
        if left.is_zero:
            return True
        scale = min(_max_abs(K.parts_diagonal()) for K in (self.K11, self.K22))
        return _is_symmetric(left, scale)

    def operator(self, epsilon: Optional[float] = None,
                 mu: float = 0.0) -> KronOperator:
        """``eps^2 K11 + eps (K12 + K21) + K22 + mu M`` kept factored; the
        limit ``K22 + mu M`` when ``epsilon`` is None."""
        parts = [(1.0, self.K22), (mu, self.M)]
        if epsilon is None:
            return KronOperator.combine(parts, symmetric=True)
        check_epsilon(epsilon)
        parts = [(epsilon ** 2, self.K11), (epsilon, self.coupling)] + parts
        return KronOperator.combine(parts, symmetric=self.coupling_symmetric)

    def stiffness(self, epsilon: float) -> sp.csr_matrix:
        return self.operator(epsilon).tocsr()

    def limit_stiffness(self) -> sp.csr_matrix:
        return self.operator().tocsr()

    @cached_property
    def eigenbasis(self):
        """``(Q1, lam1, Q2, lam2)``: both 1D eigenbases of the space."""
        return pencil_eigenbasis(self.space, 1) + pencil_eigenbasis(self.space, 2)

    @cached_property
    def separable_eigenbasis(self):
        """``(Q1, d1, Q2, d2)`` of the separable part of the operators, else
        None.

        The separable part is ``eps^2 K11 + K22 + mu M`` with no remainders,
        every ``K11`` term ``c A (x) M2`` and every ``K22`` term ``c M1 (x) B``,
        ``M1`` and ``M2`` the plain 1D masses: then ``K11 = A1 (x) M2`` and
        ``K22 = M1 (x) A2``, with ``A1`` and ``A2`` the sums of the terms'
        factors (``a11`` of ``x1`` alone, ``a22`` of ``x2`` alone).  Each
        ``Q`` is M-orthonormal and ``Q^T A Q = diag(d)`` in its direction, so
        the separable part is ``diag(eps^2 d1_i + d2_j + mu)`` in the basis
        ``Q1 (x) Q2`` (fast diagonalisation, Lynch, Rice and Thomas 1964).
        The coupling ``K12 + K21`` is not part of it.  Factors are compared
        by identity with the per-space plain factors, which every term
        without a coefficient part shares; for identity coefficients the
        bases are those of :attr:`eigenbasis`.
        """
        space = self.space
        if self.K11.remainders or self.K22.remainders:
            return None
        M1, M2 = _plain_factor(space, 1, 0, 0), _plain_factor(space, 2, 0, 0)
        if (any(B2 is not M2 for _, _, B2 in self.K11.terms)
                or any(B1 is not M1 for _, B1, _ in self.K22.terms)):
            return None
        return (_direction_eigenbasis(space, 1, [t[:2] for t in self.K11.terms])
                + _direction_eigenbasis(space, 2, [t[::2] for t in self.K22.terms]))

    @property
    def two_term_eigenbasis(self):
        """:attr:`separable_eigenbasis` when the system is two-term (no
        coupling, so that ``operator(eps)`` is its separable part), else
        None."""
        return self.separable_eigenbasis if self.coupling.is_zero else None

    def tensor_preconditioner(self, epsilon: Optional[float] = None,
                              mu: float = 0.0):
        """Inverse of the separable part ``eps^2 A1 (x) M2 + M1 (x) A2 + mu M``
        of ``operator(epsilon, mu)`` (:attr:`separable_eigenbasis`; the
        coupling is dropped, Concus and Golub 1973), as a callable, by
        :func:`fast_diagonal_inverse`.  A system without a separable part
        takes the identity-coefficient operator
        ``e2 S1(x)M2 + M1(x)S2 + mu M1(x)M2`` (:attr:`eigenbasis`) instead.
        ``e2 = epsilon^2``, 0 in the limit.  The inverse is exact for a
        two-term system."""
        return fast_diagonal_inverse(self.separable_eigenbasis or self.eigenbasis,
                                     epsilon, mu)


def fast_diagonal_inverse(basis, epsilon: Optional[float], mu: float):
    """``r -> (Q1(x)Q2) diag(1 / _two_term_spectrum) (Q1(x)Q2)^T r`` for
    ``basis = (Q1, d1, Q2, d2)``: the inverse of
    ``e2 A1(x)M2 + M1(x)A2 + mu M1(x)M2`` when ``Q^T M Q = I`` and
    ``Q^T A Q = diag(d)`` in each direction, as a callable."""
    Q1, d1, Q2, d2 = basis
    inv = 1.0 / _two_term_spectrum(d1, d2, epsilon, mu)
    shape = inv.shape

    def apply(r):
        return (Q1 @ (inv * (Q1.T @ r.reshape(shape) @ Q2)) @ Q2.T).ravel()
    return apply


def assemble_system(space: GalerkinSpace, A: CoefficientField,
                    f=None) -> AssembledProblem:
    M, G1, G2 = norm_matrices(space)
    return AssembledProblem(
        space=space,
        K11=_block(space, A, "11"),
        K12=_block(space, A, "12"),
        K21=_block(space, A, "21"),
        K22=_block(space, A, "22"),
        M=M,
        G1=G1,
        G2=G2,
        F=None if f is None else assemble_load(space, f),
    )
