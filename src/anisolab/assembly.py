"""Sparse assembly of all bilinear and linear forms on a tensor space.

Derivative selectors are 0 (value), 1 (d/dx1), 2 (d/dx2); a generic form is

    B[row, col] = integral  c(x) * D^t phi_row * D^s phi_col  dx

with ``t`` the test selector and ``s`` the trial selector.  Three kernels are
used depending on the structure of the coefficient:

* constant or single-variable coefficients factor exactly into a Kronecker
  product of 1D matrices;
* genuinely 2D coefficients on a pair of Q1 families go through vectorized
  per-element assembly;
* everything else goes through a dense tensor contraction over the
  quadrature grid (natural for sine bases, whose matrices are dense anyway).

Coefficients and sources are evaluated on the tensor quadrature grid along
its axes (``coefficients.grid_values``), so a factor of one variable is
computed once per point of its own axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
import scipy.io
import scipy.sparse as sp

from .coefficients import (CoefficientField, ScalarField, SourceField, as_field,
                           grid_values, scale_matrix)
from .spaces import BasisFamily1D, GalerkinSpace, Q1Basis, gauss_rule

__all__ = [
    "bilinear_form",
    "assemble_block_stiffness",
    "assemble_limit_stiffness",
    "assemble_scaled_stiffness",
    "assemble_load",
    "assemble_mass",
    "seminorm_matrices",
    "norm_matrices",
    "mass_1d",
    "stiffness_1d",
    "load_1d",
    "project",
    "project_1d",
    "pencil_eigenbasis",
    "AssembledProblem",
    "assemble_system",
    "write_matrix_market",
]

_BLOCKS = {
    # block -> (coefficient name, test selector, trial selector)
    "11": ("a11", 1, 1),
    "12": ("a12", 1, 2),
    "21": ("a21", 2, 1),
    "22": ("a22", 2, 2),
}


def _tables(space: GalerkinSpace, direction: int):
    if direction == 1:
        pts, wts = space._quad1
        V, D = space._tables1
    else:
        pts, wts = space._quad2
        V, D = space._tables2
    return pts, wts, V, D


def _pick(selector: int, direction: int, V, D):
    """Pick value or derivative table for one cartesian direction."""
    return D if selector == direction else V


def _matrix_1d(space: GalerkinSpace, direction: int, test_sel: int, trial_sel: int,
               coef_values=None):
    """1D factor matrix S^T diag(w c) T for one direction."""
    _, wts, V, D = _tables(space, direction)
    S = _pick(test_sel, direction, V, D)
    T = _pick(trial_sel, direction, V, D)
    w = wts if coef_values is None else wts * coef_values
    return S.T @ (w[:, None] * T)


def _kron_path(space, coef: ScalarField, test_sel: int, trial_sel: int):
    deps = coef.deps
    c1 = c2 = None
    scale = 1.0
    if not deps:
        scale = coef.constant_value()
        if scale == 0.0:
            return sp.csr_matrix((space.dim, space.dim))
    elif deps == {"x1"}:
        pts1 = space._quad1[0]
        mid2 = 0.5 * (space.domain.omega2[0] + space.domain.omega2[1])
        c1 = coef(pts1, np.full_like(pts1, mid2))
    else:  # {"x2"}
        pts2 = space._quad2[0]
        mid1 = 0.5 * (space.domain.omega1[0] + space.domain.omega1[1])
        c2 = coef(np.full_like(pts2, mid1), pts2)
    B1 = _matrix_1d(space, 1, test_sel, trial_sel, c1)
    B2 = _matrix_1d(space, 2, test_sel, trial_sel, c2)
    return sp.csr_matrix(scale * sp.kron(sp.csr_matrix(B1), sp.csr_matrix(B2)))


def _dense_path(space, coef_values, test_sel: int, trial_sel: int):
    _, w1, V1, D1 = _tables(space, 1)
    _, w2, V2, D2 = _tables(space, 2)
    S1 = _pick(test_sel, 1, V1, D1)
    T1 = _pick(trial_sel, 1, V1, D1)
    S2 = _pick(test_sel, 2, V2, D2)
    T2 = _pick(trial_sel, 2, V2, D2)
    n1 = S1.shape[1]
    n2 = S2.shape[1]
    Wc = (w1[:, None] * w2[None, :]) * coef_values
    C1 = (S1[:, :, None] * T1[:, None, :]).reshape(S1.shape[0], n1 * n1)
    C2 = (S2[:, :, None] * T2[:, None, :]).reshape(S2.shape[0], n2 * n2)
    pairs = C1.T @ (Wc @ C2)
    K = pairs.reshape(n1, n1, n2, n2).transpose(0, 2, 1, 3).reshape(n1 * n2, n1 * n2)
    return sp.csr_matrix(K)


def _q1_element_path(space, coef_values, test_sel: int, trial_sel: int):
    b1: Q1Basis = space.basis1
    b2: Q1Basis = space.basis2
    order = space.quadrature.order
    xg, wg = gauss_rule(order)
    # local linear shape functions on the reference cell
    N = np.stack([1.0 - xg, xg], axis=1)           # (g, 2)
    dN1 = np.stack([-np.ones_like(xg), np.ones_like(xg)], axis=1) / b1.h
    dN2 = np.stack([-np.ones_like(xg), np.ones_like(xg)], axis=1) / b2.h
    S1 = dN1 if test_sel == 1 else N
    T1 = dN1 if trial_sel == 1 else N
    S2 = dN2 if test_sel == 2 else N
    T2 = dN2 if trial_sel == 2 else N

    E1, E2, g = b1.m, b2.m, order
    C = coef_values.reshape(E1, g, E2, g)
    WC = C * (b1.h * wg)[None, :, None, None] * (b2.h * wg)[None, None, None, :]
    loc = np.einsum("EPFQ,Pa,Pc,Qb,Qd->EFabcd", WC, S1, T1, S2, T2, optimize=True)

    # local node a of element e is global node e + a; interior dof = node - 1
    dofs1 = np.arange(E1)[:, None] + np.arange(2)[None, :] - 1   # (E1, 2)
    dofs2 = np.arange(E2)[:, None] + np.arange(2)[None, :] - 1
    valid1 = (dofs1 >= 0) & (dofs1 < b1.dim)
    valid2 = (dofs2 >= 0) & (dofs2 < b2.dim)

    n2 = b2.dim
    rows = (dofs1[:, None, :, None, None, None] * n2
            + dofs2[None, :, None, :, None, None])
    cols = (dofs1[:, None, None, None, :, None] * n2
            + dofs2[None, :, None, None, None, :])
    mask = (valid1[:, None, :, None, None, None]
            & valid2[None, :, None, :, None, None]
            & valid1[:, None, None, None, :, None]
            & valid2[None, :, None, None, None, :])
    rows, cols, mask = np.broadcast_arrays(rows, cols, mask)
    vals = np.broadcast_to(loc, mask.shape)
    r = rows[mask]
    c = cols[mask]
    v = vals[mask]
    K = sp.coo_matrix((v, (r, c)), shape=(space.dim, space.dim))
    return K.tocsr()


def _coef_on_grid(space, coef: ScalarField):
    vals = grid_values(coef, space._quad1[0], space._quad2[0])
    if not np.all(np.isfinite(vals)):
        raise ValueError("coefficient produced non-finite values on the quadrature grid")
    return vals


def bilinear_form(space: GalerkinSpace, coef, test_sel: int, trial_sel: int):
    """Assemble ``integral c * D^t(test) * D^s(trial)`` as a CSR matrix."""
    if test_sel not in (0, 1, 2) or trial_sel not in (0, 1, 2):
        raise ValueError("derivative selectors must be 0, 1, or 2")
    coef = as_field(coef)
    if coef.deps <= {"x1"} or coef.deps <= {"x2"}:
        return _kron_path(space, coef, test_sel, trial_sel)
    values = _coef_on_grid(space, coef)
    if isinstance(space.basis1, Q1Basis) and isinstance(space.basis2, Q1Basis):
        return _q1_element_path(space, values.ravel(), test_sel, trial_sel)
    return _dense_path(space, values, test_sel, trial_sel)


def assemble_block_stiffness(space: GalerkinSpace, A: CoefficientField, block):
    """One unscaled block of the stiffness form; block in {11, 12, 21, 22}."""
    key = str(block)
    if key not in _BLOCKS:
        raise ValueError(f"unknown block {block!r}; expected one of 11, 12, 21, 22")
    name, test_sel, trial_sel = _BLOCKS[key]
    return bilinear_form(space, getattr(A, name), test_sel, trial_sel)


def assemble_limit_stiffness(space: GalerkinSpace, A: CoefficientField):
    """Stiffness of the reduced problem; coincides with the 22 block."""
    return assemble_block_stiffness(space, A, "22")


def assemble_scaled_stiffness(space: GalerkinSpace, A: CoefficientField,
                              epsilon: float):
    """Directly assemble the eps-scaled stiffness (independent of the blocks).

    Used to cross-check the reassembly identity
    ``K_eps = eps^2 K11 + eps K12 + eps K21 + K22``.
    """
    s = scale_matrix(A, epsilon)
    out = None
    for mult, block in zip(s, ("11", "12", "21", "22")):
        name, test_sel, trial_sel = _BLOCKS[block]
        piece = bilinear_form(space, getattr(A, name).scaled(mult), test_sel, trial_sel)
        out = piece if out is None else out + piece
    return out.tocsr()


def assemble_mass(space: GalerkinSpace):
    return bilinear_form(space, 1.0, 0, 0)


def seminorm_matrices(space: GalerkinSpace):
    """Matrices G1, G2 of the squared partial-gradient seminorms."""
    return bilinear_form(space, 1.0, 1, 1), bilinear_form(space, 1.0, 2, 2)


@lru_cache(maxsize=64)
def norm_matrices(space: GalerkinSpace):
    """Cached (M, G1, G2) for a space; these are coefficient independent."""
    G1, G2 = seminorm_matrices(space)
    return assemble_mass(space), G1, G2


def assemble_load(space: GalerkinSpace, f):
    """Load vector of the source ``f`` (SourceField, field, callable, or constant)."""
    if isinstance(f, SourceField):
        f = f.f
    f = as_field(f)
    vals = _coef_on_grid(space, f)
    _, w1, V1, _ = _tables(space, 1)
    _, w2, V2, _ = _tables(space, 2)
    return (V1.T @ ((w1[:, None] * w2[None, :] * vals) @ V2)).ravel()


def mass_1d(family: BasisFamily1D, order: int = 4):
    pts, wts = family.quad_points(order)
    V, _ = family.eval_table(pts)
    return sp.csr_matrix(V.T @ (wts[:, None] * V))


def stiffness_1d(family: BasisFamily1D, coef=None, order: int = 4):
    """1D matrix of ``integral c(x) u' v'`` with ``c`` a function of the coordinate."""
    pts, wts = family.quad_points(order)
    _, D = family.eval_table(pts)
    w = wts if coef is None else wts * np.asarray(coef(pts), dtype=float)
    return sp.csr_matrix(D.T @ (w[:, None] * D))


def load_1d(family: BasisFamily1D, fn, order: int = 4):
    pts, wts = family.quad_points(order)
    V, _ = family.eval_table(pts)
    return V.T @ (wts * np.asarray(fn(pts), dtype=float))


def project_1d(family: BasisFamily1D, fn, order: int = 4):
    """L2 projection of a function onto a 1D family."""
    M = mass_1d(family, order)
    return sp.linalg.spsolve(M.tocsc(), load_1d(family, fn, order))


def project(space: GalerkinSpace, fn):
    """L2 projection of a function onto the tensor space."""
    M = norm_matrices(space)[0]
    return sp.linalg.spsolve(M.tocsc(), assemble_load(space, fn))


def pencil_eigenbasis(space: GalerkinSpace, direction: int):
    """``(Q, lam)`` with ``Q^T M Q = I`` and ``Q^T S Q = diag(lam)`` for the 1D
    mass ``M`` and stiffness ``S`` of one direction, from the family's
    closed-form eigenvectors."""
    family = space.basis1 if direction == 1 else space.basis2
    V = family.pencil_vectors()
    M = _matrix_1d(space, direction, 0, 0)
    S = _matrix_1d(space, direction, direction, direction)
    Q = V / np.sqrt(np.einsum("ij,ij->j", V, M @ V))
    return Q, np.einsum("ij,ij->j", Q, S @ Q)


@dataclass
class AssembledProblem:
    """All matrices of one (space, coefficients) pair, plus an optional load."""

    space: GalerkinSpace
    K11: sp.csr_matrix
    K12: sp.csr_matrix
    K21: sp.csr_matrix
    K22: sp.csr_matrix
    M: sp.csr_matrix
    G1: sp.csr_matrix
    G2: sp.csr_matrix
    F: Optional[np.ndarray] = None

    def stiffness(self, epsilon: float) -> sp.csr_matrix:
        if not (0.0 < epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0,1], got {epsilon!r}")
        e2 = epsilon ** 2
        return (e2 * self.K11 + epsilon * (self.K12 + self.K21) + self.K22).tocsr()

    def limit_stiffness(self) -> sp.csr_matrix:
        return self.K22

    @cached_property
    def eigenbasis(self):
        """``(Q1, lam1, Q2, lam2)``: both 1D eigenbases, built once per system."""
        return pencil_eigenbasis(self.space, 1) + pencil_eigenbasis(self.space, 2)

    def tensor_preconditioner(self, e2: float, mu: float):
        """Inverse of the identity-coefficient operator
        ``e2 S1(x)M2 + M1(x)S2 + mu M1(x)M2`` as a callable, by fast
        diagonalisation: ``(Q1(x)Q2) diag(1 / (e2 lam1_i + lam2_j + mu)) (Q1(x)Q2)^T``.
        """
        Q1, lam1, Q2, lam2 = self.eigenbasis
        inv = 1.0 / (e2 * lam1[:, None] + lam2[None, :] + mu)
        shape = (lam1.size, lam2.size)

        def apply(r):
            return (Q1 @ (inv * (Q1.T @ r.reshape(shape) @ Q2)) @ Q2.T).ravel()
        return apply

    def norm(self, coeffs, which: str) -> float:
        G = {"l2": self.M, "x1": self.G1, "x2": self.G2,
             "grad": self.G1 + self.G2}[which]
        c = np.asarray(coeffs, dtype=float)
        return float(np.sqrt(max(c @ (G @ c), 0.0)))


def assemble_system(space: GalerkinSpace, A: CoefficientField,
                    f=None) -> AssembledProblem:
    G1, G2 = seminorm_matrices(space)
    return AssembledProblem(
        space=space,
        K11=assemble_block_stiffness(space, A, "11"),
        K12=assemble_block_stiffness(space, A, "12"),
        K21=assemble_block_stiffness(space, A, "21"),
        K22=assemble_block_stiffness(space, A, "22"),
        M=assemble_mass(space),
        G1=G1,
        G2=G2,
        F=None if f is None else assemble_load(space, f),
    )


def write_matrix_market(path, matrix):
    """Dump a matrix in MatrixMarket coordinate format."""
    scipy.io.mmwrite(str(path), sp.coo_matrix(matrix))
