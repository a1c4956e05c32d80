"""Sparse symmetric positive-definite solves: CG with a caller-supplied or
Jacobi preconditioner, and an automatic LU route for matrices that fail the
symmetry check or operators whose own verdict says they are not symmetric.

:func:`lu_solver` is the package's one sparse LU.  Every scipy module loads
on first use: ``scipy.sparse`` where the package first builds a sparse
matrix (:func:`sparse`: a CSR view of an operator, a remainder on a mixed
sine x q1 space, a flow generator) and ``scipy.sparse.linalg`` for LU.  So
a process that only applies dense or factored operators (the q1 x q1
stencils included) loads no scipy module, and one that only runs CG on
sparse matrices loads no direct solver.
"""

from __future__ import annotations

import sys
import weakref
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = [
    "SolveResult",
    "NonConvergenceError",
    "IndefiniteOperatorError",
    "lu_solver",
    "solve",
]

# relative tolerance of every symmetry test: max|K - K^T| <= SYMMETRY_TOL max|K|
SYMMETRY_TOL = 1e-12


class SolveResult(NamedTuple):
    x: np.ndarray
    residual_norm: float
    iterations: int


class NonConvergenceError(RuntimeError):
    """Iteration cap reached; carries the best iterate seen."""

    def __init__(self, best_x, residual_norm, iterations, hint=""):
        message = (f"solver did not converge in {iterations} iterations "
                   f"(best residual {residual_norm:.3e})")
        if hint:
            message += f"; {hint}"
        super().__init__(message)
        self.best_x = best_x
        self.residual_norm = float(residual_norm)
        self.iterations = iterations


class IndefiniteOperatorError(RuntimeError):
    """A nonpositive diagonal entry or CG curvature: the operator is not SPD."""

    def __init__(self):
        super().__init__("operator is not positive definite")


def sparse():
    """The ``scipy.sparse`` module, imported on the first call."""
    import scipy.sparse
    return scipy.sparse


def issparse(x) -> bool:
    """Whether ``x`` is a scipy sparse matrix, without importing scipy: no
    sparse matrix exists before ``scipy.sparse`` is loaded."""
    module = sys.modules.get("scipy.sparse")
    return module is not None and module.issparse(x)


def _max_abs(K) -> float:
    return abs(K).max() if issparse(K) else np.max(np.abs(K))


def _is_symmetric(K, scale: float = 0.0):
    """``max|K - K^T| <= SYMMETRY_TOL max(max|K|, scale)`` for a sparse or
    dense matrix, or for an operator with its own test of it
    (``is_symmetric``: a stencil on its weights, a ``KronOperator`` without
    forming its whole matrix).  ``scale`` is the size of an operator that
    ``K`` is part of, so that a ``K`` of round-off next to it reads
    symmetric."""
    if hasattr(K, "is_symmetric"):
        return K.is_symmetric(scale)
    return _blocks_symmetric([(K, K.T)], scale)


def _blocks_symmetric(blocks, scale: float = 0.0) -> bool:
    """``max|K - K^T| <= SYMMETRY_TOL max(max|K|, scale)`` from
    ``(K[rows], K^T[rows])`` pairs over blocks of rows that cover ``K``."""
    scales, gaps = zip(*((_max_abs(rows), _max_abs(rows - rows_t))
                         for rows, rows_t in blocks))
    return np.max(gaps) <= SYMMETRY_TOL * max(np.max(scales), scale, 1e-300)


def lu_solver(K) -> Callable[[np.ndarray], np.ndarray]:
    """``b -> K^{-1} b`` by one sparse LU factorisation (``splu``) of ``K``."""
    import scipy.sparse.linalg
    return scipy.sparse.linalg.splu(sparse().csc_matrix(K)).solve


# operator -> its LU solve: an operator that carries its own symmetry verdict
# (``KronOperator``) is factorised once however often it is solved, as in
# the steps of a Picard iteration, and the factor is freed with it
_OPERATOR_LU = weakref.WeakKeyDictionary()


def _lu_of(K) -> Callable[[np.ndarray], np.ndarray]:
    if not hasattr(K, "symmetric"):
        return lu_solver(K)
    if K not in _OPERATOR_LU:
        _OPERATOR_LU[K] = lu_solver(K.tocsr())
    return _OPERATOR_LU[K]


# operator -> its diagonal, found positive: an operator that carries its own
# symmetry verdict has its diagonal formed and checked once however often
# it is solved, as in the steps of a Picard iteration
_OPERATOR_DIAGONAL = weakref.WeakKeyDictionary()


def _positive_diagonal(K) -> np.ndarray:
    """The diagonal of ``K``; IndefiniteOperatorError when an entry is not
    positive, as then ``K`` is not positive definite."""
    own = hasattr(K, "symmetric")  # a sparse matrix is not hashable
    diag = _OPERATOR_DIAGONAL.get(K) if own else None
    if diag is None:
        diag = K.diagonal()
        if np.any(diag <= 0):
            raise IndefiniteOperatorError()
        if own:
            _OPERATOR_DIAGONAL[K] = diag
    return diag


def _cg(K, b, x0, rel_tol, max_iter, precond, callback):
    if x0 is None:
        x, r = np.zeros(b.shape[0]), b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - K @ x
    norm_b = np.linalg.norm(b)
    target = rel_tol * norm_b
    best_x, best_res = x.copy(), np.linalg.norm(r)
    if best_res <= target:
        return SolveResult(x, best_res, 0)
    z = precond(r)
    p = z.copy()
    rz = r @ z
    for it in range(1, max_iter + 1):
        Kp = K @ p
        curvature = p @ Kp
        if curvature <= 0.0:
            raise IndefiniteOperatorError()
        alpha = rz / curvature
        x = x + alpha * p
        r = r - alpha * Kp
        res = np.linalg.norm(r)
        if callback is not None:
            callback(x.copy())
        if res < best_res:
            best_x, best_res = x.copy(), res
        if res <= target:
            return SolveResult(x, res, it)
        z = precond(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonConvergenceError(best_x, best_res, max_iter)


def solve(K, rhs, *, rel_tol: float = 1e-10, x0=None,
          callback: Optional[Callable] = None,
          precond: Optional[Callable] = None) -> SolveResult:
    """Solve ``K x = rhs``; deterministic given its arguments.

    ``K`` is a sparse or dense matrix, or an operator with ``@``,
    ``.shape``, ``.diagonal()``, ``.tocsr()`` and a ``symmetric`` verdict
    (``assembly.KronOperator``); a verdict other than None replaces the
    numeric symmetry check.  Returns the solution, the true residual norm,
    and the iteration count (0 for LU).  Nonsymmetric inputs are routed to
    sparse LU; symmetric ones to CG, to a residual of ``rel_tol ||rhs||``
    in at most ``20 n`` iterations, preconditioned by ``precond``, an SPD
    map ``r -> P^-1 r``, or else by the inverse diagonal (Jacobi).
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    b = np.asarray(rhs, dtype=float)
    n = b.shape[0]
    if K.shape != (n, n):
        raise ValueError(f"matrix shape {K.shape} does not match rhs length {n}")
    if not np.linalg.norm(b):
        return SolveResult(np.zeros(n), 0.0, 0)

    if issparse(K) or isinstance(K, np.ndarray):
        K = K.tocsr() if issparse(K) else sparse().csr_matrix(K)
    symmetric = getattr(K, "symmetric", None)
    if symmetric is None:
        symmetric = _is_symmetric(K.tocsr())
    if not symmetric:
        x = _lu_of(K)(b)
        return SolveResult(x, float(np.linalg.norm(b - K.tocsr() @ x)), 0)

    diag = _positive_diagonal(K)
    if precond is None:
        inv = 1.0 / diag

        def precond(r):
            return inv * r

    return _cg(K, b, x0, rel_tol, 20 * n, precond, callback)
