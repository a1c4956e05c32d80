"""Tensor-product domains, nested 1D basis families, and Galerkin spaces.

Two conforming families on an interval are provided, both vanishing at the
interval endpoints:

* ``Q1Basis`` - piecewise linear hat functions on a uniform mesh with ``m``
  subintervals (``m - 1`` interior nodes).  Refining ``m`` by an integer
  factor gives a nested family.
* ``SineBasis`` - the first ``m`` eigenfunctions of the second derivative,
  normalized to unit L2 norm, so the 1D mass matrix is the identity.  Any
  ``m' >= m`` gives a nested family.

Quadrature is composite Gauss-Legendre.  For Q1 each mesh element carries
``quad_order`` points.  For sine the interval is cut into ``m`` equal panels
(one per mode) carrying ``4 * quad_order`` points each, so the default order 4
gives ``16 m`` points per direction: a 512 x 512 grid for the 2D space at
``m = 32``.  Sine needs ``quad_order >= 3`` (its ``least_order``).

A :class:`GalerkinSpace` is the tensor product of two families with the flat
index convention ``flat = i * dim2 + j`` (second direction fastest), which
makes Kronecker-structured matrices index-transparent.  It owns the tensor
quadrature grid: the rule and basis tables of each direction
(:meth:`GalerkinSpace.rule`, read-only, and one set for both directions of
a square space), the grid axes, discrete functions and their
partials on the grid, the quadrature integral and the load of grid values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linsolve import sparse

__all__ = [
    "TensorDomain",
    "BasisFamily1D",
    "Q1Basis",
    "SineBasis",
    "GalerkinSpace",
    "Quadrature",
    "build_space",
    "eval_basis",
    "embedding_map",
    "embedding_transpose_map",
    "embedding_matrix",
    "gauss_rule",
]


@lru_cache(maxsize=64)
def gauss_rule(order: int):
    """Gauss-Legendre points and weights on the reference cell [0, 1].

    Exact for polynomials of degree <= 2*order - 1.  Computed once per
    order; the returned arrays are shared and read-only.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    rule = 0.5 * (x + 1.0), 0.5 * w
    for a in rule:
        a.flags.writeable = False
    return rule


def _composite_gauss(a: float, h: float, panels: int, order: int):
    """Gauss rule of ``order`` points on each of ``panels`` cells of width ``h`` from ``a``."""
    xg, wg = gauss_rule(order)
    offsets = a + h * np.arange(panels)
    pts = (offsets[:, None] + h * xg[None, :]).ravel()
    wts = np.tile(h * wg, panels)
    return pts, wts


@dataclass(frozen=True)
class Quadrature:
    """Composite Gauss-Legendre rule description.

    The cell partition and the points per cell are chosen by the basis
    family from ``order``: Q1 puts ``order`` points on each mesh element;
    sine puts ``4 * order`` points on each of ``m`` uniform panels, i.e.
    ``16 m`` points per direction at the default order 4.  Each family
    rejects an order below its ``least_order`` when it builds its rule.
    """

    order: int = 4


@dataclass(frozen=True)
class TensorDomain:
    """Rectangle ``omega1 x omega2`` given by two nondegenerate intervals."""

    omega1: tuple[float, float]
    omega2: tuple[float, float]

    def __post_init__(self):
        for a, b in (self.omega1, self.omega2):
            if not b > a:
                raise ValueError("degenerate interval: each side must have b > a")
            scale = math.pi / (b - a)  # poincare_domain takes its square
            if not 0.0 < scale * scale < math.inf:
                raise ValueError(f"side length {b - a!r} is out of range: "
                                 "(pi / length)^2 must be a positive finite number")

    @property
    def length1(self) -> float:
        return self.omega1[1] - self.omega1[0]

    @property
    def length2(self) -> float:
        return self.omega2[1] - self.omega2[0]

    @property
    def area(self) -> float:
        return self.length1 * self.length2

    # Best interval constants ||v|| <= C ||v'|| for functions vanishing at
    # the endpoints; the rectangle constant follows from the first
    # eigenvalue of the Laplacian on the product.
    @property
    def poincare_omega1(self) -> float:
        return self.length1 / math.pi

    @property
    def poincare_omega2(self) -> float:
        return self.length2 / math.pi

    @property
    def poincare_domain(self) -> float:
        return (self.poincare_omega1 ** -2 + self.poincare_omega2 ** -2) ** -0.5


class BasisFamily1D:
    """Base class for a 1D basis on an interval, conforming to zero traces.

    A family takes at least ``least_m`` of its ``unit`` and a quadrature
    order of at least ``least_order``.  It is nested in the family of its
    kind and interval with ``m`` units when its hook ``_nests_in(m)`` holds,
    and its hook ``_embedding(fine)`` then gives the embedding.
    """

    kind: str
    unit: str  # what m counts
    least_m: int  # the fewest units the family takes: the size of one function
    least_order: int  # the lowest quadrature order of its rule

    def __init__(self, interval, m: int):
        a, b = interval
        if not b > a:
            raise ValueError("degenerate interval")
        if m < self.least_m:
            raise ValueError(f"{self.kind} family needs at least {self.least_m} "
                             f"{self.unit}")
        self.interval = (float(a), float(b))
        self.m = int(m)
        self.dim = self.m - self.least_m + 1  # one more function per unit

    def __repr__(self):
        return f"{type(self).__name__}({self.interval}, m={self.m})"

    @property
    def length(self) -> float:
        return self.interval[1] - self.interval[0]

    def refined(self, factor: int) -> "BasisFamily1D":
        """The family of the same kind and interval with ``factor`` times the size."""
        return type(self)(self.interval, self.m * factor)

    def eval_table(self, points):
        """Values and first derivatives of all basis functions.

        Returns ``(V, D)`` with shape ``(len(points), dim)``.
        """
        raise NotImplementedError

    def quad_points(self, order: int):
        """Composite Gauss rule ``(points, weights)`` over the interval."""
        raise NotImplementedError

    def is_nested_in(self, fine: "BasisFamily1D") -> bool:
        return (isinstance(fine, type(self)) and fine.interval == self.interval
                and self._nests_in(fine.m))

    def embedding_into(self, fine: "BasisFamily1D"):
        """Matrix ``E`` of shape ``(fine.dim, dim)`` with ``phi_k = sum_l E[l,k] psi_l``."""
        if not self.is_nested_in(fine):
            raise ValueError(f"{self!r} is not nested in {fine!r}")
        return self._embedding(fine)

    def pencil_vectors(self):
        """Closed-form eigenvectors (unnormalised columns) of the 1D pencil of
        stiffness ``int u' v'`` and mass ``int u v``, at any quadrature order."""
        raise NotImplementedError


class Q1Basis(BasisFamily1D):
    """Interior hat functions on a uniform mesh with ``m`` subintervals."""

    kind = "q1"
    unit = "subintervals"
    least_m = 2
    least_order = 1

    @property
    def h(self) -> float:
        return self.length / self.m

    def _locate(self, x):
        a, _ = self.interval
        e = np.floor((np.asarray(x, dtype=float) - a) / self.h).astype(int)
        e = np.clip(e, 0, self.m - 1)
        xi = (np.asarray(x, dtype=float) - a) / self.h - e
        return e, xi

    def eval_table(self, points):
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        e, xi = self._locate(pts)
        V = np.zeros((pts.size, self.dim))
        D = np.zeros((pts.size, self.dim))
        rows = np.arange(pts.size)
        # node e carries 1 - xi on element e, node e + 1 carries xi
        left = e - 1  # interior dof of node e
        ok = left >= 0
        V[rows[ok], left[ok]] = 1.0 - xi[ok]
        D[rows[ok], left[ok]] = -1.0 / self.h
        right = e  # interior dof of node e + 1
        ok = right <= self.dim - 1
        V[rows[ok], right[ok]] = xi[ok]
        D[rows[ok], right[ok]] = 1.0 / self.h
        return V, D

    def quad_points(self, order: int):
        # gauss_rule rejects an order below least_order
        return _composite_gauss(self.interval[0], self.h, self.m, order)

    def nodes(self):
        a, _ = self.interval
        return a + self.h * np.arange(1, self.m)

    def _nests_in(self, m: int) -> bool:
        return m % self.m == 0

    def _embedding(self, fine):
        # piecewise linear functions are determined by their nodal values
        V, _ = self.eval_table(fine.nodes())
        return V

    def pencil_vectors(self):
        # Both matrices are symmetric tridiagonal Toeplitz on the uniform
        # mesh, and the discrete sine vectors diagonalise every such matrix.
        k = np.arange(1, self.m)
        return np.sin(np.outer(k, k) * (math.pi / self.m))


class SineBasis(BasisFamily1D):
    """First ``m`` sine modes on the interval, orthonormal in L2."""

    kind = "sine"
    unit = "mode"
    least_m = 1
    # the lowest order at which 4 * order points per mode integrate every
    # product of two modes or their derivatives to round-off
    least_order = 3

    def frequencies(self):
        """Angular frequencies ``k*pi/L``; squares are the stiffness eigenvalues."""
        L = self.length
        return np.arange(1, self.m + 1) * math.pi / L

    def eval_table(self, points):
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        a, _ = self.interval
        L = self.length
        scale = math.sqrt(2.0 / L)
        omega = self.frequencies()
        phase = (pts[:, None] - a) * omega[None, :]
        V = scale * np.sin(phase)
        D = scale * omega[None, :] * np.cos(phase)
        return V, D

    def quad_points(self, order: int):
        # One panel per mode: a product of two modes (values or derivatives)
        # runs through at most one period on a panel.
        if order < self.least_order:
            raise ValueError(f"sine quadrature order must be >= "
                             f"{self.least_order}, got {order}")
        return _composite_gauss(self.interval[0], self.length / self.m,
                                self.m, 4 * order)

    def _nests_in(self, m: int) -> bool:
        return self.m <= m

    def _embedding(self, fine):
        E = np.zeros((fine.dim, self.dim))
        E[: self.dim, : self.dim] = np.eye(self.dim)
        return E

    def pencil_vectors(self):
        # the modes are the eigenfunctions themselves
        return np.eye(self.dim)


_FAMILIES = {"q1": Q1Basis, "sine": SineBasis}


class GalerkinSpace:
    """Tensor product of two 1D families with j-major flat indexing."""

    def __init__(self, domain: TensorDomain, basis1: BasisFamily1D,
                 basis2: BasisFamily1D, quadrature: Quadrature = Quadrature()):
        if basis1.interval != domain.omega1 or basis2.interval != domain.omega2:
            raise ValueError("basis intervals must match the domain sides")
        self.domain = domain
        self.basis1 = basis1
        self.basis2 = basis2
        self.quadrature = quadrature
        self.dim = basis1.dim * basis2.dim

    def __repr__(self):
        return (f"GalerkinSpace({self.basis1!r} x {self.basis2!r}, "
                f"dim={self.dim})")

    def flat_index(self, i: int, j: int) -> int:
        if not (0 <= i < self.basis1.dim and 0 <= j < self.basis2.dim):
            raise IndexError(f"basis pair ({i}, {j}) out of range")
        return i * self.basis2.dim + j

    def unflatten(self, flat: int) -> tuple[int, int]:
        if not (0 <= flat < self.dim):
            raise IndexError(f"flat index {flat} out of range for dim {self.dim}")
        return divmod(flat, self.basis2.dim)

    @property
    def is_square(self) -> bool:
        """Whether both directions are the same family (kind, interval and
        size), so that they share one rule and its tables."""
        b1, b2 = self.basis1, self.basis2
        return (b1.kind, b1.interval, b1.m) == (b2.kind, b2.interval, b2.m)

    @cached_property
    def _rules(self):
        first = self._rule_of(self.basis1)
        return [first, first if self.is_square else self._rule_of(self.basis2)]

    def _rule_of(self, family: BasisFamily1D):
        pts, wts = family.quad_points(self.quadrature.order)
        rule = (pts, wts, *family.eval_table(pts))
        for a in rule:
            a.flags.writeable = False
        return rule

    def rule(self, direction: int):
        """``(points, weights, V, D)`` of one direction: its quadrature rule
        and the basis values and first derivatives at its points.  Built once
        per space, and once for both directions when they are the same
        family (kind, interval and size), so that ``rule(2)`` returns the
        arrays of ``rule(1)``; read-only."""
        return self._rules[0 if direction == 1 else 1]

    @property
    def grid_axes(self):
        """``(x1, x2)``: the point sets whose tensor product is the quadrature grid."""
        return self._rules[0][0], self._rules[1][0]

    def on_grid(self, coeffs, selector: int = 0) -> np.ndarray:
        """A discrete function (selector 0) or its partial in ``x1`` (1) or
        ``x2`` (2) on the quadrature grid, as a ``(len(x1), len(x2))`` array."""
        _, _, V1, D1 = self.rule(1)
        _, _, V2, D2 = self.rule(2)
        U = np.asarray(coeffs, dtype=float).reshape(self.basis1.dim, self.basis2.dim)
        return (D1 if selector == 1 else V1) @ U @ (D2 if selector == 2 else V2).T

    def integrate(self, values) -> float:
        """Quadrature integral of values given on the grid."""
        return float(self._rules[0][1] @ values @ self._rules[1][1])

    def load(self, values) -> np.ndarray:
        """``integral values * phi`` for every basis function ``phi``, from
        values on the grid; flat index order."""
        _, w1, V1, _ = self.rule(1)
        _, w2, V2, _ = self.rule(2)
        return (V1.T @ ((w1[:, None] * w2[None, :] * values) @ V2)).ravel()

    def eval_basis(self, flat: int, x1: float, x2: float):
        """Value and both partial derivatives of one basis function."""
        a1, b1 = self.domain.omega1
        a2, b2 = self.domain.omega2
        if not (a1 <= x1 <= b1 and a2 <= x2 <= b2):
            raise ValueError(f"point ({x1}, {x2}) lies outside the closed domain")
        i, j = self.unflatten(flat)
        V1, D1 = self.basis1.eval_table([x1])
        V2, D2 = self.basis2.eval_table([x2])
        value = V1[0, i] * V2[0, j]
        return value, D1[0, i] * V2[0, j], V1[0, i] * D2[0, j]

    def evaluate(self, coeffs, x1, x2):
        """Evaluate the function with given coefficients on a tensor grid."""
        c = np.asarray(coeffs, dtype=float).reshape(self.basis1.dim, self.basis2.dim)
        V1, _ = self.basis1.eval_table(np.atleast_1d(x1))
        V2, _ = self.basis2.eval_table(np.atleast_1d(x2))
        return V1 @ c @ V2.T

    def refine(self, factor: int = 2) -> "GalerkinSpace":
        """A strictly finer space of the same kinds (nested)."""
        return GalerkinSpace(self.domain, self.basis1.refined(factor),
                             self.basis2.refined(factor), self.quadrature)


def build_space(domain: TensorDomain, kind1: str, m1: int, kind2: str, m2: int,
                quad_order: int = 4) -> GalerkinSpace:
    """Construct a tensor Galerkin space from family kinds and sizes."""
    if m1 < 1 or m2 < 1:
        raise ValueError("family sizes must be positive")
    keys = [str(kind).lower() for kind in (kind1, kind2)]
    for name, key, kind in zip(("first", "second"), keys, (kind1, kind2)):
        if key not in _FAMILIES:
            raise ValueError(f"unknown basis kind {kind!r} for {name} direction")
    basis1, basis2 = (_FAMILIES[key](side, int(m)) for key, side, m in
                      zip(keys, (domain.omega1, domain.omega2), (m1, m2)))
    return GalerkinSpace(domain, basis1, basis2, Quadrature(quad_order))


def eval_basis(space: GalerkinSpace, flat_index: int, point):
    """Module-level convenience wrapper around :meth:`GalerkinSpace.eval_basis`."""
    x1, x2 = point
    return space.eval_basis(flat_index, x1, x2)


def _embedding_factors(coarse: GalerkinSpace, fine: GalerkinSpace):
    """The dense 1D embeddings ``(E1, E2)`` of both directions; the embedding
    of the tensor spaces is ``E1 (x) E2``.  Requires both directions to be
    nested."""
    if coarse.domain != fine.domain:
        raise ValueError("spaces live on different domains")
    return (coarse.basis1.embedding_into(fine.basis1),
            coarse.basis2.embedding_into(fine.basis2))


def embedding_map(coarse: GalerkinSpace, fine: GalerkinSpace):
    """``c -> E @ c`` for the ``E`` of :func:`embedding_matrix`, applied
    factored as ``(E1 C E2^T).ravel()`` with ``C`` the coarse coefficients on
    their ``(i, j)`` grid; no matrix of the tensor spaces is formed."""
    E1, E2 = _embedding_factors(coarse, fine)
    shape = (coarse.basis1.dim, coarse.basis2.dim)

    def embed(coeffs):
        return (E1 @ np.reshape(coeffs, shape) @ E2.T).ravel()
    return embed


def embedding_transpose_map(coarse: GalerkinSpace, fine: GalerkinSpace):
    """``y -> E^T @ y`` for the ``E`` of :func:`embedding_matrix`, applied
    factored as ``(E1^T Y E2).ravel()`` with ``Y`` the fine coefficients on
    their ``(i, j)`` grid."""
    E1, E2 = _embedding_factors(coarse, fine)
    shape = (fine.basis1.dim, fine.basis2.dim)

    def restrict(values):
        return (E1.T @ np.reshape(values, shape) @ E2).ravel()
    return restrict


def embedding_matrix(coarse: GalerkinSpace, fine: GalerkinSpace):
    """Sparse (CSR) matrix mapping coarse coefficients to fine coefficients.

    Requires both directions to be nested; the result ``E`` satisfies
    ``u_coarse(x) == (E @ c)`` interpreted in the fine space.
    """
    E1, E2 = _embedding_factors(coarse, fine)
    sp = sparse()
    return sp.kron(sp.csr_matrix(E1), sp.csr_matrix(E2), format="csr")
