"""Coefficient fields, reaction terms, sources, and the explicit constants.

The diffusion matrix is a 2x2 block field ``A = [[a11, a12], [a21, a22]]``
with a user-declared ellipticity constant ``lam``; the perturbation scales
the blocks by ``(eps^2, eps, eps, 1)``.  All bound constants used by the
diagnostics are assembled here from interval Poincare constants and sampled
sup-norms of the coefficients.  Each constant is declared once, on its
``ConstantLedger`` field: ``_constant`` gives its formula and whether it must
be strictly positive, and ``LEDGER_FORMULAS`` is read from the fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .expressions import Expression
from .spaces import TensorDomain, _composite_gauss

__all__ = [
    "ScalarField",
    "as_field",
    "grid_values",
    "CoefficientField",
    "ReactionSpec",
    "SourceField",
    "ConstantLedger",
    "compute_constants",
    "structure_faults",
    "integrate_on_domain",
    "HypothesisNotSatisfied",
    "REQUIRED_HYPOTHESES",
    "missing_hypotheses",
]


class HypothesisNotSatisfied(ValueError):
    """A requested bound verdict needs hypothesis flags that are not set."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__(
            "bound verdict refused; missing hypotheses: " + ", ".join(self.missing)
        )


# Hypothesis flags each study needs, in reporting order.  A flag names the
# attribute of that name on ``CoefficientField`` or ``SourceField``.
REQUIRED_HYPOTHESES = {
    "rate": ("offdiag_derivs_bounded", "a22_depends_only_on_x2",
             "grad_x1_in_l2", "slices_vanish_x1"),
    "rate-linear-reaction": ("offdiag_derivs_bounded", "a22_depends_only_on_x2",
                             "grad_x1_in_l2", "slices_vanish_x1",
                             "offdiag_mixed_deriv_in_l2"),
    "resolvent": ("offdiag_derivs_bounded", "a22_depends_only_on_x2",
                  "offdiag_mixed_deriv_in_l2", "grad_x1_in_l2",
                  "slices_vanish_x1"),
    "ap": ("offdiag_derivs_bounded",),
    "dq": ("a22_depends_only_on_x2", "grad_x1_in_l2"),
    "tensor-oracle": ("a22_depends_only_on_x2",),
}


def missing_hypotheses(study: str, A: "CoefficientField",
                       f: Optional["SourceField"] = None) -> list:
    """Flags of ``REQUIRED_HYPOTHESES[study]`` that ``A`` or ``f`` leaves unset."""
    return [flag for flag in REQUIRED_HYPOTHESES[study]
            if not getattr(A if hasattr(A, flag) else f, flag)]


class ScalarField:
    """Scalar function of ``(x1, x2)`` with optional declared partials.

    ``deps`` records which variables the value actually depends on, and
    ``products`` splits the field into products of one-variable factors;
    assembly keeps every such product factored.  ``fn`` must be elementwise
    and broadcast: tensor grids call it with the axis arrays ``x1[:, None]``
    and ``x2[None, :]``.  ``expression`` is the :class:`Expression` the field
    evaluates, if any.
    """

    def __init__(self, fn: Callable, deps, dx1: Optional["ScalarField"] = None,
                 dx2: Optional["ScalarField"] = None, label: str = "",
                 expression: Optional[Expression] = None):
        self._fn = fn
        self.deps = frozenset(deps)
        self.dx1 = dx1
        self.dx2 = dx2
        self.label = label
        self._expression = expression

    def __call__(self, x1, x2):
        out = self._fn(x1, x2)
        return np.broadcast_to(np.asarray(out, dtype=float),
                               np.broadcast_shapes(np.shape(x1), np.shape(x2), np.shape(out)))

    @property
    def is_constant(self) -> bool:
        return not self.deps

    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError(f"field {self.label or self._fn} is not constant")
        return float(np.asarray(self._fn(0.0, 0.0)))

    @cached_property
    def products(self):
        """The field as products ``(scale, g, h)`` of a field ``g`` of x1
        and a field ``h`` of x2, None standing for 1, whose sum is the field;
        None when it does not split so.  A constant or a field of one
        variable is one product of itself; a field of both variables splits
        when it was made from an :class:`Expression` that splits
        (:meth:`Expression.separable`), and a callable never does."""
        if not self.deps:
            return ((self.constant_value(), None, None),)
        if self.deps == {"x1"}:
            return ((1.0, self, None),)
        if self.deps == {"x2"}:
            return ((1.0, None, self),)
        split = None if self._expression is None else self._expression.separable()
        if split is None:
            return None
        return tuple((s, None if g is None else as_field(g),
                      None if h is None else as_field(h)) for s, g, h in split)

    def scaled(self, factor: float) -> "ScalarField":
        return ScalarField(lambda x1, x2, f=self._fn: factor * np.asarray(f(x1, x2), dtype=float),
                           self.deps, label=f"{factor}*{self.label}")

    def __repr__(self):
        return f"ScalarField({self.label or self._fn!r}, deps={sorted(self.deps)})"


def as_field(value, dx1=None, dx2=None, label="") -> ScalarField:
    """Coerce a constant, ``Expression``, callable, or field into a ScalarField.

    A callable is called with arrays that broadcast against each other, such
    as the axis arrays of a tensor grid (see :func:`grid_values`), and must
    broadcast likewise.
    """
    if isinstance(value, ScalarField):
        return value
    if isinstance(value, Expression):
        deps = value.variables & {"x1", "x2"}
        return ScalarField(lambda x1, x2: value(x1=x1, x2=x2), deps,
                           dx1=as_field(dx1) if dx1 is not None else None,
                           dx2=as_field(dx2) if dx2 is not None else None,
                           label=value.source, expression=value)
    if np.isscalar(value):
        v = float(value)
        return ScalarField(lambda x1, x2: np.full(np.broadcast_shapes(np.shape(x1), np.shape(x2)), v),
                           frozenset(), label=label or repr(v))
    if callable(value):
        # unknown dependence: assume both variables
        return ScalarField(value, {"x1", "x2"},
                           dx1=as_field(dx1) if dx1 is not None else None,
                           dx2=as_field(dx2) if dx2 is not None else None,
                           label=label)
    raise TypeError(f"cannot interpret {value!r} as a scalar field")


def grid_values(fn, x1, x2) -> np.ndarray:
    """``fn`` on the tensor grid of the 1D point sets ``x1`` and ``x2``.

    ``fn`` is called once with the axes ``x1[:, None]`` and ``x2[None, :]``,
    so a subexpression of one variable runs on that axis only; the result is
    a read-only ``(x1.size, x2.size)`` broadcast view.  For an elementwise
    ``fn`` every value equals the one at the same point of the ``meshgrid``
    evaluation.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    values = np.asarray(fn(x1[:, None], x2[None, :]), dtype=float)
    return np.broadcast_to(values, (x1.size, x2.size))


# points per side of the sample grid of CoefficientField.validate
VALIDATE_GRID = 33
# most sample points compute_constants evaluates at once (64 rows of its
# default 512-point grid): its buffers then stay a fixed size, and larger
# blocks save little time
LEDGER_BLOCK_POINTS = 2 ** 15


def _sample_axes(domain: TensorDomain, n: int):
    return (np.linspace(domain.omega1[0], domain.omega1[1], n),
            np.linspace(domain.omega2[0], domain.omega2[1], n))


def _interval_rule(interval):
    """Composite Gauss rule ``(points, weights)`` of :func:`integrate_on_domain`
    on one side: 64 equal cells of 4 points each."""
    a, b = interval
    return _composite_gauss(a, (b - a) / 64, 64, 4)


def integrate_on_domain(domain: TensorDomain, fn):
    """Composite Gauss integral of ``fn(x1, x2)`` over the rectangle.

    Independent of any Galerkin space quadrature; used for reference norms.
    ``fn`` is evaluated along the axes of the Gauss grid (see
    :func:`grid_values`), so it must broadcast its two arguments.
    """
    p1, w1 = _interval_rule(domain.omega1)
    p2, w2 = _interval_rule(domain.omega2)
    # a zero-stride view would take numpy's non-BLAS matmul loop, whose sums
    # round differently from the dense product
    return float(w1 @ np.ascontiguousarray(grid_values(fn, p1, p2)) @ w2)


def l2_norm_on_domain(domain: TensorDomain, fn):
    return math.sqrt(max(integrate_on_domain(domain, lambda a, b: np.asarray(fn(a, b)) ** 2),
                         0.0))


@dataclass
class CoefficientField:
    """The 2x2 coefficient block matrix together with its hypothesis flags."""

    a11: ScalarField
    a12: ScalarField
    a21: ScalarField
    a22: ScalarField
    lam: float
    a22_depends_only_on_x2: bool = True
    offdiag_derivs_bounded: bool = True
    offdiag_mixed_deriv_in_l2: bool = False

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("ellipticity constant must be positive")
        for name in ("a11", "a12", "a21", "a22"):
            setattr(self, name, as_field(getattr(self, name), label=name))

    @classmethod
    def identity(cls) -> "CoefficientField":
        return cls(1.0, 0.0, 0.0, 1.0, lam=1.0,
                   offdiag_mixed_deriv_in_l2=True)

    def entries(self):
        return (self.a11, self.a12, self.a21, self.a22)

    def validate(self, domain: TensorDomain):
        """Spot-check ellipticity, boundedness, and the a22 structure flag."""
        x1, x2 = _sample_axes(domain, VALIDATE_GRID)
        vals = [grid_values(a, x1, x2) for a in self.entries()]
        for name, v in zip(("a11", "a12", "a21", "a22"), vals):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"coefficient {name} is not finite on the domain")
        for _, message in structure_faults(vals, self.lam,
                                           self.a22_depends_only_on_x2):
            raise ValueError(message)
        return True


# the unit directions of the ellipticity check: the rows of numpy's
# ``default_rng(0).normal(size=(8, 2))``, each divided by its norm, written
# out so that a check does not import ``numpy.random``
PROBE_DIRECTIONS = (
    (0.6894137976242853, -0.7243677350940344),
    (0.9868491083539974, 0.1616441689047899),
    (-0.8288355951220819, 0.5594922307401815),
    (0.809114507928309, 0.5876510129829868),
    (-0.48602461027205623, -0.873945123111226),
    (-0.9978090697238524, 0.06615935592809416),
    (-0.9956015322215984, -0.093688788219327),
    (-0.8621220784405028, -0.5067006235100047),
)


def structure_faults(values, lam: float, a22_depends_only_on_x2: bool):
    """``(entry, message)`` for each failed structure check of the sampled
    coefficients ``values = (a11, a12, a21, a22)``: ellipticity against
    ``lam``, up to 1e-10, in the 8 fixed unit directions of
    :data:`PROBE_DIRECTIONS` (entry ``"lam"``), and the declared x2-only
    ``a22`` (entry ``"a22"``)."""
    a11, a12, a21, a22 = values
    for u, v in PROBE_DIRECTIONS:
        quad = a11 * u * u + (a12 + a21) * u * v + a22 * v * v
        if np.min(quad) < lam - 1e-10:
            yield "lam", (f"ellipticity check failed: min A xi.xi = "
                          f"{np.min(quad):.6g} < lam = {lam} for xi = "
                          f"({u:.3f}, {v:.3f})")
            break
    if a22_depends_only_on_x2:
        spread = np.max(np.abs(a22 - a22[:1, :]))
        if spread > 1e-12 * max(1.0, np.max(np.abs(a22))):
            yield "a22", f"a22 declared x2-only but varies with x1 (spread {spread:.3g})"


@dataclass
class ReactionSpec:
    """Reaction term: zero, linear with slope mu, or a custom monotone function."""

    kind: str  # "zero" | "linear" | "custom"
    mu: float = 0.0
    fn: Optional[Callable] = None
    lipschitz: float = 0.0
    growth: float = 0.0  # M with |beta(s)| <= M (1 + |s|)

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def linear(cls, mu: float):
        if mu <= 0:
            raise ValueError("linear reaction needs mu > 0")
        return cls("linear", mu=mu, lipschitz=mu, growth=mu)

    @classmethod
    def custom(cls, fn, lipschitz: float, growth: float):
        return cls("custom", fn=fn, lipschitz=lipschitz, growth=growth)

    @classmethod
    def arctan(cls):
        return cls.custom(np.arctan, lipschitz=1.0, growth=1.0)

    def beta(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(s)
        if self.kind == "linear":
            return self.mu * s
        return np.asarray(self.fn(s), dtype=float)

    def validate(self):
        tol = 1e-12
        s = np.linspace(-10.0, 10.0, 401)
        b = self.beta(s)
        b0 = float(self.beta(0.0))
        if abs(b0) > tol:
            raise ValueError(f"reaction must vanish at 0, got {b0:.3g}")
        if np.any(np.diff(b) < -tol):
            raise ValueError("reaction is not nondecreasing on the sample grid")
        if np.any(np.abs(b) > self.growth * (1.0 + np.abs(s)) + tol):
            raise ValueError("reaction violates the declared linear growth bound")
        return True


@dataclass
class SourceField:
    """Right-hand side with optional declared x1-partial and hypothesis flags."""

    f: ScalarField
    dx1: Optional[ScalarField] = None
    grad_x1_in_l2: bool = False
    slices_vanish_x1: bool = False  # every x2-slice vanishes at the x1 endpoints

    def __post_init__(self):
        self.f = as_field(self.f, label="f")
        if self.dx1 is not None:
            self.dx1 = as_field(self.dx1, label="f_dx1")
        elif "x1" not in self.f.deps:
            self.dx1 = as_field(0.0, label="f_dx1")

    def norm_l2(self, domain: TensorDomain) -> float:
        return l2_norm_on_domain(domain, self.f)

    def norm_grad_x1(self, domain: TensorDomain) -> float:
        if self.dx1 is None:
            raise HypothesisNotSatisfied(["source x1-partial (declare dx1)"])
        return l2_norm_on_domain(domain, self.dx1)


def check_epsilon(epsilon) -> float:
    """``epsilon`` as a float, if it lies in (0, 1] and the a-priori bounds,
    which divide by ``epsilon^2``, stay finite; else a ValueError."""
    eps = float(epsilon)
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"epsilon must lie in (0,1], got {eps!r}")
    if not math.isfinite((1.0 / eps) * (1.0 / eps)):
        raise ValueError(f"epsilon {eps!r} is out of range: "
                         "(1 / epsilon)^2 must be a finite number")
    return eps


def _constant(formula, positive=False):
    """A ledger entry: the formula ``compute_constants`` evaluates for it, and
    whether ``validate`` requires it strictly positive."""
    return field(metadata={"formula": formula, "positive": positive})


@dataclass
class ConstantLedger:
    """Every explicit constant entering the bounds, in one deterministic place."""

    poincare_omega1: float = _constant("L1 / pi", positive=True)
    poincare_omega2: float = _constant("L2 / pi", positive=True)
    poincare_domain: float = _constant(
        "(poincare_omega1^-2 + poincare_omega2^-2)^(-1/2)", positive=True)
    sup_a11: float = _constant("sup |a11| (grid sampled)")
    sup_a12: float = _constant("sup |a12| (grid sampled)")
    sup_a21: float = _constant("sup |a21| (grid sampled)")
    sup_a22: float = _constant("sup |a22| (grid sampled)")
    sup_matrix: float = _constant("sup of the pointwise spectral norm of A (grid sampled)")
    sup_da12_dx1: float = _constant("sup |d(a12)/dx1| (grid sampled, declared partial)")
    sup_da12_dx2: float = _constant("sup |d(a12)/dx2| (grid sampled, declared partial)")
    energy_const: float = _constant("(sup_a21^2 + sup_a11^2) / (2 lam)", positive=True)
    offdiag_const: float = _constant(
        "(3 (poincare_omega2 sup_da12_dx2)^2 + 3 sup_a12^2) / lam")
    offdiag_deriv_const: float = _constant("3 (poincare_omega2 sup_da12_dx1)^2 / lam")
    rate_const_grad: float = _constant("sqrt(4 (energy_const + offdiag_const) / lam)",
                                       positive=True)
    rate_const_source: float = _constant(
        "2 sqrt(offdiag_deriv_const) poincare_omega2 / lam^(3/2)")
    dq_const: float = _constant("poincare_omega2^2 / lam", positive=True)
    dq_const_statement: float = _constant("poincare_omega2 / lam", positive=True)
    cea_limit_linear: float = _constant("sup_a22 / lam", positive=True)
    cea_perturbed_linear: float = _constant("sup_matrix / lam (divide by eps^2 at use)",
                                            positive=True)
    cea_limit: float = _constant(
        "sqrt((2 M poincare_omega2 (area_sqrt + poincare_omega2^2 "
        "norm_f / lam) + 2 sup_a22 poincare_omega2 norm_f / lam) / lam)")
    cea_perturbed: float = _constant(
        "sqrt((2 M poincare_domain (area_sqrt + poincare_domain^2 "
        "norm_f / lam) + 2 sup_matrix poincare_domain norm_f / lam) "
        "/ lam) (divide by eps^2 at use)")
    area_sqrt: float = _constant("sqrt(L1 L2)", positive=True)
    norm_f: float = _constant("||f|| (composite Gauss)")
    growth_const: float = _constant("M with |beta(s)| <= M (1 + |s|)")
    lam: float
    sample_grid: int = 512

    def as_dict(self):
        return {name: getattr(self, name) for name in LEDGER_FORMULAS}

    def validate(self):
        for name in LEDGER_FORMULAS:
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"ledger entry {name} is not finite")
            if v < 0:
                raise ValueError(f"ledger entry {name} is negative")
        for f in fields(self):
            if f.metadata.get("positive") and getattr(self, f.name) <= 0:
                raise ValueError(f"ledger entry {f.name} must be strictly positive")
        return True


# ledger field name -> formula, in field order: the exact expressions
# evaluated by compute_constants
LEDGER_FORMULAS = {f.name: f.metadata["formula"]
                   for f in fields(ConstantLedger) if "formula" in f.metadata}


def _sup_abs(values) -> float:
    # max |v| without a temporary; abs only turns a -0.0 into 0.0
    return float(abs(max(values.max(), -values.min())))


def _axis_values(field: ScalarField, x1, x2) -> np.ndarray:
    """``field`` on the tensor grid of ``x1`` and ``x2``, kept on the axes
    its ``deps`` name: shape ``(1, 1)`` for a constant, ``(x1.size, 1)`` or
    ``(1, x2.size)`` for one variable.  Broadcast to the full grid it equals
    :func:`grid_values` value for value."""
    a1 = x1 if "x1" in field.deps else x1[:1]
    a2 = x2 if "x2" in field.deps else x2[:1]
    return np.asarray(field(a1[:, None], a2[None, :]), dtype=float)


def _block_maxima(fields, fixed, x1, x2) -> np.ndarray:
    """The sup-norm of each of ``fields``, whose first four are the entries
    of ``A``, on the tensor grid of ``x1`` and ``x2``, then the sup of the
    square of the pointwise spectral norm of ``A``.  ``fixed`` holds, in
    the place of each field that does not depend on ``x1``, its values on
    the first row, the same in every block; None elsewhere."""
    def values(i):
        return _axis_values(fields[i], x1, x2) if fixed[i] is None else fixed[i]

    sups = [_sup_abs(values(i)) for i in range(4, len(fields))]
    vals = [values(i) for i in range(4)]
    # pointwise spectral norm of a 2x2 matrix via its singular values:
    # sqrt(max((sq + sqrt(max(sq^2 - 4 det^2, 0))) / 2, 0)), in three buffers
    # of the broadcast shape; the outer sqrt is monotone, so it is taken
    # once, of the largest value
    # (an entry too large to square gives a non-finite sup_matrix, which
    # validate reports)
    shape = np.broadcast_shapes(*(v.shape for v in vals))
    sq, det, tmp = np.empty(shape), np.empty(shape), np.empty(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        np.square(vals[0], out=sq)
        for v in vals[1:]:
            sq += np.square(v, out=tmp)
        np.multiply(vals[0], vals[3], out=det)
        det -= np.multiply(vals[1], vals[2], out=tmp)
        np.square(det, out=det)
        det *= 4.0
        np.square(sq, out=tmp)
        tmp -= det
        np.sqrt(np.maximum(tmp, 0.0, out=tmp), out=tmp)
        tmp += sq
        tmp /= 2.0
        sup_sq = np.maximum(tmp, 0.0, out=tmp).max()
    return np.array([*map(_sup_abs, vals), *sups, sup_sq])


def compute_constants(A: CoefficientField, domain: TensorDomain,
                      f: Optional[SourceField] = None,
                      reaction: Optional[ReactionSpec] = None,
                      grid: int = 512) -> ConstantLedger:
    """Evaluate the full ledger by literal transcription of the formulas.

    Sup-norms are estimated on a ``grid x grid`` sample (including the
    boundary).  Each field is evaluated on the axes its ``deps`` name and
    the pointwise quantities are formed by broadcasting, so a constant costs
    one value.  A sample that broadcasts to the full grid is taken in
    blocks of rows of at most :data:`LEDGER_BLOCK_POINTS` points, each field
    of ``x1`` called once per block and every other field once; only the
    block maxima are kept, and their maximum is the sup over the whole
    grid, bit for bit.  Partials of a12 must be declared unless a12 is
    constant in the relevant variable.
    """
    lam = A.lam
    partials = []
    for which, var in (("dx1", "x1"), ("dx2", "x2")):
        declared = getattr(A.a12, which)
        if declared is None and var in A.a12.deps:
            raise ValueError(
                f"a12 depends on {var} but no {which} partial was declared")
        partials.append(as_field(0.0 if declared is None else declared))
    fields = (*A.entries(), *partials)
    x1, x2 = _sample_axes(domain, grid)
    full_grid = {"x1", "x2"} <= set().union(*(a.deps for a in fields))
    rows = max(1, LEDGER_BLOCK_POINTS // grid) if full_grid else grid
    fixed = [None if "x1" in a.deps else _axis_values(a, x1[:1], x2) for a in fields]
    # np.max propagates a NaN block maximum to validate, where max() may not
    maxima = np.max([_block_maxima(fields, fixed, x1[i:i + rows], x2)
                     for i in range(0, grid, rows)], axis=0)
    (sup_a11, sup_a12, sup_a21, sup_a22,
     sup_da12_dx1, sup_da12_dx2, sup_sq) = maxima.tolist()
    sup_matrix = math.sqrt(sup_sq)

    # squares by multiplication: a float ``** 2`` raises OverflowError where
    # the product is inf, which validate reports as a non-finite entry
    c2 = domain.poincare_omega2
    energy_const = (sup_a21 * sup_a21 + sup_a11 * sup_a11) / (2.0 * lam)
    c2_dx2 = c2 * sup_da12_dx2
    offdiag_const = (3.0 * (c2_dx2 * c2_dx2) + 3.0 * (sup_a12 * sup_a12)) / lam
    c2_dx1 = c2 * sup_da12_dx1
    offdiag_deriv_const = 3.0 * (c2_dx1 * c2_dx1) / lam
    rate_const_grad = math.sqrt(4.0 * (energy_const + offdiag_const) / lam)
    try:
        lam_15 = lam ** 1.5  # 0 for a lam below about 1e-216: the entry is then infinite
    except OverflowError:  # lam above about 1e205: lam <= sup_a11 squares to inf
        lam_15 = math.inf
    rate_const_source = (2.0 * math.sqrt(offdiag_deriv_const) * c2 / lam_15
                         if lam_15 else math.inf)
    dq_const = c2 * c2 / lam
    dq_const_statement = c2 / lam

    area_sqrt = math.sqrt(domain.area)
    norm_f = f.norm_l2(domain) if f is not None else 0.0
    M = reaction.growth if reaction is not None else 0.0

    cd = domain.poincare_domain
    cea_limit_sq = (2.0 * M * c2 * (area_sqrt + c2 * c2 * norm_f / lam)
                    + sup_a22 * 2.0 * c2 * norm_f / lam) / lam
    cea_pert_sq = (2.0 * M * cd * (area_sqrt + cd * cd * norm_f / lam)
                   + sup_matrix * 2.0 * cd * norm_f / lam) / lam

    ledger = ConstantLedger(
        poincare_omega1=domain.poincare_omega1,
        poincare_omega2=c2,
        poincare_domain=cd,
        sup_a11=sup_a11, sup_a12=sup_a12, sup_a21=sup_a21, sup_a22=sup_a22,
        sup_matrix=sup_matrix,
        sup_da12_dx1=sup_da12_dx1, sup_da12_dx2=sup_da12_dx2,
        energy_const=energy_const,
        offdiag_const=offdiag_const,
        offdiag_deriv_const=offdiag_deriv_const,
        rate_const_grad=rate_const_grad,
        rate_const_source=rate_const_source,
        dq_const=dq_const,
        dq_const_statement=dq_const_statement,
        cea_limit_linear=sup_a22 / lam,
        cea_perturbed_linear=sup_matrix / lam,
        cea_limit=math.sqrt(max(cea_limit_sq, 0.0)),
        cea_perturbed=math.sqrt(max(cea_pert_sq, 0.0)),
        area_sqrt=area_sqrt,
        norm_f=norm_f,
        growth_const=M,
        lam=lam,
        sample_grid=grid,
    )
    ledger.validate()
    return ledger
