"""Error norms, convergence-rate studies, quasi-optimality checks, the
commuting-limits diagram, and the difference-quotient bound.

Unless a closed-form reference is supplied, rate studies compare the
perturbed Galerkin solution against the limit Galerkin solution on the same
space, so the discretization error largely cancels and the measured quantity
isolates the perturbation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# the ledger is computed as ``coefficients.compute_constants``, looked up on
# the module at each call, so that a replacement set there is the one called
from . import coefficients
from .assembly import (AssembledProblem, KronOperator, assemble_system,
                       energy_norm, fast_diagonal_inverse, norm_matrices,
                       pencil_eigenbasis, project)
from .coefficients import (ConstantLedger, HypothesisNotSatisfied, ReactionSpec,
                           grid_values, missing_hypotheses)
from .elliptic import (LIMIT, GalerkinSolution, ProblemSpec, galerkin_solve,
                       solve_linear, within_bound)
from .spaces import GalerkinSpace, embedding_map, embedding_transpose_map

__all__ = [
    "error_norms",
    "errors_vs_function",
    "fit_slope",
    "RateStudy",
    "rate_study",
    "CeaReport",
    "best_approximation",
    "cea_check",
    "APDiagramReport",
    "ap_diagram",
    "DQReport",
    "difference_quotient_bound",
    "LinearReactionStudy",
    "linear_reaction_rate_study",
    "grad1_functional",
]

SLOPE_FLOOR = 1e3 * np.finfo(float).eps  # errors below this are quadrature noise
# Least fitted slope of a deviation against epsilon that passes as first order.
RATE_SLOPE_MIN = 0.95
REFERENCE_REFINEMENT = 2  # the reference of cea_check and ap_diagram: the last space refined


def error_norms(u_a: GalerkinSolution, u_b: GalerkinSolution):
    """Seminorm/norm triple ``(e_x1, e_x2, e_l2)`` of the difference.

    Both solutions must live on the same space.
    """
    if u_a.space is not u_b.space:
        raise ValueError("solutions live on different spaces")
    M, G1, G2 = norm_matrices(u_a.space)
    d = u_a.coeffs - u_b.coeffs
    return energy_norm(G1, d), energy_norm(G2, d), energy_norm(M, d)


def errors_vs_function(space: GalerkinSpace, coeffs, u_fn, du1_fn, du2_fn):
    """Quadrature seminorm/norm triple of ``u_h - u`` for a closed-form ``u``.

    Needed when the reference does not belong to the space (manufactured
    solutions, counterexample studies).  The three functions are evaluated
    along the axes of the quadrature grid, so they must broadcast.
    """
    def quad_norm(selector, fn):
        diff = space.on_grid(coeffs, selector) - grid_values(fn, *space.grid_axes)
        return float(np.sqrt(max(space.integrate(diff ** 2), 0.0)))

    return quad_norm(1, du1_fn), quad_norm(2, du2_fn), quad_norm(0, u_fn)


def fit_slope(epsilons, errors) -> float:
    """Least-squares slope of log(error) against log(epsilon).

    Entries below ``SLOPE_FLOOR`` are excluded; returns nan with fewer than
    two distinct epsilons among the usable points, where no line is fixed.
    """
    eps = np.asarray(epsilons, dtype=float)
    err = np.asarray(errors, dtype=float)
    keep = err > SLOPE_FLOOR
    if len(set(eps[keep])) < 2:
        return float("nan")
    return float(np.polyfit(np.log(eps[keep]), np.log(err[keep]), 1)[0])


@dataclass
class RateStudy:
    epsilons: list
    e_x1: list
    e_x2: list
    e_l2: list
    slope: float
    bound: Optional[list] = None          # (C1 C3 ||d1 f|| + C2 ||f||) eps
    bound_galerkin: Optional[list] = None  # (C1 ||d1 u_V|| + C2 ||f||) eps
    bound_verdict: Optional[bool] = None
    refusal: Optional[str] = None

    @property
    def passed(self) -> bool:
        return bool(self.bound_verdict) and self.refusal is None


def rate_study(problem: ProblemSpec, space: GalerkinSpace,
               epsilons: Sequence[float], reference="limit",
               check_bound: bool = True, ledger=None,
               system: Optional[AssembledProblem] = None) -> RateStudy:
    """Errors against the limit solution for a decreasing epsilon family.

    ``reference`` is either ``"limit"`` (limit Galerkin solve on the same
    space) or an explicit coefficient vector.  When ``check_bound`` is set
    the rate bound is evaluated with ledger constants, provided the
    hypothesis flags hold; otherwise the verdict is refused with a reason.
    """
    if system is None:
        system = assemble_system(space, problem.coefficients, problem.source)
    if isinstance(reference, str) and reference == "limit":
        u_ref = solve_linear(problem.with_epsilon(LIMIT), space, system=system)
    else:
        u_ref = GalerkinSolution(space, np.asarray(reference, dtype=float), "limit")

    results = [error_norms(solve_linear(problem.with_epsilon(eps), space,
                                        system=system), u_ref)
               for eps in epsilons]
    e_x1 = [r[0] for r in results]
    e_x2 = [r[1] for r in results]
    e_l2 = [r[2] for r in results]
    slope = fit_slope(epsilons, e_x2)
    study = RateStudy(list(epsilons), e_x1, e_x2, e_l2, slope)

    if check_bound:
        missing = missing_hypotheses("rate", problem.coefficients,
                                     problem.source)
        if missing:
            study.refusal = "missing hypotheses: " + ", ".join(missing)
            return study
        if ledger is None:
            ledger = coefficients.compute_constants(
                problem.coefficients, problem.domain, problem.source,
                problem.reaction)
        norm_f = ledger.norm_f
        grad_f = problem.source.norm_grad_x1(problem.domain)
        const = (ledger.rate_const_grad * ledger.dq_const * grad_f
                 + ledger.rate_const_source * norm_f)
        grad_uv = energy_norm(system.G1, u_ref.coeffs)
        const_galerkin = (ledger.rate_const_grad * grad_uv
                          + ledger.rate_const_source * norm_f)
        study.bound = [const * e for e in epsilons]
        study.bound_galerkin = [const_galerkin * e for e in epsilons]
        study.bound_verdict = all(
            within_bound(e2, b) for e2, b in zip(e_x2, study.bound))
    return study


@dataclass
class CeaRow:
    dim: int
    galerkin_error: float
    best_error: float
    bound_constant: float
    bound_rhs: float

    @property
    def passed(self) -> bool:
        return within_bound(self.galerkin_error, self.bound_rhs)


@dataclass
class CeaReport:
    rows: list
    kind: str  # "limit-linear" | "perturbed-linear" | "limit-sqrt"
    ledger: Optional[ConstantLedger] = None  # constants the bounds used

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def best_approximation(G_ref, u_ref, coarse: GalerkinSpace,
                       fine: GalerkinSpace, gram_epsilon: Optional[float]):
    """``E c``, the ``G_ref``-orthogonal projection of ``u_ref`` onto the
    coarse space embedded in the fine one: ``E^T G_ref E c = E^T G_ref u_ref``.

    ``G_ref`` is the fine space's ``G2`` (``gram_epsilon`` LIMIT) or
    ``G1 + G2`` (``gram_epsilon`` 1).  For nested spaces ``E^T G_ref E`` is
    then the coarse space's own such matrix, the identity-coefficient
    operator of the key ``(gram_epsilon, 0)``, inverted by
    :func:`fast_diagonal_inverse` of the coarse 1D eigenbases; ``E`` and
    ``E^T`` are applied factored.
    """
    basis = pencil_eigenbasis(coarse, 1) + pencil_eigenbasis(coarse, 2)
    gram_inverse = fast_diagonal_inverse(basis, gram_epsilon, 0.0)
    restrict = embedding_transpose_map(coarse, fine)
    return embedding_map(coarse, fine)(gram_inverse(restrict(G_ref @ u_ref)))


def cea_check(spaces: Sequence[GalerkinSpace], problem: ProblemSpec,
              damping: float = 0.5,
              ledger: Optional[ConstantLedger] = None) -> CeaReport:
    """Galerkin error against best-approximation error on nested spaces.

    The reference solution lives on the last space refined once.  Linear
    problems are checked against the quotient constant; a custom reaction
    is checked against the square-root quasi-optimality bound.  The bounds
    read ``ledger``, computed here when not given.  The errors are taken in
    ``G2`` (limit kinds) or ``G1 + G2`` (perturbed) of the reference space,
    and the best approximation is :func:`best_approximation` in that norm.
    """
    reference_space = spaces[-1].refine(REFERENCE_REFINEMENT)
    ref_system = assemble_system(reference_space, problem.coefficients,
                                 problem.source)
    nonlinear = problem.reaction.kind == "custom"
    if nonlinear and not problem.is_limit:
        raise ValueError("square-root quasi-optimality check targets the "
                         "limit problem")
    u_ref = galerkin_solve(problem, reference_space, ref_system, damping)

    if ledger is None:
        ledger = coefficients.compute_constants(
            problem.coefficients, problem.domain, problem.source,
            problem.reaction)
    if nonlinear:
        kind = "limit-sqrt"
        G_ref, gram_epsilon = ref_system.G2, LIMIT
        constant = ledger.cea_limit
    elif problem.is_limit:
        kind = "limit-linear"
        G_ref, gram_epsilon = ref_system.G2, LIMIT
        constant = ledger.cea_limit_linear
    else:
        kind = "perturbed-linear"
        G_ref = KronOperator.combine([(1.0, ref_system.G1), (1.0, ref_system.G2)])
        gram_epsilon = 1.0
        constant = ledger.cea_perturbed_linear / problem.epsilon ** 2

    rows = []
    for space in spaces:
        embed = embedding_map(space, reference_space)
        u_v = galerkin_solve(problem, space, damping=damping)
        gal_err = energy_norm(G_ref, u_ref.coeffs - embed(u_v.coeffs))
        best = best_approximation(G_ref, u_ref.coeffs, space, reference_space,
                                  gram_epsilon)
        best_err = energy_norm(G_ref, u_ref.coeffs - best)
        rhs = constant * math.sqrt(best_err) if nonlinear else constant * best_err
        rows.append(CeaRow(space.dim, gal_err, best_err, constant, rhs))
    return CeaReport(rows, kind, ledger)


@dataclass
class APDiagramReport:
    epsilons: list
    sizes: list
    grid: np.ndarray        # grid[i, j] = error of (eps_i, space_j) vs reference
    row_trace: list         # fixed finest space, epsilon decreasing
    col_trace: list         # exact limit solves, space growing
    commutation_gap: float
    finest_error: float

    @property
    def row_monotone(self) -> bool:
        return all(within_bound(b, a)
                   for a, b in zip(self.row_trace, self.row_trace[1:]))

    @property
    def col_monotone(self) -> bool:
        return all(within_bound(b, a)
                   for a, b in zip(self.col_trace, self.col_trace[1:]))

    @property
    def gap_ok(self) -> bool:
        return self.commutation_gap <= 2.0 * self.finest_error + 1e-12


def ap_diagram(problem: ProblemSpec, epsilons: Sequence[float],
               spaces: Sequence[GalerkinSpace]) -> APDiagramReport:
    """Fill the (epsilon, space) error grid and both iterated-limit traces.

    One trace follows the finest space while epsilon decreases; the other
    follows the exact discrete limit solves while the space grows.  Both must
    reach the same corner, and their terminal disagreement is the
    commutation gap.  The reference is the limit solve on the finest space
    refined once.
    """
    missing = missing_hypotheses("ap", problem.coefficients)
    if missing:
        raise HypothesisNotSatisfied(missing)
    reference_space = spaces[-1].refine(REFERENCE_REFINEMENT)
    ref_system = assemble_system(reference_space, problem.coefficients,
                                 problem.source)
    u_ref = solve_linear(problem.with_epsilon(LIMIT), reference_space,
                         system=ref_system)
    G_ref = ref_system.G2

    def err_against_ref(embed, sol):
        return energy_norm(G_ref, u_ref.coeffs - embed(sol.coeffs))

    systems = [assemble_system(s, problem.coefficients, problem.source)
               for s in spaces]
    embeddings = [embedding_map(s, reference_space) for s in spaces]
    grid = np.zeros((len(epsilons), len(spaces)))
    for j, (space, system, embed) in enumerate(zip(spaces, systems, embeddings)):
        for i, eps in enumerate(epsilons):
            sol = solve_linear(problem.with_epsilon(eps), space, system=system)
            grid[i, j] = err_against_ref(embed, sol)
    col_trace = []
    for space, system, embed in zip(spaces, systems, embeddings):
        sol = solve_linear(problem.with_epsilon(LIMIT), space, system=system)
        col_trace.append(err_against_ref(embed, sol))
    row_trace = list(grid[:, -1])
    gap = abs(row_trace[-1] - col_trace[-1])
    finest = max(row_trace[-1], col_trace[-1])
    return APDiagramReport(list(epsilons),
                           [s.basis1.m for s in spaces],
                           grid, row_trace, col_trace, gap, finest)


@dataclass
class DQReport:
    lhs: float                 # ||d1 u_V||
    grad_f: float              # ||d1 f||
    rhs: float                 # dq_const * ||d1 f||
    rhs_statement: float       # dq_const_statement * ||d1 f||  (reported only)
    rhs_inspace: float         # dq_const * ||d1 P_V f||  (projection variant)
    ledger: Optional[ConstantLedger] = None  # constants the bound used

    @property
    def passed(self) -> bool:
        return within_bound(self.lhs, self.rhs)

    @property
    def statement_passed(self) -> bool:
        return within_bound(self.lhs, self.rhs_statement)


def difference_quotient_bound(problem: ProblemSpec,
                              space: GalerkinSpace) -> DQReport:
    """First-direction gradient of the limit solve against the shift bound.

    Requires an x2-only a22 and a square-integrable x1-gradient of the
    source.  Both candidate constants are reported; only the larger
    (the one derived by the shift argument) is asserted.
    """
    missing = missing_hypotheses("dq", problem.coefficients, problem.source)
    if missing:
        raise HypothesisNotSatisfied(missing)
    system = assemble_system(space, problem.coefficients, problem.source)
    sol = solve_linear(problem.with_epsilon(LIMIT), space, system=system)
    lhs = energy_norm(system.G1, sol.coeffs)
    grad_f = problem.source.norm_grad_x1(problem.domain)
    ledger = coefficients.compute_constants(
        problem.coefficients, problem.domain, problem.source, problem.reaction)
    f_proj = project(space, problem.source)
    grad_f_inspace = energy_norm(system.G1, f_proj)
    return DQReport(
        lhs=lhs,
        grad_f=grad_f,
        rhs=ledger.dq_const * grad_f,
        rhs_statement=ledger.dq_const_statement * grad_f,
        rhs_inspace=ledger.dq_const * grad_f_inspace,
        ledger=ledger,
    )


@dataclass
class LinearReactionStudy:
    mus: list
    studies: dict              # mu -> RateStudy (bound not checked per-mu)
    scaled: dict               # mu -> list of e_x2 * mu / eps
    mu_bounded: Optional[bool] = None      # scaled values do not grow with mu
    mu_shrink: Optional[bool] = None       # errors shrink at least like 1/mu
    refusal: Optional[str] = None

    @property
    def passed(self) -> bool:
        return bool(self.mu_bounded and self.mu_shrink) and self.refusal is None


def linear_reaction_rate_study(problem: ProblemSpec, space: GalerkinSpace,
                               epsilons: Sequence[float],
                               mus: Sequence[float] = (1.0, 10.0, 100.0)
                               ) -> LinearReactionStudy:
    """Rate study with a linear reaction, swept over the reaction slope.

    The explicit constants of the mu-scaled bound are not available, so the
    verdicts are structural: the scaled deviation ``e_x2 * mu / eps`` must
    not grow with mu (5 percent slack), and errors must shrink at least like
    1/mu between consecutive slopes (20 percent slack).
    """
    study = LinearReactionStudy(list(mus), {}, {})
    missing = missing_hypotheses("rate-linear-reaction", problem.coefficients,
                                 problem.source)
    if missing:
        study.refusal = "missing hypotheses: " + ", ".join(missing)
        return study
    system = assemble_system(space, problem.coefficients, problem.source)
    for mu in mus:
        p = problem.with_reaction(ReactionSpec.linear(mu))
        rs = rate_study(p, space, epsilons, check_bound=False, system=system)
        study.studies[mu] = rs
        study.scaled[mu] = [e * mu / eps for e, eps in zip(rs.e_x2, epsilons)]
    mus_sorted = sorted(mus)
    bounded = True
    shrink = True
    for lo, hi in zip(mus_sorted, mus_sorted[1:]):
        for k in range(len(epsilons)):
            if study.scaled[hi][k] > study.scaled[lo][k] * 1.05 + 1e-12:
                bounded = False
            ratio_bound = (lo / hi) * study.studies[lo].e_x2[k] * 1.2 + 1e-12
            if study.studies[hi].e_x2[k] > ratio_bound:
                shrink = False
    study.mu_bounded = bounded
    study.mu_shrink = shrink
    return study


def grad1_functional(space: GalerkinSpace, coeffs, phi):
    """Pairing of the first-direction gradient of a discrete function with a
    smooth test function, evaluated by quadrature."""
    return space.integrate(space.on_grid(coeffs, 1)
                           * grid_values(phi, *space.grid_axes))
