"""Galerkin solves of the perturbed problem, its reduced limit, and the
semilinear variants via damped Picard iteration.

:func:`galerkin_solve` is the one entry point for every reaction: it hands a
custom reaction to :func:`solve_semilinear` and a zero or linear one to
:func:`solve_linear`.

The perturbed linear system is ``(mu M + K_eps) u = F`` and the limit system
is ``(mu M + K22) u = F``: the key ``(epsilon, mu)``, with :data:`LIMIT`
(``None``) as the limit's epsilon, goes unchanged to
:meth:`AssembledProblem.operator` and its ``tensor_preconditioner``.  For a
custom monotone reaction the fixed point

    u  <-  solve(K u = F - B(u_prev)),     damped by theta in (0, 1],

each step solved by the same preconditioned CG as the linear problem, is
iterated until ``||K u + B(u) - F|| <= tol ||F||``, where ``B(u)`` is the
load vector of the reaction evaluated pointwise at quadrature nodes (no mass
lumping).  The damping schedule (halve theta on a residual increase, at most
six times) is a practical construction of this package, not a prescription
taken from the underlying theory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .assembly import AssembledProblem, KronOperator, assemble_system, energy_norm
from .coefficients import (CoefficientField, ConstantLedger, ReactionSpec, SourceField,
                           check_epsilon)
from .linsolve import NonConvergenceError, solve
from .reports import write_csv
from .spaces import GalerkinSpace, TensorDomain

__all__ = [
    "LIMIT",
    "ProblemSpec",
    "GalerkinSolution",
    "galerkin_solve",
    "solve_linear",
    "solve_semilinear",
    "apriori_check",
    "AprioriReport",
    "within_bound",
    "export_solution_csv",
]

GALERKIN_RESIDUAL_TOL = 1e-9
# the inner solve of a Picard step: CG to a relative residual of 1e-14
PICARD_REL_TOL = 1e-14


# epsilon of the reduced problem (formal epsilon -> 0)
LIMIT = None


@dataclass
class ProblemSpec:
    """One elliptic problem instance: domain, coefficients, source, reaction."""

    domain: TensorDomain
    coefficients: CoefficientField
    source: SourceField
    reaction: ReactionSpec = field(default_factory=ReactionSpec.zero)
    epsilon: Optional[float] = LIMIT

    def __post_init__(self):
        if self.epsilon is not LIMIT:
            self.epsilon = check_epsilon(self.epsilon)

    @property
    def is_limit(self) -> bool:
        return self.epsilon is LIMIT

    def with_epsilon(self, epsilon) -> "ProblemSpec":
        return replace(self, epsilon=epsilon)

    def with_reaction(self, reaction) -> "ProblemSpec":
        return replace(self, reaction=reaction)


@dataclass
class GalerkinSolution:
    space: GalerkinSpace
    coeffs: np.ndarray
    kind: str  # "perturbed" | "limit"
    epsilon: Optional[float] = None
    picard_iterations: int = 0
    final_residual: float = 0.0  # relative to ||F||
    residual_history: Optional[list] = None  # accepted Picard residuals

    def values(self, x1, x2):
        return self.space.evaluate(self.coeffs, x1, x2)


def _system_and_load(problem: ProblemSpec, space: GalerkinSpace,
                     system: Optional[AssembledProblem]):
    """The given system (else the problem's) and its load (else zero)."""
    if system is None:
        system = assemble_system(space, problem.coefficients, problem.source)
    F = system.F if system.F is not None else np.zeros(space.dim)
    return system, F


def _solution(problem: ProblemSpec, space: GalerkinSpace, coeffs, **extra):
    return GalerkinSolution(space, coeffs, "limit" if problem.is_limit else "perturbed",
                            problem.epsilon, **extra)


def galerkin_solve(problem: ProblemSpec, space: GalerkinSpace,
                   system: Optional[AssembledProblem] = None,
                   damping: float = 1.0) -> GalerkinSolution:
    """Damped Picard (:func:`solve_semilinear`) for a custom reaction, else
    preconditioned CG (:func:`solve_linear`)."""
    if problem.reaction.kind == "custom":
        return solve_semilinear(problem, space, damping=damping, system=system)
    return solve_linear(problem, space, system)


def solve_linear(problem: ProblemSpec, space: GalerkinSpace,
                 system: Optional[AssembledProblem] = None) -> GalerkinSolution:
    """Solve the linear problem (zero or linear reaction) on the space.

    CG is preconditioned by the inverse of the separable part of the
    operator of the same epsilon and reaction
    (:meth:`AssembledProblem.tensor_preconditioner`): the form of the
    pointwise matrix ``D = diag(a11, a22)`` when ``a11`` is of ``x1`` alone
    and ``a22`` of ``x2`` alone, else of ``D = I``.  If
    ``l xi^T D xi <= xi^T A xi <= L xi^T D xi`` at every point, the
    condition number is at most ``L / l``, independently of epsilon and the
    mesh size: 1 (one iteration) for a two-term system, and
    ``sup_matrix / lam`` for ``D = I`` without a reaction (a reaction ``mu``
    is inverted exactly, and for the diagonal ``D`` ``l <= 1 <= L``).
    """
    if problem.reaction.kind == "custom":
        raise ValueError("custom reactions require solve_semilinear")
    system, F = _system_and_load(problem, space, system)
    eps, mu = problem.epsilon, problem.reaction.mu
    result = solve(system.operator(eps, mu), F,
                   precond=system.tensor_preconditioner(eps, mu))
    norm_f = np.linalg.norm(F)
    rel = result.residual_norm / norm_f if norm_f else 0.0
    if rel > GALERKIN_RESIDUAL_TOL:
        raise NonConvergenceError(result.x, result.residual_norm, result.iterations)
    return _solution(problem, space, result.x, final_residual=rel)


def reaction_load(space: GalerkinSpace, reaction: ReactionSpec, coeffs):
    """Load vector of beta(u_h), with u_h evaluated at quadrature points."""
    return space.load(reaction.beta(space.on_grid(coeffs)))


def check_damping(damping: float):
    """A ValueError for a Picard damping factor outside (0, 1]."""
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")


def solve_semilinear(problem: ProblemSpec, space: GalerkinSpace,
                     damping: float = 1.0, tol: float = 1e-9,
                     max_picard: int = 200,
                     system: Optional[AssembledProblem] = None,
                     initial=None) -> GalerkinSolution:
    """Damped Picard iteration for a custom monotone Lipschitz reaction.

    Each step solves ``K u = F - B(u_prev)`` on the factored operator ``K``
    of the problem's epsilon by :func:`picard_step`, CG preconditioned by
    the inverse of its separable part (exact for a two-term system); no
    matrix of the space is formed, and residuals are mat-vecs of ``K``.  A
    nonsymmetric coupling takes the LU route of
    :func:`anisolab.linsolve.solve`.  The load and step of the accepted
    iterate are kept, so an iteration evaluates the reaction once and a
    halving does not solve again.  On non-convergence the hint names a
    larger damping when the residual never rose (no halving) and the
    damping is below 1, else a smaller one.
    """
    check_damping(damping)
    if problem.reaction.kind != "custom":
        raise ValueError("solve_semilinear expects a custom reaction")
    system, F = _system_and_load(problem, space, system)
    K = system.operator(problem.epsilon)
    precond = system.tensor_preconditioner(problem.epsilon)
    scale = np.linalg.norm(F) or 1.0
    u = np.zeros(space.dim) if initial is None else np.array(initial, dtype=float)
    load = reaction_load(space, problem.reaction, u)
    res = np.linalg.norm(K @ u + load - F)
    step = picard_step(K, F - load, precond)
    history = [res]
    theta = damping
    halvings = 0
    for it in range(1, max_picard + 1):
        u_new = (1.0 - theta) * u + theta * step
        load_new = reaction_load(space, problem.reaction, u_new)
        res_new = np.linalg.norm(K @ u_new + load_new - F)
        if res_new > res and halvings < 6:
            theta *= 0.5
            halvings += 1
            continue
        u, load, res = u_new, load_new, res_new
        history.append(res)
        if res <= tol * scale:
            return _solution(problem, space, u, picard_iterations=it,
                             final_residual=res / scale,
                             residual_history=history)
        step = picard_step(K, F - load, precond)
    # no halving: the residual never rose, so the damping is what stalls it
    larger = halvings == 0 and damping < 1.0
    raise NonConvergenceError(
        u, res, max_picard,
        hint=f"retry with a {'larger' if larger else 'smaller'} damping factor")


def picard_step(K, rhs, precond):
    """``K^{-1} rhs`` as a Picard step solves it: :func:`anisolab.linsolve.solve`
    to the relative tolerance :data:`PICARD_REL_TOL` with the preconditioner
    ``precond``."""
    return solve(K, rhs, rel_tol=PICARD_REL_TOL, precond=precond).x


def within_bound(lhs, rhs) -> bool:
    """``lhs <= rhs`` up to a relative slack of 1e-9 and an absolute 1e-12."""
    return lhs <= rhs * (1.0 + 1e-9) + 1e-12


@dataclass
class BoundCheck:
    name: str
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return within_bound(self.lhs, self.rhs)


@dataclass
class AprioriReport:
    checks: list
    norms: dict

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def apriori_check(sol: GalerkinSolution, ledger: ConstantLedger,
                  problem: ProblemSpec,
                  system: Optional[AssembledProblem] = None) -> AprioriReport:
    """Check the energy and reaction bounds of a converged solve.

    Perturbed solves are checked against the full-gradient and reaction
    bounds with the 1/eps^2 factors; limit solves against the second-direction
    bounds.  Both sides of every inequality are reported.
    """
    if system is None:
        system = assemble_system(sol.space, problem.coefficients, problem.source)
    u = sol.coeffs
    lam = ledger.lam
    norm_f = ledger.norm_f
    grad = energy_norm(KronOperator.combine([(1.0, system.G1), (1.0, system.G2)]), u)
    grad2 = energy_norm(system.G2, u)
    beta_vals = problem.reaction.beta(sol.space.on_grid(u))
    beta_norm = float(np.sqrt(max(sol.space.integrate(beta_vals ** 2), 0.0)))
    M = problem.reaction.growth

    checks = []
    if sol.kind == "perturbed":
        eps = sol.epsilon
        checks.append(BoundCheck(
            "full_gradient", grad,
            ledger.poincare_domain * norm_f / (lam * eps ** 2)))
        checks.append(BoundCheck(
            "reaction_norm", beta_norm,
            (M / eps ** 2) * (ledger.area_sqrt
                              + ledger.poincare_domain ** 2 * norm_f / lam)))
    else:
        checks.append(BoundCheck(
            "grad_x2", grad2,
            ledger.poincare_omega2 * norm_f / lam))
        checks.append(BoundCheck(
            "reaction_norm", beta_norm,
            M * (ledger.area_sqrt + ledger.poincare_omega2 ** 2 * norm_f / lam)))
    norms = {"grad": grad, "grad_x2": grad2, "reaction": beta_norm,
             "source": norm_f}
    return AprioriReport(checks, norms)


def export_solution_csv(sol: GalerkinSolution, path, n1: int = 65, n2: int = 65):
    """Write the solution on a uniform lattice as ``x1,x2,u`` rows."""
    d = sol.space.domain
    x1 = np.linspace(d.omega1[0], d.omega1[1], n1)
    x2 = np.linspace(d.omega2[0], d.omega2[1], n2)
    U = sol.values(x1, x2)
    write_csv(path, "grid", ((x1[i], x2[j], U[i, j])
                             for i in range(n1) for j in range(n2)))
