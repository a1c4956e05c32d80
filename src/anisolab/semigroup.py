"""Discrete dissipative generators, resolvent solves, bounded-operator
approximation of the flow, contraction time stepping, and the deviation
studies between the perturbed and limit evolutions.

The resolvent deviation study is the rate study of the linear Galerkin
problem with reaction ``mu`` (:func:`anisolab.diagnostics.rate_study`).

The flow itself is never exponentiated: each march takes one backward
Euler, Crank-Nicolson or bounded-operator RK4 step (for
``u' = mu^2 R_mu u - mu u``) per time step.  :func:`evolve` builds the
linear map of that step once and applies it once per step, as a dense
propagator while the space is small next to the stored entries of the step's
system matrix, else through one sparse LU (``linsolve.lu_solver``).

The flow studies (:func:`semigroup_deviation_study`,
:func:`parabolic_convergence`) choose their route from the assembled system.
A two-term system (no coupling, ``a11`` of x1 and ``a22`` of x2 alone:
``AssembledProblem.two_term_eigenbasis``) is marched in its eigenbasis
``Q1 (x) Q2``, where the mass is the identity and every generator is the
diagonal ``eps^2 d1_i + d2_j``: a step multiplies each coordinate by the
stepper's scalar factor (:func:`evolve_diagonal`), and no CSR generator is
built.  Any other system is marched by :func:`evolve` on the generators of
:func:`build_generator`.  Deviation studies evolve both generators with the
same stepper and step count so the stepper bias cancels to first order, and
certify the remainder by step doubling, whose estimate is not a bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .assembly import (AssembledProblem, _matrix_1d, _project_1d,
                       _two_term_spectrum, assemble_system, energy_norm)
from .coefficients import (CoefficientField, HypothesisNotSatisfied, ReactionSpec,
                           SourceField, missing_hypotheses)
from .diagnostics import RATE_SLOPE_MIN, fit_slope, rate_study
from .elliptic import LIMIT, ProblemSpec, within_bound
from .linsolve import issparse, lu_solver, sparse
from .spaces import GalerkinSpace

if TYPE_CHECKING:
    import scipy.sparse as sp


__all__ = [
    "DiscreteGenerator",
    "build_generator",
    "EvolutionConfig",
    "Trajectory",
    "evolve",
    "DiagonalGenerator",
    "evolve_diagonal",
    "resolvent_apply",
    "ResolventDeviationStudy",
    "resolvent_deviation",
    "SemigroupDeviationStudy",
    "semigroup_deviation_study",
    "StepperAccuracyError",
    "ContractionError",
    "TensorOracleReport",
    "tensor_semigroup_oracle_check",
    "ParabolicReport",
    "parabolic_convergence",
]


class StepperAccuracyError(RuntimeError):
    """The stepper error cannot be made subdominant within the step budget."""

    def __init__(self, required_steps: int, budget: int):
        super().__init__(
            f"stepper error not subdominant within {budget} steps; "
            f"an estimated {required_steps} steps would be needed")
        self.required_steps = required_steps


class ContractionError(RuntimeError):
    """A step or resolvent solve grew the M-norm beyond round-off or made it not finite."""


@dataclass
class DiscreteGenerator:
    """Mass and stiffness pair representing a maximal dissipative operator."""

    M: sp.csr_matrix
    K: sp.csr_matrix
    kind: str  # "perturbed" | "limit"

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    def m_norm(self, v) -> float:
        return energy_norm(self.M, v)


def build_generator(space: GalerkinSpace, A: CoefficientField, epsilon,
                    system: Optional[AssembledProblem] = None) -> DiscreteGenerator:
    """Generator of the perturbed flow (finite epsilon) or the limit flow (LIMIT)."""
    if system is None:
        system = assemble_system(space, A)
    return DiscreteGenerator(system.M.tocsr(), system.operator(epsilon).tocsr(),
                             "limit" if epsilon is LIMIT else "perturbed")


_CONTRACTION_SLACK = {"be": 1e-12, "cn": 1e-10, "yosida": 1e-10}
STEPPERS = tuple(_CONTRACTION_SLACK)


def evolution_faults(cfg):
    """``(setting, message)`` for each march setting of ``cfg`` at fault; a
    time-dependent ``source`` is a fault of the stepper unless it is ``be``."""
    if cfg.T < 0:
        yield "T", "final time must be nonnegative"
    if cfg.T > 0 and cfg.steps < 1:
        yield "steps", "positive horizon needs at least one step"
    if cfg.stepper not in STEPPERS:
        yield "stepper", f"unknown stepper {cfg.stepper!r}"
    if cfg.stepper == "yosida" and (cfg.yosida_mu is None or cfg.yosida_mu <= 0):
        yield "yosida_mu", "the bounded-operator stepper needs yosida_mu > 0"
    if cfg.source is not None and cfg.stepper != "be":
        yield "stepper", ("time-dependent sources are supported by the "
                          "backward Euler stepper only")


@dataclass
class EvolutionConfig:
    T: float
    stepper: str = "be"  # a word of STEPPERS
    steps: int = 256
    yosida_mu: Optional[float] = None
    sample_times: Optional[Sequence[float]] = None  # default: all step times
    source: Optional[Callable] = None  # t -> load vector (backward Euler only)

    def __post_init__(self):
        for _, message in evolution_faults(self):
            raise ValueError(message)


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), dim)
    step_norms: np.ndarray  # M-norm after every step (contraction record)


# A march applies a dense propagator while n^2 <= _DENSE_STEP_RATIO * nnz(A),
# A the step's system matrix; above that it back-solves through splu.
# tools/step_crossover.py measures the crossover.
_DENSE_STEP_RATIO = 40.0
# Entries of the block of states whose M-norms are taken at once.
_NORM_BLOCK_ENTRIES = 1 << 18


def _norm_matrix(M):
    """The sparse ``M`` as :func:`_m_norms` multiplies by it: dense while
    ``n^2 <= _DENSE_STEP_RATIO * nnz(M)``.  Form it once per sweep of norms."""
    if issparse(M) and M.shape[0] ** 2 <= _DENSE_STEP_RATIO * M.nnz:
        return M.toarray()
    return M


def _m_norms(M, states) -> np.ndarray:
    """M-norm of every row of ``states``; ``M`` is sparse or from :func:`_norm_matrix`."""
    M = _norm_matrix(M)
    return np.sqrt(np.maximum(
        np.einsum("ki,ki->k", states, (M @ states.T).T), 0.0))


def _sample_indices(cfg: EvolutionConfig, tau: float):
    if cfg.sample_times is None:
        return np.arange(cfg.steps + 1)
    idx = sorted({int(round(t / tau)) for t in cfg.sample_times})
    for i in idx:
        if not (0 <= i <= cfg.steps):
            raise ValueError("sample time outside [0, T]")
    return np.asarray(idx, dtype=int)


def _rk4(L, u, tau: float):
    """One classical RK4 step of ``u' = L u``."""
    k1 = L(u)
    k2 = L(u + 0.5 * tau * k1)
    k3 = L(u + 0.5 * tau * k2)
    k4 = L(u + tau * k3)
    return u + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_map(gen: DiscreteGenerator, cfg: EvolutionConfig, tau: float, M):
    """``step(u, k)``: the state after step ``k + 1`` from the state ``u``
    before it.

    With ``A`` the system matrix of the step and ``B`` its right-hand side
    operator, the step applies ``A^{-1} B`` (composed into RK4 for the
    bounded-operator route), plus ``tau A^{-1} F`` for a backward Euler
    source.  Only how these are applied depends on the size: as dense
    matrices formed once, or by ``lu_solver`` back-solves and sparse products.
    ``M`` is ``gen.M`` as :func:`_norm_matrix` gives it; a dense one serves
    as the dense ``B = M`` of backward Euler and RK4.
    """
    mu = cfg.yosida_mu
    if cfg.stepper == "be":
        A, B = gen.M + tau * gen.K, gen.M
    elif cfg.stepper == "cn":
        A, B = gen.M + 0.5 * tau * gen.K, gen.M - 0.5 * tau * gen.K
    else:
        A, B = mu * gen.M + gen.K, gen.M
    A = sparse().csc_matrix(A)
    n = A.shape[0]
    if n * n <= _DENSE_STEP_RATIO * A.nnz:
        A = A.toarray()
        dense_M = B is gen.M and not issparse(M)
        P = np.linalg.solve(A, M if dense_M else B.toarray())
        if cfg.stepper == "yosida":
            L = mu * mu * P - mu * np.eye(n)
            P = _rk4(L.__matmul__, np.eye(n), tau)
        apply = P.dot
        solve = np.linalg.inv(A).dot if cfg.source is not None else None
    else:
        solve = lu_solver(A)
        B = B.tocsr()

        def apply(u):
            return solve(B @ u)
        if cfg.stepper == "yosida":
            resolve = apply

            def apply(u):
                return _rk4(lambda v: mu * mu * resolve(v) - mu * v, u, tau)
    if cfg.source is None:
        return lambda u, k: apply(u)

    def step(u, k):
        load = np.asarray(cfg.source((k + 1) * tau), dtype=float)
        return apply(u) + solve(tau * load)
    return step


def evolve(gen: DiscreteGenerator, g, cfg: EvolutionConfig) -> Trajectory:
    """March the contraction flow from initial state ``g``.

    Backward Euler solves ``(M + tau K) u+ = M u (+ tau F)``; Crank-Nicolson
    solves ``(M + tau K / 2) u+ = (M - tau K / 2) u``; the bounded-operator
    route applies classical RK4 to ``u' = mu^2 R_mu u - mu u``.  The step's
    linear map is built once per call: a dense propagator, one mat-vec per
    step, while ``n^2 <= _DENSE_STEP_RATIO * nnz`` of the step's system
    matrix, and one sparse LU factorisation with a back-solve per step (four
    for RK4) above it.  The M-norms are taken blockwise after the steps of
    each block (:func:`_m_norms`), and :class:`ContractionError` names the
    first step that grew the norm.  Only the sampled states are kept.
    """
    u = np.array(g, dtype=float)
    if cfg.T == 0:
        return Trajectory(np.array([0.0]), u[None, :].copy(), np.array([gen.m_norm(u)]))
    tau = cfg.T / cfg.steps
    sample = _sample_indices(cfg, tau)
    M = _norm_matrix(gen.M)
    step = _step_map(gen, cfg, tau, M)
    states = np.empty((len(sample), u.size))
    norms = np.empty(cfg.steps + 1)
    rows = max(1, min(cfg.steps + 1, _NORM_BLOCK_ENTRIES // u.size))
    block = np.empty((rows, u.size))
    block[0] = u
    for first in range(0, cfg.steps + 1, rows):
        last = min(first + rows, cfg.steps + 1)  # block holds states first..last-1
        for k in range(max(first, 1), last):
            u = block[k - first] = step(u, k - 1)
        norms[first:last] = _m_norms(M, block[: last - first])
        if cfg.source is None:
            _check_contraction(norms[:last], max(first, 1), cfg.stepper)
        a, b = np.searchsorted(sample, [first, last])
        states[a:b] = block[sample[a:b] - first]
    return Trajectory(sample * tau, states, norms)


def _check_contraction(norms, first: int, stepper: str):
    """:class:`ContractionError` naming the first step of ``norms`` (one per
    step from step 0) from ``first - 1`` on whose norm is not finite, or from
    ``first`` on whose norm grew beyond the stepper's round-off slack."""
    fault = ~np.isfinite(norms[first - 1:])
    fault[1:] |= norms[first:] > norms[first - 1:-1] * (1.0 + _CONTRACTION_SLACK[stepper])
    if fault.any():
        k = first - 1 + int(np.argmax(fault))
        if not np.isfinite(norms[k]):
            raise ContractionError(f"norm is not finite at step {k}: {norms[k]}")
        raise ContractionError(
            f"contraction violated at step {k}: "
            f"{norms[k]:.16e} > {norms[k - 1]:.16e}")


@dataclass
class DiagonalGenerator:
    """A generator in the eigenbasis of a two-term system, where the mass is
    the identity and the stiffness is ``diag(d)``."""

    d: np.ndarray
    kind: str  # "perturbed" | "limit"


def _step_factor(d, cfg: EvolutionConfig, tau: float):
    """The scalar by which one step of ``cfg.stepper`` multiplies each
    coordinate of a state of the generator ``diag(d)``."""
    if cfg.stepper == "be":
        return 1.0 / (1.0 + tau * d)
    if cfg.stepper == "cn":
        return (1.0 - 0.5 * tau * d) / (1.0 + 0.5 * tau * d)
    mu = cfg.yosida_mu
    L = mu * mu / (mu + d) - mu
    return _rk4(lambda v: L * v, np.ones_like(d), tau)


def evolve_diagonal(gen: DiagonalGenerator, v, cfg: EvolutionConfig) -> Trajectory:
    """:func:`evolve` of ``diag(gen.d)`` from the coordinates ``v``.

    Each step multiplies the state by the stepper's factor ``r``
    (:func:`_step_factor`), so without a source the states are one
    ``np.cumprod`` over the steps, the same sequential product the steps
    would give; the backward Euler source adds ``tau F`` before each scaling,
    ``F`` in the coordinates of the loads.  The mass is the identity, so the
    norms are 2-norms, checked for contraction as :func:`evolve` does.
    """
    v = np.array(v, dtype=float)
    if cfg.T == 0:
        return Trajectory(np.array([0.0]), v[None, :], np.array([np.linalg.norm(v)]))
    tau = cfg.T / cfg.steps
    sample = _sample_indices(cfg, tau)
    r = _step_factor(gen.d, cfg, tau)
    states = np.empty((cfg.steps + 1, v.size))
    states[0] = v
    if cfg.source is None:
        states[1:] = r
        np.cumprod(states, axis=0, out=states)
    else:
        for k in range(cfg.steps):
            states[k + 1] = r * (states[k] + tau * cfg.source((k + 1) * tau))
    with np.errstate(over="ignore"):  # an overflow is reported as a norm not finite
        norms = np.linalg.norm(states, axis=1)
    if cfg.source is None:
        _check_contraction(norms, 1, cfg.stepper)
    return Trajectory(sample * tau, states[sample], norms)


class _GeneratorFlows:
    """The flows of any system: :func:`evolve` of the generators of
    :func:`build_generator`, on coefficient vectors, with M-norms."""

    def __init__(self, space: GalerkinSpace, A: CoefficientField,
                 system: AssembledProblem):
        self._args = (space, A)
        self._system = system
        self.limit = build_generator(space, A, LIMIT, system)
        self._M = _norm_matrix(self.limit.M)

    def generator(self, epsilon: float) -> DiscreteGenerator:
        return build_generator(*self._args, epsilon, self._system)

    @staticmethod
    def march(gen, v, cfg: EvolutionConfig) -> Trajectory:
        return evolve(gen, v, cfg)

    @staticmethod
    def state(u):
        return u

    load = state

    def norms(self, states) -> np.ndarray:
        return _m_norms(self._M, states)

    def norm(self, v) -> float:
        return self.limit.m_norm(v)


class _DiagonalFlows:
    """The flows of a two-term system, marched by :func:`evolve_diagonal` in
    its eigenbasis ``Q = Q1 (x) Q2``: a coefficient vector ``u`` enters as
    ``Q^T M u`` and a load ``F`` as ``Q^T F``, and, since ``Q^T M Q = I``,
    M-norms are 2-norms of the coordinates."""

    def __init__(self, system: AssembledProblem):
        self._M = system.M
        self._Q1, self._d1, self._Q2, self._d2 = system.two_term_eigenbasis
        self.limit = self.generator(LIMIT)

    def generator(self, epsilon: Optional[float]) -> DiagonalGenerator:
        return DiagonalGenerator(_two_term_spectrum(self._d1, self._d2, epsilon, 0.0).ravel(),
                                 "limit" if epsilon is LIMIT else "perturbed")

    @staticmethod
    def march(gen, v, cfg: EvolutionConfig) -> Trajectory:
        return evolve_diagonal(gen, v, cfg)

    def state(self, u):
        return self.load(self._M @ u)

    def load(self, F):
        F = np.asarray(F, dtype=float).reshape(self._d1.size, self._d2.size)
        return (self._Q1.T @ F @ self._Q2).ravel()

    @staticmethod
    def norms(states) -> np.ndarray:
        return np.linalg.norm(states, axis=1)

    @staticmethod
    def norm(v) -> float:
        return float(np.linalg.norm(v))


def _flows(space: GalerkinSpace, A: CoefficientField, system: AssembledProblem):
    """The route of a flow study, chosen from the assembled system."""
    if system.two_term_eigenbasis is None:
        return _GeneratorFlows(space, A, system)
    return _DiagonalFlows(system)


def check_resolvent_mu(mu: float):
    """A ValueError for a resolvent parameter that is not positive."""
    if mu <= 0:
        raise ValueError("resolvent parameter must be positive")


def resolvent_apply(gen: DiscreteGenerator, mu: float, f) -> np.ndarray:
    """Solve ``(mu M + K) u = M f`` and assert the 1/mu contraction."""
    check_resolvent_mu(mu)
    f = np.asarray(f, dtype=float)
    u = lu_solver(mu * gen.M + gen.K)(gen.M @ f)
    nf = gen.m_norm(f)
    nu = gen.m_norm(u)
    if nu > nf / mu * (1.0 + 1e-10) + 1e-14:
        raise ContractionError(
            f"resolvent contraction violated: ||u|| = {nu:.16e} > "
            f"||f||/mu = {nf / mu:.16e}")
    return u


@dataclass
class ResolventDeviationStudy:
    epsilons: list
    deviations: list
    slope: float
    refusal: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.refusal is None and self.slope >= RATE_SLOPE_MIN


def resolvent_deviation(space: GalerkinSpace, A: CoefficientField,
                        epsilons: Sequence[float], mu: float,
                        f: SourceField) -> ResolventDeviationStudy:
    """M-norm distance between the perturbed and limit resolvents applied to
    f: the L2 errors of the rate study of the linear reaction ``mu``."""
    check_resolvent_mu(mu)
    missing = missing_hypotheses("resolvent", A, f)
    if missing:
        return ResolventDeviationStudy(list(epsilons), [], float("nan"),
                                       refusal="missing hypotheses: "
                                       + ", ".join(missing))
    problem = ProblemSpec(space.domain, A, f, ReactionSpec.linear(mu))
    deviations = rate_study(problem, space, epsilons, check_bound=False).e_l2
    return ResolventDeviationStudy(list(epsilons), deviations,
                                   fit_slope(epsilons, deviations))


@dataclass
class DeviationRow:
    epsilon: float
    deviation: float        # sup over [0, T]
    deviation_2t: float     # sup over [0, 2T]
    steps: int
    # step-doubling estimate |sup_m - sup_{m/2}| of the stepper error of the
    # deviation, not a bound: on the exact backward Euler flows of
    # tests/test_diagonal_flows.py it reads 1.4-3.4% below the true error
    certified_error: float


@dataclass
class SemigroupDeviationStudy:
    rows: list
    T: float
    slope: float
    traces: dict  # epsilon -> (times, deviations)

    @property
    def linear_in_horizon(self) -> bool:
        return all(r.deviation_2t <= 2.2 * r.deviation + 1e-14 for r in self.rows)

    @property
    def certified(self) -> bool:
        return all(r.certified_error <= 0.01 * r.deviation + 1e-16 for r in self.rows)

    @property
    def passed(self) -> bool:
        return self.slope >= RATE_SLOPE_MIN and self.linear_in_horizon and self.certified


def semigroup_deviation_study(space: GalerkinSpace, A: CoefficientField,
                              epsilons: Sequence[float], g, T: float,
                              stepper: str = "be", steps: int = 256,
                              yosida_mu: Optional[float] = None,
                              rel_step_tol: float = 0.01,
                              max_steps: int = 1 << 15) -> SemigroupDeviationStudy:
    """Sup-in-time deviation between perturbed and limit flows per epsilon.

    A two-term system is marched on the diagonal of its eigenbasis, any
    other through :func:`build_generator` and :func:`evolve`.  The step
    count is doubled until the step-doubling estimate of the deviation error
    drops below ``rel_step_tol`` of the deviation itself; the final estimate
    is recorded as the certified error.  That estimate is
    ``|sup_m - sup_{m/2}|``, the change of the deviation over the last
    doubling, not a bound on the stepper error: on exact backward Euler
    flows it reads a few percent below the true error.
    """
    flows = _flows(space, A, assemble_system(space, A))
    g = flows.state(np.asarray(g, dtype=float))
    gen0 = flows.limit
    epsilons = list(epsilons)
    gens = [flows.generator(eps) for eps in epsilons]
    found = {}   # index -> (row, trace)
    prev = {}    # index -> deviation at the previous step count
    active = list(range(len(epsilons)))
    m = steps
    while active:
        # Each march covers [0, 2T] so the horizon-doubling diagnostic reuses
        # it, and every epsilon still doubling compares against the same
        # limit march.  A trajectory is dropped once its deviations are taken.
        cfg = EvolutionConfig(T=2.0 * T, stepper=stepper, steps=2 * m,
                              yosida_mu=yosida_mu)
        traj_0 = flows.march(gen0, g, cfg)
        devs_of = [flows.norms(flows.march(gens[i], g, cfg).states - traj_0.states)
                   for i in active]
        still = []
        for i, devs in zip(active, devs_of):
            sup_T = float(devs[: m + 1].max())
            sup_2T = float(devs.max())
            if i in prev:
                err = abs(sup_T - prev[i])
                if err <= rel_step_tol * max(sup_T, 1e-300):
                    found[i] = (DeviationRow(epsilons[i], sup_T, sup_2T, m, err),
                                (traj_0.times, devs))
                    continue
            if 2 * m > max_steps:
                if i not in prev:
                    required = 4 * m
                else:
                    shrink = err / max(rel_step_tol * sup_T, 1e-300)
                    required = int(m * 2 ** math.ceil(math.log2(max(shrink, 2.0))))
                raise StepperAccuracyError(required, max_steps)
            prev[i] = sup_T
            still.append(i)
        active = still
        m *= 2

    results = [found[i] for i in range(len(epsilons))]
    rows = [row for row, _ in results]
    traces = {row.epsilon: tr for row, tr in results}
    slope = fit_slope(epsilons, [r.deviation for r in rows])
    return SemigroupDeviationStudy(rows, T, slope, traces)


@dataclass
class TensorOracleReport:
    max_diff: float
    tol: float
    factor_1d: float  # contraction factor of the 1D evolution, for reference

    @property
    def passed(self) -> bool:
        return self.max_diff <= self.tol


def tensor_semigroup_oracle_check(space: GalerkinSpace, A: CoefficientField,
                                  g1, g2, s: float, mu: float) -> TensorOracleReport:
    """Bounded-operator flow of a tensor initial state versus the factored flow.

    Evolves ``g1 (x) g2`` with the 2D limit generator in 64 steps, and
    independently ``g2`` with the 1D second-direction generator; the 2D state
    must equal ``g1 (x) (evolved g2)`` to 1e-8.  Requires an x2-only a22.
    """
    missing = missing_hypotheses("tensor-oracle", A)
    if missing:
        raise HypothesisNotSatisfied(missing)
    c1 = g1 if isinstance(g1, np.ndarray) else _project_1d(space, 1, g1)
    c2 = g2 if isinstance(g2, np.ndarray) else _project_1d(space, 2, g2)

    gen2d = build_generator(space, A, LIMIT)
    mid1 = 0.5 * (space.domain.omega1[0] + space.domain.omega1[1])
    a22 = A.a22(mid1, space.grid_axes[1])
    csr_matrix = sparse().csr_matrix
    gen1d = DiscreteGenerator(csr_matrix(_matrix_1d(space, 2, 0, 0)),
                              csr_matrix(_matrix_1d(space, 2, 2, 2, a22)), "limit")

    cfg2 = EvolutionConfig(T=s, stepper="yosida", steps=64, yosida_mu=mu)
    u2d = evolve(gen2d, np.outer(c1, c2).ravel(), cfg2).states[-1]
    v1d = evolve(gen1d, c2, cfg2).states[-1]
    expected = np.outer(c1, v1d).ravel()
    max_diff = float(np.max(np.abs(u2d - expected)))
    base = float(np.linalg.norm(c2))
    factor = float(np.linalg.norm(v1d)) / base if base else 0.0
    return TensorOracleReport(max_diff, 1e-8, factor)


@dataclass
class ParabolicRow:
    epsilon: float
    initial_gap: float
    sup_deviation: float


@dataclass
class ParabolicReport:
    rows: list
    tol: float

    @property
    def monotone(self) -> bool:
        devs = [r.sup_deviation for r in self.rows]
        return all(within_bound(b, a) for a, b in zip(devs, devs[1:]))

    @property
    def final_below_tol(self) -> bool:
        return self.rows[-1].sup_deviation <= self.tol

    @property
    def passed(self) -> bool:
        return self.monotone and self.final_below_tol


def parabolic_convergence(space: GalerkinSpace, A: CoefficientField,
                          u0_of_eps: Callable, u0_limit, epsilons,
                          T: float, stepper: str = "be", steps: int = 256,
                          source_loads: Optional[Callable] = None,
                          tol: float = 1e-2) -> ParabolicReport:
    """Evolution deviation with epsilon-dependent data and optional source.

    ``u0_of_eps`` maps epsilon to an initial coefficient vector; the same
    source (if any) drives both evolutions through the backward Euler
    inhomogeneous form.  ``source_loads`` is called once per step time, and
    the limit march and every epsilon share its loads.  Epsilons must be
    given in decreasing order.  The route is that of
    :func:`semigroup_deviation_study`.
    """
    flows = _flows(space, A, assemble_system(space, A))
    source = None
    if source_loads is not None:
        source = functools.lru_cache(maxsize=None)(
            lambda t: flows.load(source_loads(t)))
    v0_limit = flows.state(np.asarray(u0_limit, dtype=float))
    cfg = EvolutionConfig(T=T, stepper=stepper, steps=steps, source=source)
    traj0 = flows.march(flows.limit, v0_limit, cfg)
    rows = []
    for eps in epsilons:
        v0 = flows.state(np.asarray(u0_of_eps(eps), dtype=float))
        gap = flows.norm(v0 - v0_limit)
        traj = flows.march(flows.generator(eps), v0, cfg)
        sup = float(flows.norms(traj.states - traj0.states).max())
        rows.append(ParabolicRow(eps, gap, sup))
    return ParabolicReport(rows, tol)
