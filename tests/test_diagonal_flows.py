"""The diagonal route of the flow studies.

A two-term system (no coupling, ``a11`` of x1 and ``a22`` of x2 alone) is
marched in the eigenbasis of ``AssembledProblem.two_term_eigenbasis``, where
every step scales each coordinate.  The route must agree with the
``build_generator`` + ``evolve`` replay of the same study, build no CSR
generator, and leave every other system to ``evolve``; ``evolve_diagonal``
of ``diag(d)`` must be ``evolve`` of that generator.  In that basis the
exact flow is ``exp(-t d)``, an oracle that does not share the stepper's
bias: the certified stepper error must cover the distance of the
backward Euler deviation from the exact one.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from anisolab import semigroup
from anisolab.assembly import (AssembledProblem, KronOperator, _plain_factor,
                               assemble_system, pencil_eigenbasis, project)
from anisolab.coefficients import CoefficientField
from anisolab.expressions import parse_expression
from anisolab.semigroup import (ContractionError, DiagonalGenerator,
                                DiscreteGenerator, EvolutionConfig, evolve,
                                evolve_diagonal, parabolic_convergence,
                                semigroup_deviation_study)
from anisolab.spaces import build_space

REL = 1e-12
EPSILONS = [0.5, 0.25, 0.125]


def field(a11="1", a12="0", a21="0", a22="1", lam=0.7):
    return CoefficientField(*(parse_expression(a) for a in (a11, a12, a21, a22)),
                            lam=lam, offdiag_mixed_deriv_in_l2=True)


TWO_TERM = {
    "constant": field(),
    "variable": field(a11="1 + x1/10", a22="1 + x2*x2/10"),
}
NOT_TWO_TERM = {
    "a11-of-x2": field(a11="1 + x2/10"),
    "a22-of-x1": field(a22="1 + x1/10"),
    "coupling": field(a12="0.3", a21="0.3"),
    "nonseparable": field(a11="1 + exp(-(x1-x2)*(x1-x2))/10"),
}
STUDIES = {
    "be": dict(stepper="be"),
    "cn": dict(stepper="cn"),
    "yosida": dict(stepper="yosida", yosida_mu=4.0),
}


@pytest.fixture(scope="module")
def q1_12(dom):
    return build_space(dom, "q1", 12, "q1", 12)


@pytest.fixture(params=["sine8", "q1_12"])
def space(request):
    return request.getfixturevalue(request.param)


def initial_state(space):
    return project(space, lambda x1, x2: np.sin(x1) * np.sin(x2)
                   + 0.5 * np.sin(2 * x1) * np.sin(3 * x2))


def replayed(monkeypatch, fn):
    """``fn()`` with the diagonal route refused, so that the study takes
    ``build_generator`` and ``evolve``."""
    with monkeypatch.context() as m:
        m.setattr(AssembledProblem, "two_term_eigenbasis", property(lambda self: None))
        return fn()


def counting(monkeypatch, name):
    calls = []
    real = getattr(semigroup, name)

    def count(gen, v, cfg):
        calls.append(gen.kind)
        return real(gen, v, cfg)
    monkeypatch.setattr(semigroup, name, count)
    return calls


def assert_close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= REL * max(np.max(np.abs(b)), 1e-300)


def deviation_study(space, A, case, T=1.0, steps=8):
    return semigroup_deviation_study(space, A, EPSILONS, initial_state(space),
                                     T=T, steps=steps, **STUDIES[case])


def parabolic_study(space, A):
    g = initial_state(space)
    load = project(space, lambda x1, x2: x1 * np.sin(x2))

    return parabolic_convergence(space, A, lambda e: (1.0 + e) * g, g, EPSILONS,
                                 T=1.0, steps=32,
                                 source_loads=lambda t: math.exp(-t) * load)


@pytest.mark.parametrize("coef", sorted(TWO_TERM))
class TestRoutesAgree:
    @pytest.mark.parametrize("case", sorted(STUDIES))
    def test_deviation_study(self, monkeypatch, space, coef, case):
        A = TWO_TERM[coef]
        diagonal = counting(monkeypatch, "evolve_diagonal")
        got = deviation_study(space, A, case)
        assert diagonal
        want = replayed(monkeypatch, lambda: deviation_study(space, A, case))
        assert [r.steps for r in got.rows] == [r.steps for r in want.rows]
        for a, b in zip(got.rows, want.rows):
            assert a.epsilon == b.epsilon
            assert_close([a.deviation, a.deviation_2t], [b.deviation, b.deviation_2t])
            # a difference of close numbers: absolute below 1
            assert abs(a.certified_error - b.certified_error) <= REL * max(
                1.0, abs(b.certified_error))
            times, devs = got.traces[a.epsilon]
            assert np.array_equal(times, want.traces[a.epsilon][0])
            assert_close(devs, want.traces[a.epsilon][1])
        assert got.slope == pytest.approx(want.slope, rel=REL)

    def test_parabolic_study_with_source(self, monkeypatch, space, coef):
        A = TWO_TERM[coef]
        diagonal = counting(monkeypatch, "evolve_diagonal")
        got = parabolic_study(space, A)
        assert diagonal == ["limit"] + ["perturbed"] * len(EPSILONS)
        want = replayed(monkeypatch, lambda: parabolic_study(space, A))
        for a, b in zip(got.rows, want.rows):
            assert a.epsilon == b.epsilon
            assert_close([a.initial_gap, a.sup_deviation],
                         [b.initial_gap, b.sup_deviation])

    def test_builds_no_csr_generator(self, monkeypatch, space, coef):
        def refuse(self):
            raise AssertionError("the diagonal route built a CSR operator")
        monkeypatch.setattr(KronOperator, "tocsr", refuse)
        stepped = counting(monkeypatch, "evolve")
        deviation_study(space, TWO_TERM[coef], "be")
        parabolic_study(space, TWO_TERM[coef])
        assert stepped == []


@pytest.mark.parametrize("coef", sorted(NOT_TWO_TERM))
def test_other_systems_keep_evolve(monkeypatch, sine8, coef):
    A = NOT_TWO_TERM[coef]
    assert assemble_system(sine8, A).two_term_eigenbasis is None
    stepped = counting(monkeypatch, "evolve")
    diagonal = counting(monkeypatch, "evolve_diagonal")
    deviation_study(sine8, A, "be", steps=16)
    assert stepped and diagonal == []


def test_two_term_eigenbasis_diagonalises_the_operator(space):
    A = TWO_TERM["variable"]
    system = assemble_system(space, A)
    Q1, d1, Q2, d2 = system.two_term_eigenbasis
    Q = np.kron(Q1, Q2)
    M = system.M.toarray()
    assert_close(Q.T @ M @ Q, np.eye(space.dim))
    for eps in (1.0, 0.25):
        want = (eps ** 2 * d1[:, None] + d2[None, :]).ravel()
        assert_close(Q.T @ system.operator(eps).toarray() @ Q, np.diag(want))


def test_constant_coefficients_take_the_pencil_eigenbasis(space):
    system = assemble_system(space, field(a11="2"))
    Q1, d1, Q2, d2 = system.two_term_eigenbasis
    (P1, lam1), (P2, lam2) = pencil_eigenbasis(space, 1), pencil_eigenbasis(space, 2)
    assert Q1 is P1 and Q2 is P2
    assert np.array_equal(d1, 2.0 * lam1) and np.array_equal(d2, lam2)
    # the terms' factors are the per-space plain ones
    assert all(B2 is _plain_factor(space, 2, 0, 0) for *_, B2 in system.K11.terms)


class TestExactFlowOracle:
    """The exact flow against the backward Euler study.

    The exact flow is ``exp(-t d)`` in an eigenbasis of the generator, here
    taken apart from the route: with ``M = L L^T``, ``w = L^T u`` solves
    ``w' = -C w`` for ``C = L^{-1} K L^{-T}``, and the M-norm of ``u`` is the
    2-norm of ``w``."""

    T = 0.5

    def exact_flow(self, K, L, w0, ts):
        C = np.linalg.solve(L, np.linalg.solve(L, K).T)
        d, V = np.linalg.eigh(C)
        return (np.exp(-np.outer(ts, d)) * (V.T @ w0)) @ V.T

    def exact_sups(self, space, A, g, eps):
        """The exact sup of the M-norm deviation over [0, T] and [0, 2T]."""
        system = assemble_system(space, A)
        L = np.linalg.cholesky(system.M.toarray())
        w0 = L.T @ g
        ts = np.linspace(0.0, 2.0 * self.T, 4001)
        devs = np.linalg.norm(
            self.exact_flow(system.operator(eps).toarray(), L, w0, ts)
            - self.exact_flow(system.operator().toarray(), L, w0, ts), axis=1)
        return devs[: ts.size // 2 + 1].max(), devs.max()

    @pytest.mark.parametrize("coef", sorted(TWO_TERM))
    def test_certified_error_covers_the_stepper_error(self, space, coef):
        A = TWO_TERM[coef]
        g = initial_state(space)
        study = semigroup_deviation_study(space, A, EPSILONS, g, T=self.T, steps=8)
        for row in study.rows:
            exact_T, exact_2T = self.exact_sups(space, A, g, row.epsilon)
            assert abs(row.deviation - exact_T) <= 2.0 * row.certified_error
            # the exact sup grows over the doubled horizon, within the
            # bound the study judges by
            assert exact_T < exact_2T <= 2.2 * exact_T
        assert study.linear_in_horizon



def diagonal_pair(d):
    """``diag(d)`` as a generator of ``evolve`` and of ``evolve_diagonal``."""
    return (DiscreteGenerator(sp.identity(d.size, format="csr"),
                              sp.diags(d).tocsr(), "limit"),
            DiagonalGenerator(d, "limit"))


LOAD = np.linspace(-1.0, 1.0, 16)
EVOLVE_CASES = {
    "be": dict(stepper="be"),
    "cn": dict(stepper="cn"),
    "yosida": dict(stepper="yosida", yosida_mu=4.0),
    "be-source": dict(stepper="be", source=lambda t: math.exp(-t) * LOAD),
    "sampled": dict(stepper="cn", sample_times=[1.0, 0.0, 0.25, 0.5]),
    "zero-horizon": dict(stepper="be", T=0.0),
}


@pytest.mark.parametrize("case", sorted(EVOLVE_CASES))
def test_evolve_diagonal_is_evolve_of_a_diagonal_generator(case):
    stepped, diagonal = diagonal_pair(np.linspace(0.0, 30.0, 16))
    v = np.random.default_rng(2).normal(size=16)
    cfg = EvolutionConfig(**{"T": 1.0, "steps": 32, **EVOLVE_CASES[case]})
    want = evolve(stepped, v, cfg)
    got = evolve_diagonal(diagonal, v, cfg)
    assert np.array_equal(got.times, want.times)
    assert_close(got.states, want.states)
    assert_close(got.step_norms, want.step_norms)


def test_evolve_diagonal_reports_growth_at_the_step_evolve_does():
    # one growing mode of small amplitude: the norm falls first
    d = np.ones(8)
    d[1] = -0.5
    v = np.zeros(8)
    v[0], v[1] = 1.0, 1e-3
    cfg = EvolutionConfig(T=20.0, steps=200)
    steps = []
    for gen, march in zip(diagonal_pair(d), (evolve, evolve_diagonal)):
        with pytest.raises(ContractionError) as err:
            march(gen, v, cfg)
        steps.append(str(err.value).split(":")[0])
    assert steps[0] == steps[1] != "contraction violated at step 1"


def test_deviation_study_marches_the_limit_once_per_round(monkeypatch, sine8,
                                                         A_identity):
    """``A_identity`` takes the diagonal route: each doubling round marches
    the limit flow once through ``evolve_diagonal``, at that round's steps."""
    marches = []
    real = semigroup.evolve_diagonal

    def count(gen, v, cfg):
        marches.append((gen.kind, cfg.steps))
        return real(gen, v, cfg)

    monkeypatch.setattr(semigroup, "evolve_diagonal", count)
    g = np.zeros(sine8.dim)
    g[0] = 1.0
    study = semigroup_deviation_study(sine8, A_identity,
                                      [2.0 ** -k for k in range(1, 7)], g,
                                      T=1.0, steps=64)
    limit = [steps for kind, steps in marches if kind == "limit"]
    # round k marches [0, 2T] in 2 * 64 * 2^k steps
    rounds = [2 * 64 * 2 ** k for k in range(len(limit))]
    assert len(limit) >= 2
    assert len(set(limit)) == len(limit)
    assert limit == rounds
    assert sorted({steps for _, steps in marches}) == rounds
    assert rounds[-1] == 2 * max(row.steps for row in study.rows)
