"""The dense-propagator and ``splu`` routes of ``semigroup.evolve`` agree.

Every march takes one of two routes, chosen by ``_DENSE_STEP_RATIO``;
setting it to infinity forces the dense route and setting it to 0 forces
the ``splu`` route.  States, norms, study rows and contraction failures must
not depend on the route beyond round-off.  The flow studies take these
routes for a system that is not two-term (here ``A_offdiag_const``); a
two-term system (``A_identity``) is marched by ``evolve_diagonal``, with the
same schedule of marches.
"""

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from anisolab import semigroup
from anisolab.elliptic import LIMIT
from anisolab.semigroup import (ContractionError, DiscreteGenerator,
                                EvolutionConfig, build_generator, evolve,
                                parabolic_convergence,
                                semigroup_deviation_study)
from anisolab.spaces import build_space

REL = 1e-12
DENSE, SPLU = math.inf, 0.0


def route(monkeypatch, ratio, fn):
    """``(fn(), number of splu factorisations)`` with the route forced by ``ratio``."""
    calls = []
    real = semigroup.lu_solver

    def counting(A):
        calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(semigroup, "_DENSE_STEP_RATIO", ratio)
    monkeypatch.setattr(semigroup, "lu_solver", counting)
    return fn(), len(calls)


def assert_close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= REL * max(np.max(np.abs(b)), 1e-300)


def random_state(space, seed=7):
    return np.random.default_rng(seed).normal(size=space.dim)


CASES = {
    "be": dict(stepper="be"),
    "cn": dict(stepper="cn"),
    "yosida": dict(stepper="yosida", yosida_mu=4.0),
    "be-source": dict(stepper="be", source="load"),
    "sampled": dict(stepper="cn", sample_times=[1.0, 0.0, 0.25, 0.5]),
}


@pytest.mark.parametrize("space_name", ["sine8", "q1_8"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_routes_agree_on_evolve(monkeypatch, request, space_name, case,
                                A_offdiag_const):
    space = request.getfixturevalue(space_name)
    gen = build_generator(space, A_offdiag_const, 0.25)
    opts = dict(CASES[case])
    if opts.get("source") == "load":
        load = random_state(space, seed=3)
        opts["source"] = lambda t: math.exp(-t) * load
    cfg = EvolutionConfig(T=1.0, steps=64, **opts)
    g = random_state(space)
    dense, dense_lu = route(monkeypatch, DENSE, lambda: evolve(gen, g, cfg))
    splu, splu_lu = route(monkeypatch, SPLU, lambda: evolve(gen, g, cfg))
    assert (dense_lu, splu_lu) == (0, 1)
    assert np.array_equal(dense.times, splu.times)
    assert_close(dense.states, splu.states)
    assert_close(dense.step_norms, splu.step_norms)
    assert len(dense.step_norms) == cfg.steps + 1


@pytest.mark.parametrize("ratio", [DENSE, SPLU])
def test_sampled_trajectory_keeps_only_sampled_rows(monkeypatch, sine8,
                                                    A_offdiag_const, ratio):
    gen = build_generator(sine8, A_offdiag_const, 0.5)
    g = random_state(sine8)
    full_cfg = EvolutionConfig(T=1.0, steps=64)
    sampled_cfg = EvolutionConfig(T=1.0, steps=64,
                                  sample_times=[0.5, 0.0, 1.0, 0.25])
    full, _ = route(monkeypatch, ratio, lambda: evolve(gen, g, full_cfg))
    sampled, _ = route(monkeypatch, ratio, lambda: evolve(gen, g, sampled_cfg))
    assert sampled.states.shape == (4, sine8.dim)
    assert np.array_equal(sampled.times, [0.0, 0.25, 0.5, 1.0])
    assert np.array_equal(sampled.states, full.states[[0, 16, 32, 64]])
    assert np.array_equal(sampled.step_norms, full.step_norms)


def test_m_norms_match_single_state_norm(sine8, A_offdiag_const):
    gen = build_generator(sine8, A_offdiag_const, 0.5)
    states = np.random.default_rng(5).normal(size=(6, sine8.dim))
    got = semigroup._m_norms(gen.M, states)
    assert_close(got, [gen.m_norm(v) for v in states])


class TestContractionOnBothRoutes:
    def messages(self, monkeypatch, gen, g, cfg):
        out = []
        for ratio in (DENSE, SPLU):
            with pytest.raises(ContractionError) as err:
                route(monkeypatch, ratio, lambda: evolve(gen, g, cfg))
            out.append(str(err.value))
        return out

    def test_antidissipative_generator(self, monkeypatch, sine8):
        M = sp.identity(sine8.dim, format="csr")
        growing = DiscreteGenerator(M, (-0.5 * M).tocsr(), "limit")
        dense, splu = self.messages(monkeypatch, growing, np.eye(sine8.dim)[0],
                                    EvolutionConfig(T=0.5, steps=4))
        assert dense == splu
        assert "contraction violated at step 1:" in dense

    def test_first_violation_past_a_block_boundary(self, monkeypatch, sine8):
        # One growing mode of small amplitude: the M-norm falls first and
        # rises from a later step, which must be the step reported.
        n = sine8.dim
        k_diag = np.ones(n)
        k_diag[1] = -0.5
        gen = DiscreteGenerator(sp.identity(n, format="csr"),
                                sp.diags(k_diag).tocsr(), "limit")
        g = np.zeros(n)
        g[0], g[1] = 1.0, 1e-3
        cfg = EvolutionConfig(T=20.0, steps=200)
        tau = cfg.T / cfg.steps
        k = np.arange(cfg.steps + 1)
        norms = np.hypot((1.0 + tau) ** -k, g[1] * (1.0 - 0.5 * tau) ** -k)
        first = int(np.argmax(norms[1:] > norms[:-1] * (1.0 + 1e-12))) + 1
        assert first > 10
        # blocks of 7 states, so the violation is found in a later block
        monkeypatch.setattr(semigroup, "_NORM_BLOCK_ENTRIES", 7 * n)
        for message in self.messages(monkeypatch, gen, g, cfg):
            step, new, old = re.fullmatch(
                r"contraction violated at step (\d+): (\S+) > (\S+)",
                message).groups()
            assert int(step) == first
            assert_close([float(new), float(old)], [norms[first], norms[first - 1]])


def test_route_follows_stored_entries(monkeypatch, dom, sine8, q1_8,
                                      A_identity):
    q1_32 = build_space(dom, "q1", 32, "q1", 32)
    cfg = EvolutionConfig(T=0.1, steps=2)
    taken = {}
    for name, space in (("sine8", sine8), ("q1_8", q1_8), ("q1_32", q1_32)):
        gen = build_generator(space, A_identity, LIMIT)
        ratio = semigroup._DENSE_STEP_RATIO
        _, taken[name] = route(monkeypatch, ratio,
                               lambda: evolve(gen, random_state(space), cfg))
    assert taken == {"sine8": 0, "q1_8": 0, "q1_32": 1}


def multi_mode(space):
    g = np.zeros(space.dim)
    g[0], g[10] = 1.0, 0.5
    return g


def test_deviation_study_agrees_on_both_routes(monkeypatch, sine8,
                                               A_offdiag_const):
    def study():
        return semigroup_deviation_study(sine8, A_offdiag_const,
                                         [0.5, 0.25, 0.125], multi_mode(sine8),
                                         T=1.0, steps=32)

    dense, _ = route(monkeypatch, DENSE, study)
    splu, _ = route(monkeypatch, SPLU, study)
    assert [r.steps for r in dense.rows] == [r.steps for r in splu.rows]
    for a, b in zip(dense.rows, splu.rows):
        assert_close([a.deviation, a.deviation_2t, a.certified_error],
                     [b.deviation, b.deviation_2t, b.certified_error])
    assert_close(dense.slope, splu.slope)
    assert sorted(dense.traces) == sorted(splu.traces)
    for eps in dense.traces:
        assert np.array_equal(dense.traces[eps][0], splu.traces[eps][0])
        assert_close(dense.traces[eps][1], splu.traces[eps][1])


def test_parabolic_study_agrees_on_both_routes(monkeypatch, sine8,
                                               A_identity):
    g = multi_mode(sine8)
    load = random_state(sine8, seed=11)

    def study():
        return parabolic_convergence(
            sine8, A_identity, lambda e: (1.0 + e) * g, g, [0.5, 0.25, 0.125],
            T=1.0, steps=128, source_loads=lambda t: math.exp(-t) * load)

    dense, _ = route(monkeypatch, DENSE, study)
    splu, _ = route(monkeypatch, SPLU, study)
    for a, b in zip(dense.rows, splu.rows):
        assert a.epsilon == b.epsilon
        assert_close([a.initial_gap, a.sup_deviation],
                     [b.initial_gap, b.sup_deviation])


def test_coupled_parabolic_study_agrees_on_both_routes(monkeypatch, sine8,
                                                      A_offdiag_const):
    # the study above runs A_identity, which is marched on the diagonal
    g = multi_mode(sine8)
    load = random_state(sine8, seed=11)

    def study():
        return parabolic_convergence(
            sine8, A_offdiag_const, lambda e: (1.0 + e) * g, g, [0.5, 0.25, 0.125],
            T=1.0, steps=128, source_loads=lambda t: math.exp(-t) * load)

    (dense, dense_lu), (splu, splu_lu) = (route(monkeypatch, DENSE, study),
                                          route(monkeypatch, SPLU, study))
    assert (dense_lu, splu_lu) == (0, 4)
    for a, b in zip(dense.rows, splu.rows):
        assert a.epsilon == b.epsilon
        assert_close([a.initial_gap, a.sup_deviation],
                     [b.initial_gap, b.sup_deviation])


# (generator kind, step count) of every ``evolve`` call of the study below
# on A_identity, as recorded before the dense route existed: step doubling
# marches the shared limit flow once per round and drops each epsilon once
# certified.  The diagonal route marches the same schedule.
EVOLVE_CALLS = (
    [(kind, m) for m in (16, 32, 64, 128, 256)
     for kind in ("limit",) + ("perturbed",) * 4]
    + [("limit", 512), ("perturbed", 512)])
# the same study on A_offdiag_const, as recorded before the diagonal route
COUPLED_EVOLVE_CALLS = (
    [(kind, m) for m in (16, 32, 64, 128, 256)
     for kind in ("limit",) + ("perturbed",) * 4]
    + [("limit", 512), ("perturbed", 512), ("perturbed", 512)])


def deviation_study(space, A):
    return semigroup_deviation_study(space, A, [1.0, 0.5, 0.25, 0.125],
                                     multi_mode(space), T=2.0, steps=8)


def counting_marches(monkeypatch, name):
    """The ``(kind, steps)`` of every call of ``semigroup.<name>`` to come."""
    calls = []
    real = getattr(semigroup, name)

    def counting(gen, g0, cfg):
        calls.append((gen.kind, cfg.steps))
        return real(gen, g0, cfg)

    monkeypatch.setattr(semigroup, name, counting)
    return calls


@pytest.mark.parametrize("ratio", [DENSE, SPLU])
def test_deviation_study_marches_the_same_steps(monkeypatch, sine8,
                                                A_offdiag_const, ratio):
    calls = []
    real = semigroup.evolve

    def counting(gen, g0, cfg):
        calls.append((gen.kind, cfg.steps))
        return real(gen, g0, cfg)

    monkeypatch.setattr(semigroup, "evolve", counting)
    study, _ = route(monkeypatch, ratio, lambda: semigroup_deviation_study(
        sine8, A_offdiag_const, [1.0, 0.5, 0.25, 0.125], multi_mode(sine8),
        T=2.0, steps=8))
    assert calls == COUPLED_EVOLVE_CALLS
    assert [r.steps for r in study.rows] == [256, 128, 128, 256]


@pytest.mark.parametrize("ratio", [DENSE, SPLU])
def test_diagonal_study_marches_the_same_steps(monkeypatch, sine8, A_identity,
                                               ratio):
    calls = counting_marches(monkeypatch, "evolve_diagonal")
    stepped = counting_marches(monkeypatch, "evolve")
    study, lu = route(monkeypatch, ratio, lambda: deviation_study(sine8, A_identity))
    assert calls == EVOLVE_CALLS
    assert (stepped, lu) == ([], 0)
    assert [r.steps for r in study.rows] == [256, 128, 128, 128]


class TestNormMatrixFormedOnce:
    # The dense M of the M-norms is formed once per evolve call and once per
    # flow study, not once per block of states or per epsilon and march.
    def count(self, monkeypatch, fn):
        """``(fn(), dense M formed, evolve calls)`` on the dense route."""
        formed, marches = [], []
        real_form, real_evolve = semigroup._norm_matrix, semigroup.evolve

        def form(M):
            out = real_form(M)
            if out is not M:
                formed.append(M.shape)
            return out

        def evolve_counting(*args):
            marches.append(args[0].kind)
            return real_evolve(*args)

        monkeypatch.setattr(semigroup, "_norm_matrix", form)
        monkeypatch.setattr(semigroup, "evolve", evolve_counting)
        result, _ = route(monkeypatch, DENSE, fn)
        return result, len(formed), len(marches)

    def test_evolve_forms_it_once_for_all_blocks(self, monkeypatch, sine8,
                                                 A_offdiag_const):
        gen = build_generator(sine8, A_offdiag_const, 0.5)
        # four states per block: 17 blocks of norms for 64 steps
        monkeypatch.setattr(semigroup, "_NORM_BLOCK_ENTRIES", 4 * sine8.dim)
        cfg = EvolutionConfig(T=1.0, steps=64)
        traj, formed, marches = self.count(
            monkeypatch, lambda: semigroup.evolve(gen, random_state(sine8), cfg))
        assert (formed, marches) == (1, 1)
        assert_close(traj.step_norms, [gen.m_norm(v) for v in traj.states])

    @pytest.mark.parametrize("stepper,mu", [("be", None), ("yosida", 4.0)])
    def test_evolve_shares_it_with_its_dense_step(self, monkeypatch, sine8,
                                                  A_offdiag_const, stepper, mu):
        gen = build_generator(sine8, A_offdiag_const, 0.5)
        formed = []
        real = type(gen.M).toarray

        def toarray(self, *args, **kwargs):
            if self is gen.M:
                formed.append(self.shape)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(type(gen.M), "toarray", toarray)
        cfg = EvolutionConfig(T=1.0, steps=8, stepper=stepper, yosida_mu=mu)
        route(monkeypatch, DENSE, lambda: evolve(gen, random_state(sine8), cfg))
        assert len(formed) == 1

    def test_deviation_study_forms_it_once_per_march_and_once_for_itself(
            self, monkeypatch, sine8, A_offdiag_const):
        _, formed, marches = self.count(monkeypatch, lambda: semigroup_deviation_study(
            sine8, A_offdiag_const, [1.0, 0.5, 0.25, 0.125], multi_mode(sine8),
            T=2.0, steps=8))
        assert marches == len(COUPLED_EVOLVE_CALLS)
        assert formed == marches + 1

    def test_parabolic_study_forms_it_once_per_march_and_once_for_itself(
            self, monkeypatch, sine8, A_offdiag_const):
        g = multi_mode(sine8)
        _, formed, marches = self.count(monkeypatch, lambda: parabolic_convergence(
            sine8, A_offdiag_const, lambda e: (1.0 + e) * g, g, [0.5, 0.25, 0.125],
            T=1.0, steps=16))
        assert (formed, marches) == (5, 4)

    # a two-term system is marched on the diagonal: no dense M, no evolve
    def test_diagonal_deviation_study_forms_none(self, monkeypatch, sine8,
                                                 A_identity):
        diagonal = counting_marches(monkeypatch, "evolve_diagonal")
        _, formed, marches = self.count(
            monkeypatch, lambda: deviation_study(sine8, A_identity))
        assert (formed, marches) == (0, 0)
        assert diagonal == EVOLVE_CALLS

    def test_diagonal_parabolic_study_forms_none(self, monkeypatch, sine8,
                                                 A_identity):
        g = multi_mode(sine8)
        diagonal = counting_marches(monkeypatch, "evolve_diagonal")
        _, formed, marches = self.count(monkeypatch, lambda: parabolic_convergence(
            sine8, A_identity, lambda e: (1.0 + e) * g, g, [0.5, 0.25, 0.125],
            T=1.0, steps=16))
        assert (formed, marches) == (0, 0)
        assert diagonal == [("limit", 16)] + [("perturbed", 16)] * 3
