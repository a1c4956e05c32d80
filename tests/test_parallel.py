import numpy as np

from anisolab.parallel import max_workers, parallel_map


def test_sequential_by_default(monkeypatch):
    monkeypatch.delenv("ANISO_THREADS", raising=False)
    assert max_workers() == 1


def test_bad_env_value_falls_back(monkeypatch):
    monkeypatch.setenv("ANISO_THREADS", "many")
    assert max_workers() == 1


def test_threaded_results_match_sequential_in_order(monkeypatch):
    items = list(range(24))

    def work(x):
        return np.sin(x) * x

    monkeypatch.delenv("ANISO_THREADS", raising=False)
    seq = parallel_map(work, items)
    monkeypatch.setenv("ANISO_THREADS", "4")
    par = parallel_map(work, items)
    assert seq == par


def test_threaded_study_is_deterministic(monkeypatch, dom, A_identity,
                                         f_mode11, sine8):
    from anisolab.coefficients import ReactionSpec
    from anisolab.diagnostics import rate_study
    from anisolab.elliptic import LIMIT, ProblemSpec

    prob = ProblemSpec(dom, A_identity, f_mode11, ReactionSpec.zero(), LIMIT)
    eps = [0.5, 0.25, 0.125, 0.0625]
    monkeypatch.delenv("ANISO_THREADS", raising=False)
    a = rate_study(prob, sine8, eps, check_bound=False)
    monkeypatch.setenv("ANISO_THREADS", "3")
    b = rate_study(prob, sine8, eps, check_bound=False)
    assert a.e_x2 == b.e_x2 and a.e_x1 == b.e_x1 and a.e_l2 == b.e_l2


def test_threaded_semigroup_study_marches_each_limit_once(monkeypatch, sine8,
                                                          A_identity):
    from anisolab import semigroup

    g = np.zeros(sine8.dim)
    g[0] = 1.0
    eps = [2.0 ** -k for k in range(1, 7)]
    limit_steps = []
    real_evolve = semigroup.evolve

    def counting_evolve(gen, g0, cfg, *args, **kwargs):
        if gen.kind == "limit":
            limit_steps.append(cfg.steps)
        return real_evolve(gen, g0, cfg, *args, **kwargs)

    monkeypatch.setattr(semigroup, "evolve", counting_evolve)
    monkeypatch.delenv("ANISO_THREADS", raising=False)
    seq = semigroup.semigroup_deviation_study(sine8, A_identity, eps, g,
                                              T=1.0, steps=64)
    assert len(limit_steps) == len(set(limit_steps))
    limit_steps.clear()
    monkeypatch.setenv("ANISO_THREADS", "6")
    par = semigroup.semigroup_deviation_study(sine8, A_identity, eps, g,
                                              T=1.0, steps=64)
    assert len(limit_steps) == len(set(limit_steps))
    assert par.rows == seq.rows
    for e in eps:
        assert np.array_equal(par.traces[e][1], seq.traces[e][1])
