import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from anisolab.coefficients import CoefficientField
from anisolab.elliptic import LIMIT
from anisolab.semigroup import (ContractionError, DiscreteGenerator,
                                EvolutionConfig, StepperAccuracyError,
                                build_generator, evolve,
                                parabolic_convergence, resolvent_apply,
                                resolvent_deviation, semigroup_deviation_study,
                                tensor_semigroup_oracle_check)
from anisolab.semigroup import _m_norms

PI = math.pi
NORM = 2.0 / PI


def first_mode(space, value=1.0):
    g = np.zeros(space.dim)
    g[0] = value
    return g


@pytest.fixture(scope="module")
def gen0(sine8, A_identity):
    return build_generator(sine8, A_identity, LIMIT)


class TestResolvent:
    def test_eigenmode_value(self, sine8, gen0):
        # a22 = 1, second mode in the second direction: eigenvalue 4, mu = 3
        f = np.zeros(sine8.dim)
        f[sine8.flat_index(0, 1)] = 1.0
        u = resolvent_apply(gen0, 3.0, f)
        assert np.max(np.abs(u - f / 7.0)) < 1e-10

    def test_large_mu_recovers_identity(self, sine8, gen0):
        f = first_mode(sine8)
        gaps = []
        for mu in (1e3, 1e6):
            u = resolvent_apply(gen0, mu, f)
            gaps.append(gen0.m_norm(mu * u - f))
        # second resolvent error shrinks like 1/mu
        assert gaps[1] <= gaps[0] * 1e-3 * 1.1
        assert gaps[0] == pytest.approx(1.0 / (1e3 + 1.0), rel=1e-6)

    def test_zero_input(self, sine8, gen0):
        assert np.all(resolvent_apply(gen0, 2.0, np.zeros(sine8.dim)) == 0.0)

    def test_contraction_for_random_inputs(self, sine8, A_offdiag_const):
        gen = build_generator(sine8, A_offdiag_const, 0.5)
        rng = np.random.default_rng(11)
        for mu in (0.1, 1.0, 10.0):
            for _ in range(5):
                f = rng.normal(size=sine8.dim)
                u = resolvent_apply(gen, mu, f)
                assert gen.m_norm(u) <= gen.m_norm(f) / mu * (1 + 1e-10)

    def test_nonpositive_mu_rejected(self, gen0, sine8):
        with pytest.raises(ValueError, match="positive"):
            resolvent_apply(gen0, 0.0, first_mode(sine8))

    def test_dissipativity(self, sine8, A_offdiag_variable):
        # K is positive semidefinite: every eigenvalue of the pencil (K, M)
        for eps in (LIMIT, 0.5):
            gen = build_generator(sine8, A_offdiag_variable, eps)
            eig = scipy.linalg.eigh(gen.K.toarray(), gen.M.toarray(), eigvals_only=True)
            assert eig.min() >= -1e-12 * np.abs(eig).max()


class TestEvolve:
    def test_backward_euler_eigenmode_recurrence(self, sine8, gen0):
        traj = evolve(gen0, first_mode(sine8),
                      EvolutionConfig(T=1.0, stepper="be", steps=10))
        assert traj.states[-1][0] == pytest.approx(1.1 ** -10, abs=1e-13)

    def test_backward_euler_first_order(self, sine8, gen0):
        exact = math.exp(-1.0)
        errs = []
        for m in (64, 128, 256):
            traj = evolve(gen0, first_mode(sine8),
                          EvolutionConfig(T=1.0, stepper="be", steps=m))
            errs.append(abs(traj.states[-1][0] - exact))
        for a, b in zip(errs, errs[1:]):
            assert a / b == pytest.approx(2.0, abs=0.2)

    def test_crank_nicolson_second_order(self, sine8, gen0):
        exact = math.exp(-1.0)
        errs = []
        for m in (16, 32, 64):
            traj = evolve(gen0, first_mode(sine8),
                          EvolutionConfig(T=1.0, stepper="cn", steps=m))
            errs.append(abs(traj.states[-1][0] - exact))
        for a, b in zip(errs, errs[1:]):
            assert a / b == pytest.approx(4.0, abs=0.5)

    def test_bounded_operator_flow_eigenvalue(self, sine8, gen0):
        # flow rate of the bounded approximation: mu k^2 / (mu + k^2) = 1/2
        traj = evolve(gen0, first_mode(sine8),
                      EvolutionConfig(T=1.0, stepper="yosida", steps=64,
                                      yosida_mu=1.0))
        rate = -math.log(traj.states[-1][0])
        assert rate == pytest.approx(0.5, abs=1e-8)

    def test_bounded_operator_flow_approaches_true_flow(self, sine8, gen0):
        exact = math.exp(-1.0)
        errs = []
        for mu in (1e2, 1e3):
            traj = evolve(gen0, first_mode(sine8),
                          EvolutionConfig(T=1.0, stepper="yosida", steps=256,
                                          yosida_mu=mu))
            errs.append(abs(traj.states[-1][0] - exact))
        assert errs[0] / errs[1] == pytest.approx(10.0, abs=2.0)

    def test_zero_horizon_returns_initial_state(self, sine8, gen0):
        g = first_mode(sine8, 0.7)
        traj = evolve(gen0, g, EvolutionConfig(T=0.0, stepper="be", steps=5))
        assert np.array_equal(traj.states[0], g)

    def test_zero_steps_with_positive_horizon_rejected(self):
        with pytest.raises(ValueError, match="step"):
            EvolutionConfig(T=1.0, steps=0)

    def test_contraction_record(self, sine8, A_offdiag_const):
        gen = build_generator(sine8, A_offdiag_const, 0.5)
        rng = np.random.default_rng(3)
        g = rng.normal(size=sine8.dim)
        for stepper, mu in (("be", None), ("cn", None), ("yosida", 2.0)):
            traj = evolve(gen, g, EvolutionConfig(T=1.0, stepper=stepper,
                                                  steps=32, yosida_mu=mu))
            assert traj.step_norms[-1] <= traj.step_norms[0] * (1 + 1e-10)
            diffs = np.diff(traj.step_norms)
            assert np.all(diffs <= 1e-10 * traj.step_norms[0])

    def test_sample_times_snap_to_grid(self, sine8, gen0):
        cfg = EvolutionConfig(T=1.0, stepper="be", steps=10,
                              sample_times=[0.0, 0.5, 1.0])
        traj = evolve(gen0, first_mode(sine8), cfg)
        assert np.allclose(traj.times, [0.0, 0.5, 1.0])
        assert traj.states.shape == (3, sine8.dim)


class TestResolventDeviation:
    def test_identity_closed_form(self, sine8, A_identity, f_mode11):
        from anisolab.diagnostics import fit_slope
        eps = [1.0, 0.5, 0.25, 0.125]
        exact = [e * e / (2.0 * (2.0 + e * e)) for e in eps]
        study = resolvent_deviation(sine8, A_identity, eps, 1.0, f_mode11)
        for d, x in zip(study.deviations, exact):
            assert d == pytest.approx(x, abs=1e-12)
        assert study.deviations[0] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert study.slope == pytest.approx(fit_slope(eps, exact), abs=1e-6)
        assert study.passed  # quadratic closed form clears the 0.95 floor

    def test_zero_source(self, sine8, A_identity):
        from conftest import mode_source
        study = resolvent_deviation(sine8, A_identity, [0.5, 0.25], 1.0,
                                    mode_source(1, 1, 0.0))
        assert all(d == 0.0 for d in study.deviations)

    def test_refusal_without_flags(self, sine8, dom):
        from anisolab.coefficients import SourceField, as_field
        A = CoefficientField(1.0, 0.0, 0.0, 1.0, lam=1.0,
                             offdiag_mixed_deriv_in_l2=False)
        f = SourceField(as_field(lambda a, b: np.sin(a) * np.sin(b)))
        study = resolvent_deviation(sine8, A, [0.5], 1.0, f)
        assert study.refusal is not None
        assert "offdiag_mixed_deriv_in_l2" in study.refusal


class TestResolventThroughGalerkinSolve:
    # the deviation study solves each resolvent with solve_linear, so it
    # builds no CSR operator; the reference solves the materialised one
    @pytest.mark.parametrize("space_name", ["sine8", "q1_8"])
    @pytest.mark.parametrize("coef_name,rel", [("A_identity", 1e-13),
                                               ("A_offdiag_const", 1e-9)])
    def test_matches_the_sparse_direct_solve(self, request, monkeypatch,
                                             f_mode11, space_name, coef_name,
                                             rel):
        import scipy.sparse.linalg as spla
        from anisolab.assembly import KronOperator, assemble_system
        from anisolab.elliptic import LIMIT
        space = request.getfixturevalue(space_name)
        A = request.getfixturevalue(coef_name)
        eps, mu = [1.0, 0.5, 0.25, 0.125], 1.0
        system = assemble_system(space, A, f_mode11)
        M = system.M.tocsr()

        def resolve(e):
            return spla.spsolve(system.operator(e, mu).tocsr().tocsc(), system.F)
        u0 = resolve(LIMIT)
        gaps = [resolve(e) - u0 for e in eps]
        want = [float(np.sqrt(d @ (M @ d))) for d in gaps]

        def refuse(self):
            raise AssertionError("the resolvent study built a CSR operator")
        monkeypatch.setattr(KronOperator, "tocsr", refuse)
        study = resolvent_deviation(space, A, eps, mu, f_mode11)
        assert np.allclose(study.deviations, want, rtol=rel, atol=0.0)

    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_nonpositive_mu_rejected_before_assembly(self, monkeypatch, sine8,
                                                     A_identity, f_mode11, mu):
        import anisolab.semigroup as semigroup

        def refuse(*args, **kwargs):
            raise AssertionError("assembled before checking mu")
        monkeypatch.setattr(semigroup, "assemble_system", refuse)
        with pytest.raises(ValueError,
                           match="^resolvent parameter must be positive$"):
            resolvent_deviation(sine8, A_identity, [0.5], mu, f_mode11)


class TestDeviationStudy:
    def test_identity_matches_closed_form(self, sine8, A_identity):
        g = first_mode(sine8)
        eps = [0.5, 0.25, 0.125, 0.0625, 0.03125]
        study = semigroup_deviation_study(sine8, A_identity, eps, g, T=2.0,
                                          steps=2048)
        ts = np.linspace(0.0, 2.0, 8001)
        for row in study.rows:
            exact = np.max(np.exp(-ts) * (1.0 - np.exp(-row.epsilon ** 2 * ts)))
            assert row.deviation == pytest.approx(exact, rel=0.01)
        assert study.slope >= 0.95
        assert study.certified
        assert study.linear_in_horizon

    def test_step_budget_refusal(self, sine8, A_identity):
        g = first_mode(sine8)
        with pytest.raises(StepperAccuracyError) as err:
            semigroup_deviation_study(sine8, A_identity, [0.5], g, T=2.0,
                                      steps=4, max_steps=8,
                                      rel_step_tol=1e-6)
        assert err.value.required_steps > 8


class TestTensorOracle:
    def test_eigen_case_half_rate(self, sine8, A_identity):
        rep = tensor_semigroup_oracle_check(
            sine8, A_identity, lambda x: np.sin(x), lambda x: np.sin(x),
            s=1.0, mu=1.0)
        assert rep.passed
        assert rep.factor_1d == pytest.approx(math.exp(-0.5), abs=1e-9)

    def test_zero_time_is_identity(self, sine8, A_identity):
        rep = tensor_semigroup_oracle_check(
            sine8, A_identity, lambda x: np.sin(2 * x), lambda x: np.sin(x),
            s=0.0, mu=1.0)
        assert rep.max_diff == 0.0

    def test_second_mode_rate(self, sine8, A_identity):
        # g2 = second mode, mu = 2: bounded-flow rate 2*4/(2+4) = 4/3 per unit time
        s = 0.75
        rep = tensor_semigroup_oracle_check(
            sine8, A_identity, lambda x: np.sin(x), lambda x: np.sin(2 * x),
            s=s, mu=2.0)
        assert rep.passed
        assert rep.factor_1d == pytest.approx(math.exp(-4.0 * s / 3.0), abs=1e-8)

    def test_composite_first_factor(self, sine8, A_identity):
        rep = tensor_semigroup_oracle_check(
            sine8, A_identity,
            lambda x: np.sin(x) + 0.5 * np.sin(3 * x),
            lambda x: np.sin(2 * x), s=0.6, mu=1.5)
        assert rep.passed

    def test_variable_second_coefficient_on_q1(self, q1_8):
        from anisolab.expressions import parse_expression
        A = CoefficientField(1.0, 0.0, 0.0, parse_expression("1 + x2*x2/10"),
                             lam=1.0)
        rep = tensor_semigroup_oracle_check(
            q1_8, A, lambda x: np.sin(x), lambda x: x * (PI - x),
            s=0.8, mu=1.5)
        assert rep.passed
        assert 0.0 < rep.factor_1d < 1.0

    def test_requires_x2_only_second_block(self, sine8):
        from anisolab.coefficients import HypothesisNotSatisfied, as_field
        A = CoefficientField(1.0, 0.0, 0.0,
                             as_field(lambda x1, x2: 1.0 + 0 * x1),
                             lam=0.5, a22_depends_only_on_x2=False)
        with pytest.raises(HypothesisNotSatisfied):
            tensor_semigroup_oracle_check(sine8, A, lambda x: np.sin(x),
                                          lambda x: np.sin(x), 1.0, 1.0)


class TestParabolic:
    def test_epsilon_dependent_initial_data(self, sine8, A_identity):
        g = first_mode(sine8)
        eps = [0.5, 0.25, 0.125, 0.0625]
        report = parabolic_convergence(
            sine8, A_identity, lambda e: (1.0 + e) * g, g, eps, T=1.0,
            steps=1024, tol=0.6)
        assert report.passed
        ts = np.linspace(0.0, 1.0, 4001)
        for row in report.rows:
            e = row.epsilon
            exact = np.max(np.abs((1.0 + e) * np.exp(-(1.0 + e * e) * ts)
                                  - np.exp(-ts)))
            assert row.sup_deviation == pytest.approx(exact, rel=0.02)
            assert row.initial_gap == pytest.approx(e, abs=1e-12)

    def test_backward_euler_with_source_matches_scalar_ode(self, sine8, gen0):
        # mode ODE u' = -u + exp(-t) with u(0) = 1; exact u(t) = (1 + t) e^{-t}
        g = first_mode(sine8)
        load = np.zeros(sine8.dim)
        load[0] = 1.0
        errs = []
        for m in (128, 256):
            cfg = EvolutionConfig(T=1.0, stepper="be", steps=m,
                                  source=lambda t: math.exp(-t) * load)
            traj = evolve(gen0, g, cfg)
            errs.append(abs(traj.states[-1][0] - 2.0 * math.exp(-1.0)))
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.3)

    def test_source_loads_assembled_once_per_step_time(self, sine8,
                                                       A_offdiag_const):
        g = first_mode(sine8)
        load = np.zeros(sine8.dim)
        load[0] = 1.0
        calls = []

        def source_loads(t):
            calls.append(t)
            return math.exp(-t) * load

        eps = [0.5, 0.25, 0.125]
        report = parabolic_convergence(
            sine8, A_offdiag_const, lambda e: (1.0 + e) * g, g, eps, T=1.0,
            steps=64, source_loads=source_loads, tol=0.6)
        assert sorted(calls) == sorted(set(calls)) and len(calls) == 64

        # the same study with every march calling the source itself
        cfg = EvolutionConfig(T=1.0, stepper="be", steps=64,
                              source=lambda t: math.exp(-t) * load)
        gen_limit = build_generator(sine8, A_offdiag_const, LIMIT)
        limit = evolve(gen_limit, g, cfg)
        for row, e in zip(report.rows, eps):
            u0 = (1.0 + e) * g
            traj = evolve(build_generator(sine8, A_offdiag_const, e), u0, cfg)
            sup = float(_m_norms(gen_limit.M, traj.states - limit.states).max())
            assert (row.epsilon, row.initial_gap, row.sup_deviation) == (
                e, gen_limit.m_norm(u0 - g), sup)

    def test_diagonal_route_assembles_source_loads_once_per_step_time(
            self, sine8, A_identity):
        # the two-term counterpart: marched on the diagonal, so the replay
        # through evolve agrees to round-off
        g = first_mode(sine8)
        load = np.zeros(sine8.dim)
        load[0] = 1.0
        calls = []

        def source_loads(t):
            calls.append(t)
            return math.exp(-t) * load

        eps = [0.5, 0.25, 0.125]
        report = parabolic_convergence(
            sine8, A_identity, lambda e: (1.0 + e) * g, g, eps, T=1.0,
            steps=64, source_loads=source_loads, tol=0.6)
        assert sorted(calls) == sorted(set(calls)) and len(calls) == 64

        cfg = EvolutionConfig(T=1.0, stepper="be", steps=64,
                              source=lambda t: math.exp(-t) * load)
        gen_limit = build_generator(sine8, A_identity, LIMIT)
        limit = evolve(gen_limit, g, cfg)
        for row, e in zip(report.rows, eps):
            u0 = (1.0 + e) * g
            traj = evolve(build_generator(sine8, A_identity, e), u0, cfg)
            sup = float(_m_norms(gen_limit.M, traj.states - limit.states).max())
            assert row.epsilon == e
            assert row.initial_gap == pytest.approx(gen_limit.m_norm(u0 - g),
                                                    rel=1e-12)
            assert row.sup_deviation == pytest.approx(sup, rel=1e-12)

    def test_source_only_for_backward_euler(self):
        with pytest.raises(ValueError, match="backward Euler"):
            EvolutionConfig(T=1.0, stepper="cn", steps=8,
                            source=lambda t: None)


class TestContractionError:
    # An antidissipative generator (K = -M/2) grows every state, so both
    # contraction checks must fire with the error the CLI reports.
    @pytest.fixture
    def growing(self, sine8):
        M = sp.identity(sine8.dim, format="csr")
        return DiscreteGenerator(M, (-0.5 * M).tocsr(), "limit")

    def test_evolve_raises(self, sine8, growing):
        with pytest.raises(ContractionError, match="step 1"):
            evolve(growing, first_mode(sine8), EvolutionConfig(T=0.5, steps=4))

    def test_resolvent_raises(self, sine8, growing):
        with pytest.raises(ContractionError, match="resolvent"):
            resolvent_apply(growing, 1.0, first_mode(sine8))


@pytest.mark.parametrize("space_name", ["sine8", "q1_8"])
def test_resolvent_deviations_are_the_linear_rate_study(request, A_offdiag_const,
                                                        f_mode11, space_name):
    from anisolab.coefficients import ReactionSpec
    from anisolab.diagnostics import rate_study
    from anisolab.elliptic import ProblemSpec
    space = request.getfixturevalue(space_name)
    eps, mu = [0.5, 0.25, 0.125], 2.0
    study = resolvent_deviation(space, A_offdiag_const, eps, mu, f_mode11)
    problem = ProblemSpec(space.domain, A_offdiag_const, f_mode11,
                          ReactionSpec.linear(mu))
    rate = rate_study(problem, space, eps, check_bound=False)
    assert study.deviations == rate.e_l2
