"""Acceptance suite: every exit criterion, one test per criterion, each
printing a pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np

from anisolab.assembly import assemble_system
from anisolab.cli import run_config
from anisolab.coefficients import (CoefficientField, ReactionSpec, SourceField,
                                   as_field, compute_constants)
from anisolab.config import load_config, shipped_config_dir
from anisolab.diagnostics import (ap_diagram, cea_check,
                                  difference_quotient_bound,
                                  errors_vs_function, rate_study)
from anisolab.elliptic import (LIMIT, ProblemSpec, apriori_check, solve_linear,
                               solve_semilinear)
from anisolab.semigroup import (EvolutionConfig, build_generator, evolve,
                                resolvent_apply, semigroup_deviation_study,
                                tensor_semigroup_oracle_check)
from anisolab.spaces import TensorDomain, build_space
from conftest import mode_source

PI = math.pi
NORM = 2.0 / PI
CONFIG_DIR = shipped_config_dir()
EPS_RATE = [2.0 ** -k for k in range(1, 7)]


def check(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:>2} ({name}): {status}  {detail}")
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


def shipped_matrices():
    identity = CoefficientField.identity()
    const = CoefficientField(1.0, 0.3, 0.3, 1.0, lam=0.7,
                             offdiag_mixed_deriv_in_l2=True)
    from anisolab.coefficients import ScalarField
    g = ScalarField(lambda x1, x2: 0.2 * np.sin(x1) * np.sin(x2),
                    {"x1", "x2"},
                    dx1=as_field(lambda x1, x2: 0.2 * np.cos(x1) * np.sin(x2)),
                    dx2=as_field(lambda x1, x2: 0.2 * np.sin(x1) * np.cos(x2)))
    variable = CoefficientField(1.0, g, g, 1.0, lam=0.8,
                                offdiag_mixed_deriv_in_l2=True)
    return {"identity": identity, "offdiag_const": const,
            "offdiag_variable": variable}


def test_criterion_01_separable_oracle_equivalence(dom, A_identity, f_mode11,
                                                   sine8):
    prob = ProblemSpec(dom, A_identity, f_mode11, ReactionSpec.zero(), LIMIT)
    worst = 0.0
    for eps in (1.0, 0.5, 0.25):
        sol = solve_linear(prob.with_epsilon(eps), sine8)
        expected = np.zeros(sine8.dim)
        expected[0] = 1.0 / (1.0 + eps * eps)
        worst = max(worst, float(np.linalg.norm(sol.coeffs - expected)))
    sol = solve_linear(prob, sine8)
    expected = np.zeros(sine8.dim)
    expected[0] = 1.0
    worst = max(worst, float(np.linalg.norm(sol.coeffs - expected)))
    check(1, "separable oracle equivalence", worst <= 1e-10,
          f"max deviation {worst:.3e}")


def test_criterion_02_rate_and_bound(dom, f_mode11):
    start = time.perf_counter()
    sine16 = build_space(dom, "sine", 16, "sine", 16)
    q64 = build_space(dom, "q1", 64, "q1", 64)
    details = []
    ok = True
    for label, A in shipped_matrices().items():
        prob = ProblemSpec(dom, A, f_mode11, ReactionSpec.zero(), LIMIT)
        for space, sname in ((sine16, "sine16"), (q64, "q1_64")):
            study = rate_study(prob, space, EPS_RATE)
            ok = ok and study.refusal is None and bool(study.bound_verdict)
            ok = ok and study.slope >= 0.95
            details.append(f"{label}/{sname}: slope {study.slope:.2f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    check(2, "rate bound and slope", ok,
          "; ".join(details) + f"; elapsed {elapsed:.1f}s")


def test_criterion_03_apriori_bounds_on_all_solves(dom, sine8, q1_8, f_mode11):
    matrices = shipped_matrices()
    failures = []
    count = 0
    for label, A in matrices.items():
        for reaction in (ReactionSpec.zero(), ReactionSpec.linear(1.0)):
            ledger = compute_constants(A, dom, f_mode11, reaction, grid=128)
            for eps in (1.0, 0.5, 0.25, LIMIT):
                for space in (sine8, q1_8):
                    prob = ProblemSpec(dom, A, f_mode11, reaction, eps)
                    sol = solve_linear(prob, space)
                    report = apriori_check(sol, ledger, prob)
                    count += 1
                    if not report.all_passed:
                        failures.append((label, reaction.kind, eps))
    # one semilinear solve as well
    A = matrices["identity"]
    arctan = ReactionSpec.arctan()
    ledger = compute_constants(A, dom, f_mode11, arctan, grid=128)
    prob = ProblemSpec(dom, A, f_mode11, arctan, LIMIT)
    sol = solve_semilinear(prob, sine8, damping=0.5)
    count += 1
    if not apriori_check(sol, ledger, prob).all_passed:
        failures.append(("identity", "custom", "LIMIT"))
    check(3, "energy and reaction bounds", not failures,
          f"{count} solves checked, failures: {failures}")


def test_criterion_04_cea_checks(dom):
    from anisolab.coefficients import ScalarField
    rich = SourceField(as_field(
        lambda x1, x2: NORM * (np.sin(x1) * np.sin(x2)
                               + 0.4 * np.sin(3 * x1) * np.sin(5 * x2))),
        grad_x1_in_l2=True, slices_vanish_x1=True)
    # (a) unit second-direction block: quasi-optimality with constant one
    prob = ProblemSpec(dom, CoefficientField.identity(), rich,
                       ReactionSpec.zero(), LIMIT)
    spaces = [build_space(dom, "sine", m, "sine", m) for m in (2, 4)]
    rep_a = cea_check(spaces, prob)
    gap_a = max(abs(r.galerkin_error - r.best_error) for r in rep_a.rows)
    ok_a = gap_a <= 1e-10

    # (b) x2-dependent block: ratio within the quotient constant
    fld = ScalarField(lambda x1, x2: 1.0 + x2 ** 2 / 10.0, {"x2"})
    A_var = CoefficientField(1.0, 0.0, 0.0, fld, lam=1.0)
    prob_b = ProblemSpec(dom, A_var, rich, ReactionSpec.zero(), LIMIT)
    spaces_b = [build_space(dom, "q1", m, "q1", m) for m in (4, 8, 16)]
    rep_b = cea_check(spaces_b, prob_b)
    ok_b = rep_b.all_passed

    # (c) monotone reaction: square-root quasi-optimality with ledger constant
    f11 = mode_source(1, 1)
    prob_c = ProblemSpec(dom, CoefficientField.identity(), f11,
                         ReactionSpec.arctan(), LIMIT)
    spaces_c = [build_space(dom, "q1", m, "q1", m) for m in (4, 8)]
    rep_c = cea_check(spaces_c, prob_c, damping=0.5)
    ok_c = rep_c.all_passed
    check(4, "quasi-optimality", ok_a and ok_b and ok_c,
          f"projection gap {gap_a:.2e}; quotient rows "
          f"{[f'{r.galerkin_error / r.best_error:.2f}' for r in rep_b.rows]}; "
          f"sqrt-form ok {ok_c}")


def test_criterion_05_commuting_limits_diagram(dom, A_identity):
    f = SourceField(as_field(
        lambda x1, x2: NORM * (np.sin(x1) * np.sin(x2)
                               + np.sin(2 * x1) * np.sin(3 * x2))),
        dx1=as_field(lambda x1, x2: NORM * (np.cos(x1) * np.sin(x2)
                                            + 2 * np.cos(2 * x1) * np.sin(3 * x2))),
        grad_x1_in_l2=True, slices_vanish_x1=True)
    prob = ProblemSpec(dom, A_identity, f, ReactionSpec.zero(), LIMIT)
    eps = [1.0, 0.25, 0.0625, 0.015625]
    spaces = [build_space(dom, "sine", m, "sine", m) for m in (2, 4, 8, 16)]
    report = ap_diagram(prob, eps, spaces)
    ok = report.row_monotone and report.col_monotone and report.gap_ok
    check(5, "commuting limits diagram", ok,
          f"row trace {[f'{v:.2e}' for v in report.row_trace]}, "
          f"col trace {[f'{v:.2e}' for v in report.col_trace]}, "
          f"gap {report.commutation_gap:.2e} <= 2 x {report.finest_error:.2e}")


def test_criterion_06_difference_quotient_bound(dom, A_identity, sine8):
    cases = [
        ("mode(1,1) equality edge", dom, mode_source(1, 1), sine8),
        ("mode(2,1) equality edge", dom, mode_source(2, 1), sine8),
        ("mode(1,2) slack", dom, mode_source(1, 2), sine8),
    ]
    # composite tensor source
    comp = SourceField(as_field(
        lambda x1, x2: NORM * (np.sin(x1) * np.sin(x2)
                               + 0.5 * np.sin(2 * x1) * np.sin(2 * x2))),
        dx1=as_field(lambda x1, x2: NORM * (np.cos(x1) * np.sin(x2)
                                            + np.cos(2 * x1) * np.sin(2 * x2))),
        grad_x1_in_l2=True, slices_vanish_x1=True)
    cases.append(("composite", dom, comp, sine8))
    # wide second direction: the interval constant is 2, its square 4
    wide = TensorDomain((0.0, PI), (0.0, 2.0 * PI))
    amp = math.sqrt(2.0 / PI) * math.sqrt(1.0 / PI)
    fw = SourceField(
        as_field(lambda x1, x2: amp * np.sin(x1) * np.sin(x2 / 2.0)),
        dx1=as_field(lambda x1, x2: amp * np.cos(x1) * np.sin(x2 / 2.0)),
        grad_x1_in_l2=True, slices_vanish_x1=True)
    cases.append(("wide domain equality edge", wide, fw,
                  build_space(wide, "sine", 4, "sine", 4)))

    ok = True
    lines = []
    for name, d, f, space in cases:
        prob = ProblemSpec(d, CoefficientField.identity(), f,
                           ReactionSpec.zero(), LIMIT)
        rep = difference_quotient_bound(prob, space)
        ok = ok and rep.passed
        lines.append(f"{name}: lhs {rep.lhs:.4f} <= {rep.rhs:.4f} "
                     f"(smaller candidate {rep.rhs_statement:.4f} "
                     f"{'holds' if rep.statement_passed else 'violated'})")
    check(6, "difference-quotient bound", ok, " | ".join(lines))


def test_criterion_07_counterexample_growth(dom, A_identity):
    q64 = build_space(dom, "q1", 64, "q1", 64)
    eps = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]

    def sweep(source, u, du1, du2):
        system = assemble_system(q64, A_identity, source)
        prob = ProblemSpec(dom, A_identity, source, ReactionSpec.zero(), LIMIT)
        out = []
        for e in eps:
            sol = solve_linear(prob.with_epsilon(e), q64, system=system)
            out.append(errors_vs_function(q64, sol.coeffs, u, du1, du2)[0])
        return out

    # hypothesis-violating source: limit solution cos(x1) sin(x2)
    bad = SourceField(as_field(lambda x1, x2: np.cos(x1) * np.sin(x2)),
                      dx1=as_field(lambda x1, x2: -np.sin(x1) * np.sin(x2)),
                      grad_x1_in_l2=True, slices_vanish_x1=False)
    e_bad = sweep(bad,
                  lambda x1, x2: np.cos(x1) * np.sin(x2),
                  lambda x1, x2: -np.sin(x1) * np.sin(x2),
                  lambda x1, x2: np.cos(x1) * np.cos(x2))
    growth = e_bad[-1] / e_bad[0]

    good = mode_source(1, 1)
    e_good = sweep(good,
                   lambda x1, x2: NORM * np.sin(x1) * np.sin(x2),
                   lambda x1, x2: NORM * np.cos(x1) * np.sin(x2),
                   lambda x1, x2: NORM * np.sin(x1) * np.cos(x2))
    bounded = max(e_good) <= 10.0 * e_good[0]
    check(7, "counterexample first-direction growth",
          growth >= 5.0 and bounded,
          f"violating source grows {growth:.2f}x; "
          f"conforming source max/first {max(e_good) / e_good[0]:.2f}x")


def test_criterion_08_resolvent_contract(dom, sine8):
    matrices = shipped_matrices()
    gens = [build_generator(sine8, matrices["offdiag_const"], 0.5),
            build_generator(sine8, matrices["identity"], LIMIT)]
    rng = np.random.default_rng(2024)
    ok = True
    for mu in (0.1, 1.0, 10.0):
        for k in range(20):
            f = rng.normal(size=sine8.dim)
            gen = gens[k % 2]
            u = resolvent_apply(gen, mu, f)  # raises if contraction fails
            ok = ok and gen.m_norm(u) <= gen.m_norm(f) / mu * (1 + 1e-10)
    gen0 = build_generator(sine8, matrices["identity"], LIMIT)
    f = np.zeros(sine8.dim)
    f[sine8.flat_index(0, 1)] = 1.0
    u = resolvent_apply(gen0, 3.0, f)
    eig_err = float(np.max(np.abs(u - f / 7.0)))
    check(8, "resolvent contraction and eigenmode", ok and eig_err <= 1e-10,
          f"60 random contractions, eigenmode error {eig_err:.2e}")


def test_criterion_09_flow_deviation(dom, sine8):
    g = np.zeros(sine8.dim)
    g[0] = 1.0
    eps = [2.0 ** -k for k in range(1, 6)]
    T = 2.0
    ok = True
    lines = []
    for label, A in shipped_matrices().items():
        study = semigroup_deviation_study(sine8, A, eps, g, T=T, steps=1024)
        ok = ok and study.slope >= 0.95 and study.certified
        ok = ok and study.linear_in_horizon
        lines.append(f"{label}: slope {study.slope:.2f}")
    # closed-form check at exactly 2048 backward Euler steps
    A_id = shipped_matrices()["identity"]
    gen0 = build_generator(sine8, A_id, LIMIT)
    ts = np.linspace(0.0, T, 8001)
    worst = 0.0
    for e in eps:
        gen = build_generator(sine8, A_id, e)
        cfg = EvolutionConfig(T=T, stepper="be", steps=2048)
        tr_e = evolve(gen, g, cfg)
        tr_0 = evolve(gen0, g, cfg)
        dev = max(gen0.m_norm(a - b) for a, b in zip(tr_e.states, tr_0.states))
        exact = float(np.max(np.exp(-ts) * (1.0 - np.exp(-e * e * ts))))
        worst = max(worst, abs(dev - exact) / exact)
    ok = ok and worst <= 0.01
    check(9, "flow deviation rate", ok,
          "; ".join(lines) + f"; closed-form mismatch {worst:.3%}")


def test_criterion_10_tensor_flow_identity(dom, sine8, A_identity):
    combos = [
        (lambda x: np.sin(x), lambda x: np.sin(x), 1.0, 1.0,
         math.exp(-0.5)),   # the e^{-s/2} eigen case
        (lambda x: np.sin(x), lambda x: np.sin(2 * x), 0.75, 2.0,
         math.exp(-1.0)),   # rate 2*4/(2+4) = 4/3, s = 3/4
        (lambda x: np.sin(x) + 0.5 * np.sin(3 * x), lambda x: np.sin(2 * x),
         0.6, 1.5, None),
    ]
    ok = True
    worst = 0.0
    for g1, g2, s, mu, factor in combos:
        rep = tensor_semigroup_oracle_check(sine8, A_identity, g1, g2, s, mu)
        worst = max(worst, rep.max_diff)
        ok = ok and rep.max_diff <= 1e-8
        if factor is not None:
            ok = ok and abs(rep.factor_1d - factor) < 1e-7
    check(10, "tensor flow identity", ok, f"max coefficient gap {worst:.2e}")


def test_criterion_11_stepper_orders(dom, sine8, A_identity):
    gen0 = build_generator(sine8, A_identity, LIMIT)
    g = np.zeros(sine8.dim)
    g[0] = 1.0
    exact = math.exp(-1.0)

    def final(stepper, m, mu=None):
        traj = evolve(gen0, g, EvolutionConfig(T=1.0, stepper=stepper, steps=m,
                                               yosida_mu=mu))
        return traj.states[-1][0]

    be_ratio = (abs(final("be", 64) - exact)
                / abs(final("be", 128) - exact))
    cn_ratio = (abs(final("cn", 16) - exact)
                / abs(final("cn", 32) - exact))
    rate = -math.log(final("yosida", 64, mu=1.0))
    yos_err = abs(rate - 0.5)
    ok = (abs(be_ratio - 2.0) <= 0.2 and abs(cn_ratio - 4.0) <= 0.5
          and yos_err <= 1e-8)
    check(11, "stepper orders", ok,
          f"BE ratio {be_ratio:.3f}, CN ratio {cn_ratio:.3f}, "
          f"bounded-flow rate error {yos_err:.2e}")


def test_criterion_12_determinism(tmp_path):
    mismatches = []
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        a = tmp_path / (path.stem + ".a")
        b = tmp_path / (path.stem + ".b")
        run_config(load_config(path), a)
        run_config(load_config(path), b)
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        if names_a != names_b:
            mismatches.append(path.stem)
            continue
        for name in names_a:
            if (a / name).read_bytes() != (b / name).read_bytes():
                mismatches.append(f"{path.stem}/{name}")
    check(12, "byte-identical reruns", not mismatches,
          f"{len(list(CONFIG_DIR.glob('*.cfg')))} configs, "
          f"mismatches: {mismatches}")
