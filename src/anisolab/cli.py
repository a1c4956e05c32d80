"""Command line interface: parse a config, run the requested study, and emit
deterministic CSV/JSON reports.  Each ``summary.json`` section is read off
the study's report object by field name (``_fields``, ``asdict``).

``--epsilon-list``, ``--basis``, ``--export`` and the study kind of a
subcommand reach the config as overrides of ``load_config``, so they pass
the config's own checks and a fault is reported at the replaced key.
``_STUDIES`` maps each kind to its subcommand and its runner.

Exit codes: 0 when every requested verdict passes, 1 when a verdict fails,
2 on a structured refusal (missing hypothesis flags), a configuration
error or an output path that cannot be created or written, 3 on a
numerical failure (recorded under ``failures`` in ``summary.json``).
Repeated runs of the same config produce byte-identical outputs;
wall-clock timings are therefore never written into report files.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import asdict, astuple
from pathlib import Path

from . import diagnostics, semigroup
from .assembly import assemble_load, assemble_system, project
from .coefficients import (HypothesisNotSatisfied, compute_constants,
                           LEDGER_FORMULAS)
from .config import (ConfigError, ExperimentConfig, build_problem_objects,
                     emit_config, load_config, make_space)
from .diagnostics import RATE_SLOPE_MIN
from .elliptic import (ProblemSpec, apriori_check, export_solution_csv,
                       galerkin_solve)
from .expressions import parse_expression
from .linsolve import IndefiniteOperatorError, NonConvergenceError
from .reports import CSV_COLUMNS, write_csv, write_summary
from .semigroup import ContractionError, StepperAccuracyError

__all__ = ["main", "run_config"]

# Numerical failures that end a study with a ``failures`` entry and exit
# code 3, and the diagnostics each may carry.
_NUMERICAL_FAILURES = (StepperAccuracyError, NonConvergenceError,
                       IndefiniteOperatorError, ContractionError)
_FAILURE_DIAGNOSTICS = ("required_steps", "iterations", "residual_norm")


def _fields(report, *names) -> dict:
    """The named attributes of a report object, as a summary section."""
    return {name: getattr(report, name) for name in names}


def _refuse(summary, study, reason):
    summary["refusals"].append({"study": study, "reason": reason})


def _run_solve(cfg, problem, ledger, out, summary):
    problem = problem.with_epsilon(cfg.study.epsilon)
    space = make_space(cfg, problem.domain)
    system = assemble_system(space, problem.coefficients, problem.source)
    sol = galerkin_solve(problem, space, system, damping=cfg.study.damping)
    apriori = apriori_check(sol, ledger(), problem, system)
    summary["constants"] = ledger().as_dict()
    summary["solve"] = {
        **_fields(sol, "final_residual", "picard_iterations"),
        "dim": space.dim, "epsilon": cfg.study.epsilon,
        "apriori": {c.name: _fields(c, "lhs", "rhs", "passed")
                    for c in apriori.checks},
    }
    export = cfg.study.export or "grid.csv"
    export_solution_csv(sol, out(export))
    summary["verdicts"]["residual_contract"] = True
    summary["verdicts"]["apriori_bounds"] = apriori.all_passed


def _run_rate(cfg, problem, ledger, out, summary):
    space = make_space(cfg, problem.domain)
    study = diagnostics.rate_study(problem, space, list(cfg.study.epsilons),
                                   check_bound=cfg.study.check_bound,
                                   ledger=ledger())
    summary["constants"] = ledger().as_dict()
    verdict = ("refused" if study.refusal else
               "pass" if study.bound_verdict else
               "fail" if study.bound_verdict is not None else "unchecked")
    bounds = study.bound or [float("nan")] * len(study.epsilons)
    write_csv(out("rate.csv"), "rate", zip(
        study.epsilons, study.e_x1, study.e_x2, study.e_l2, bounds,
        [verdict] * len(study.epsilons)))
    summary["rate"] = _fields(study, "epsilons", "e_x1", "e_x2", "e_l2",
                              "slope", "bound", "bound_galerkin")
    if study.refusal:
        _refuse(summary, "rate", study.refusal)
        return
    summary["verdicts"]["rate_slope_ge_0.95"] = study.slope >= RATE_SLOPE_MIN
    if cfg.study.check_bound:
        summary["verdicts"]["rate_bound"] = bool(study.bound_verdict)
    if cfg.problem.beta == "linear":
        mu_study = diagnostics.linear_reaction_rate_study(
            problem, space, list(cfg.study.epsilons), mus=cfg.study.mus)
        if mu_study.refusal:
            _refuse(summary, "rate-linear-reaction", mu_study.refusal)
            return
        summary["rate_linear_reaction"] = {
            "mus": mu_study.mus,
            "e_x2": {str(mu): s.e_x2 for mu, s in mu_study.studies.items()},
            "scaled": {str(mu): v for mu, v in mu_study.scaled.items()},
        }
        summary["verdicts"]["rate_mu_bounded"] = bool(mu_study.mu_bounded)
        summary["verdicts"]["rate_mu_shrink"] = bool(mu_study.mu_shrink)


def _run_cea(cfg, problem, ledger, out, summary):
    spaces = [make_space(cfg, problem.domain, m1=n, m2=n)
              for n in cfg.study.sizes]
    report = diagnostics.cea_check(spaces, problem, damping=cfg.study.damping,
                                   ledger=ledger())
    summary["constants"] = report.ledger.as_dict()
    rows = [_fields(r, *CSV_COLUMNS["cea"]) for r in report.rows]
    write_csv(out("cea.csv"), "cea", (row.values() for row in rows))
    summary["cea"] = {"kind": report.kind, "rows": rows}
    summary["verdicts"]["cea_bound"] = report.all_passed


def _run_ap(cfg, problem, ledger, out, summary):
    spaces = [make_space(cfg, problem.domain, m1=n, m2=n)
              for n in cfg.study.sizes]
    report = diagnostics.ap_diagram(problem, list(cfg.study.epsilons), spaces)
    write_csv(out("ap_grid.csv"), "ap_grid",
              ((eps, n, report.grid[i, j])
               for i, eps in enumerate(report.epsilons)
               for j, n in enumerate(report.sizes)))
    summary["ap"] = _fields(report, "epsilons", "sizes", "row_trace",
                            "col_trace", "commutation_gap", "finest_error")
    summary["verdicts"]["ap_row_monotone"] = report.row_monotone
    summary["verdicts"]["ap_col_monotone"] = report.col_monotone
    summary["verdicts"]["ap_gap"] = report.gap_ok


def _run_dq(cfg, problem, ledger, out, summary):
    space = make_space(cfg, problem.domain)
    report = diagnostics.difference_quotient_bound(problem, space)
    summary["constants"] = report.ledger.as_dict()
    summary["dq"] = _fields(report, "lhs", "grad_f", "rhs", "rhs_statement",
                            "rhs_inspace", "statement_passed")
    summary["verdicts"]["dq_bound"] = report.passed


def _run_resolvent(cfg, problem, ledger, out, summary):
    space = make_space(cfg, problem.domain)
    study = semigroup.resolvent_deviation(space, problem.coefficients,
                                          list(cfg.study.epsilons),
                                          cfg.study.mu, problem.source)
    if study.refusal:
        _refuse(summary, "resolvent", study.refusal)
        return
    write_csv(out("resolvent.csv"), "resolvent",
              zip(study.epsilons, study.deviations))
    summary["resolvent"] = _fields(study, "epsilons", "deviations", "slope")
    summary["verdicts"]["resolvent_slope_ge_0.95"] = study.slope >= RATE_SLOPE_MIN


def _run_semigroup(cfg, problem, ledger, out, summary):
    space = make_space(cfg, problem.domain)
    g = project(space, problem.source)
    study = semigroup.semigroup_deviation_study(
        space, problem.coefficients, list(cfg.study.epsilons), g,
        cfg.study.T, stepper=cfg.study.stepper, steps=cfg.study.steps,
        yosida_mu=cfg.study.yosida_mu)
    write_csv(out("deviation_trace.csv"), "deviation_trace",
              ((eps, t, d) for eps in sorted(study.traces, reverse=True)
               for t, d in zip(*study.traces[eps])))
    write_csv(out("deviation_summary.csv"), "deviation_summary",
              ((r.epsilon, r.deviation, study.slope) for r in study.rows))
    summary["semigroup"] = {**_fields(study, "T", "slope"),
                            "rows": [asdict(r) for r in study.rows]}
    summary["verdicts"]["semigroup_slope_ge_0.95"] = study.slope >= RATE_SLOPE_MIN
    summary["verdicts"]["semigroup_certified"] = study.certified
    summary["verdicts"]["semigroup_linear_in_T"] = study.linear_in_horizon


def _run_parabolic(cfg, problem, ledger, out, summary):
    space = make_space(cfg, problem.domain)
    u0 = project(space, parse_expression(cfg.study.u0 or cfg.problem.f))
    coeff = cfg.study.u0_eps_coeff

    def u0_of_eps(eps):
        return (1.0 + coeff * eps) * u0

    source_loads = None
    if cfg.study.source is not None:
        sexpr = parse_expression(cfg.study.source)

        def source_loads(t):
            return assemble_load(space,
                                 lambda x1, x2: sexpr(x1=x1, x2=x2, t=t))

    report = semigroup.parabolic_convergence(
        space, problem.coefficients, u0_of_eps, u0,
        list(cfg.study.epsilons), cfg.study.T, stepper=cfg.study.stepper,
        steps=cfg.study.steps, source_loads=source_loads, tol=cfg.study.tol)
    write_csv(out("parabolic.csv"), "parabolic", map(astuple, report.rows))
    summary["parabolic"] = asdict(report)
    summary["verdicts"]["parabolic_monotone"] = report.monotone
    summary["verdicts"]["parabolic_below_tol"] = report.final_below_tol


def _run_constants(cfg, problem, ledger, out, summary):
    table = ledger().as_dict()
    summary["constants"] = table
    width = max(len(k) for k in table)
    print("constant ledger:")
    for name, value in table.items():
        print(f"  {name:<{width}} = {value:.12g}    [{LEDGER_FORMULAS[name]}]")


# study kind -> (subcommand, runner), in the order of the subcommands
_STUDIES = {
    "solve": ("solve", _run_solve),
    "rate": ("rate-study", _run_rate),
    "cea": ("cea-check", _run_cea),
    "ap": ("ap-check", _run_ap),
    "dq": ("dq-check", _run_dq),
    "resolvent": ("resolvent-study", _run_resolvent),
    "semigroup": ("semigroup-study", _run_semigroup),
    "parabolic": ("parabolic-study", _run_parabolic),
    "constants": ("constants", _run_constants),
}


def run_config(cfg: ExperimentConfig, outdir) -> tuple[dict, int]:
    """Execute the study named by the config; returns (summary, exit code).

    A runner reads the constant ledger through ``ledger()``, computed once
    per run, and names each report file through ``out(name)``, which takes
    the ledger first: a run that ends in a ledger error writes no file and
    makes no output directory.
    """
    problem = ProblemSpec(*build_problem_objects(cfg))
    outdir = Path(outdir)
    ledger = functools.cache(lambda: compute_constants(
        problem.coefficients, problem.domain, problem.source, problem.reaction))

    def out(name: str) -> Path:
        ledger()
        outdir.mkdir(parents=True, exist_ok=True)
        return outdir / name

    summary = {
        "study": cfg.study.kind,
        "config": emit_config(cfg),
        "verdicts": {},
        "refusals": [],
    }
    try:
        _STUDIES[cfg.study.kind][1](cfg, problem, ledger, out, summary)
        if "constants" not in summary:
            summary["constants"] = ledger().as_dict()
    except HypothesisNotSatisfied as exc:
        summary["refusals"].append({"study": cfg.study.kind,
                                    "missing": list(exc.missing)})
    except _NUMERICAL_FAILURES as exc:
        failure = {"study": cfg.study.kind, "error": type(exc).__name__,
                   "message": str(exc)}
        failure.update({k: getattr(exc, k) for k in _FAILURE_DIAGNOSTICS
                        if hasattr(exc, k)})
        summary["failures"] = [failure]
    if "json" in cfg.output.formats:
        outdir.mkdir(parents=True, exist_ok=True)
        write_summary(outdir / "summary.json", summary)
    if "failures" in summary:
        return summary, 3
    if summary["refusals"]:
        return summary, 2
    return summary, 0 if all(summary["verdicts"].values()) else 1


def _build_parser():
    # imported here: run_config never parses a command line
    import argparse

    parser = argparse.ArgumentParser(
        prog="anisolab",
        description="Studies of anisotropic singularly perturbed problems "
                    "on tensor-product domains.")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, name in [(k, s) for k, (s, _) in _STUDIES.items()] + [(None, "run")]:
        p = sub.add_parser(name)
        p.set_defaults(kind=kind)
        p.add_argument("--config", required=True, help="path to a .cfg file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--epsilon-list", default=None,
                       help="comma separated epsilons override")
        p.add_argument("--basis", default=None, choices=("sine", "q1"),
                       help="basis kind override for both directions")
        p.add_argument("--export", default=None,
                       help="lattice export file name (solve only)")
    return parser


def _epsilon_list(text: str) -> tuple:
    """The epsilons of an ``--epsilon-list`` value; a ValueError names the
    token at fault, or says that the list is empty."""
    if not text.strip():
        raise ValueError("--epsilon-list is empty")
    epsilons = []
    for token in text.split(","):
        try:
            epsilons.append(float(token))
        except ValueError:
            raise ValueError(f"--epsilon-list: {token.strip()!r} is not a "
                             "number") from None
    return tuple(epsilons)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: value for key, value in (
        (("study", "kind"), args.kind), (("study", "export"), args.export),
        (("discretization", "basis1"), args.basis),
        (("discretization", "basis2"), args.basis)) if value}
    if args.epsilon_list is not None:
        try:
            overrides["study", "epsilons"] = _epsilon_list(args.epsilon_list)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        cfg = load_config(args.config, overrides)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outdir = args.out or cfg.output.directory
    try:
        summary, code = run_config(cfg, outdir)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for item in summary["refusals"]:
        print(f"refused: {item}", file=sys.stderr)
    for item in summary.get("failures", []):
        print(f"failed: {item}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
