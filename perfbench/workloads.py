"""Study lists of the three workloads, generated from the seed.

The seed sets the source amplitudes only; every workload runs the same
studies on the same spaces whatever the seed.  Each study carries a check
that compares the reports with :mod:`oracles` and returns the failed
conditions (an empty list when the study is correct).
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

RATE_EPSILONS = (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625)
AP_EPSILONS = (1.0, 0.25, 0.0625, 0.015625)
AP_SIZES = (2, 4, 8, 16)
FLOW_EPSILONS = (0.5, 0.25, 0.125)
PARABOLIC_EPSILONS = (0.5, 0.25, 0.125, 0.0625)
RESOLVENT_EPSILONS = (0.5, 0.25, 0.125, 0.0625)
SEMIGROUP_T = 2.0
PARABOLIC_T = 1.0
PARABOLIC_STEPS = 256
# u0(eps) = u0: the deviation grows from 0, so its sup depends on every step
PARABOLIC_U0_COEFF = 0.0
RESOLVENT_MU = 1.0
Q1_M = 128

# (p, q) indices of sin(p x1) sin(q x2) in each workload's sources.
SPECTRAL_MODES = ((1, 1), (3, 2), (6, 5))
Q1_MODES = ((1, 1), (2, 3), (3, 1))
FLOW_MODES = ((1, 1), (2, 3), (3, 1))

_OFFDIAG = {
    "a12": "0.2*sin(x1)*sin(x2)", "a21": "0.2*sin(x1)*sin(x2)",
    "a12_dx1": "0.2*cos(x1)*sin(x2)", "a12_dx2": "0.2*sin(x1)*cos(x2)",
    "a21_dx1": "0.2*cos(x1)*sin(x2)", "a21_dx2": "0.2*sin(x1)*cos(x2)",
    "lambda": "0.8",
}


@dataclass
class Study:
    name: str
    text: str
    check: Callable[[dict, int, Path], list]


def amplitudes(seed: int, workload: str, count: int):
    """Mode amplitudes in [0.75, 1.25], a pure function of seed and workload."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.uniform(0.75, 1.25) for _ in range(count)]


def source_exprs(modes, amps):
    """``f`` and its declared x1-partial, amplitudes written at full precision."""
    f = " + ".join(f"{a!r}*sin({p}*x1)*sin({q}*x2)" for (p, q), a in zip(modes, amps))
    d = " + ".join(f"{a * p!r}*cos({p}*x1)*sin({q}*x2)"
                   for (p, q), a in zip(modes, amps))
    return f"(2/pi)*({f})", f"(2/pi)*({d})"


def config_text(modes, amps, basis, m, study, problem=None):
    f, f_dx1 = source_exprs(modes, amps)
    keys = {"a11": "1", "a12": "0", "a21": "0", "a22": "1", "lambda": "1",
            "beta": "zero"}
    keys.update(problem or {})
    lines = ["[problem]", "domain = 0, pi, 0, pi"]
    for key in ("a11", "a12", "a21", "a22", "a12_dx1", "a12_dx2", "a21_dx1",
                "a21_dx2"):
        if key in keys:
            lines.append(f'{key} = "{keys[key]}"')
    lines += [f"lambda = {keys['lambda']}",
              "a22_x2_only = true",
              "offdiag_derivs_bounded = true",
              "offdiag_mixed_deriv_in_l2 = true",
              f"beta = {keys['beta']}",
              f'f = "{f}"',
              f'f_dx1 = "{f_dx1}"',
              "f_grad_x1_in_l2 = true",
              "f_slices_vanish_x1 = true",
              "",
              "[discretization]",
              f"basis1 = {basis}", f"m1 = {m}", f"basis2 = {basis}", f"m2 = {m}",
              "quad_order = 4",
              "",
              "[study]"]
    for key, value in study.items():
        if isinstance(value, tuple):
            value = ", ".join(repr(v) for v in value)
        lines.append(f"{key} = {value}")
    lines += ["", "[output]", "directory = out", "formats = csv, json", ""]
    return "\n".join(lines)


def _exit_zero(code):
    return [] if code == 0 else [f"exit code {code}"]


def _check_rate_bound(rate, fails):
    if rate.get("bound") is None:
        fails.append("rate bound missing")
        return
    for eps, e2, b in zip(rate["epsilons"], rate["e_x2"], rate["bound"]):
        if not oracles.below(e2, b):
            fails.append(f"rate bound: e_x2={e2!r} > {b!r} at eps={eps!r}")
    s = oracles.slope(rate["epsilons"], rate["e_x2"])
    if not s >= 0.95:
        fails.append(f"rate slope {s!r} < 0.95")


def rate_check(modes, amps, closed_form_rel=None):
    """Rate bound and slope; with ``closed_form_rel``, e_x2 against the oracle."""
    def check(summary, code, outdir):
        fails = _exit_zero(code)
        rate = summary.get("rate")
        if rate is None:
            return fails + ["no rate report"]
        _check_rate_bound(rate, fails)
        if closed_form_rel is not None:
            for eps, e2 in zip(rate["epsilons"], rate["e_x2"]):
                want = oracles.rate_errors(modes, amps, eps)[1]
                if not oracles.close(e2, want, closed_form_rel):
                    fails.append(f"e_x2={e2!r} != closed form {want!r} at eps={eps!r}")
        return fails
    return check


def ap_check(modes, amps):
    def check(summary, code, outdir):
        fails = _exit_zero(code)
        ap = summary.get("ap")
        if ap is None:
            return fails + ["no ap report"]
        grid, col = oracles.ap_grid(modes, amps, AP_EPSILONS, AP_SIZES)
        with open(outdir / "ap_grid.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(AP_EPSILONS) * len(AP_SIZES):
            fails.append(f"ap_grid.csv has {len(rows)} rows")
        for row in rows:
            i = AP_EPSILONS.index(float(row["epsilon"]))
            j = AP_SIZES.index(int(row["n"]))
            if not oracles.close(float(row["error"]), grid[i][j], 1e-9):
                fails.append(f"ap grid ({row['epsilon']}, {row['n']}) = {row['error']}"
                             f" != closed form {grid[i][j]!r}")
        for got, want in zip(ap["col_trace"], col):
            if not oracles.close(got, want, 1e-9):
                fails.append(f"ap limit trace {got!r} != closed form {want!r}")
        if not oracles.nonincreasing(ap["row_trace"]):
            fails.append("ap epsilon trace not monotone")
        if not oracles.nonincreasing(ap["col_trace"]):
            fails.append("ap space trace not monotone")
        return fails
    return check


def cea_check():
    def check(summary, code, outdir):
        fails = _exit_zero(code)
        cea = summary.get("cea")
        if cea is None or not cea["rows"]:
            return fails + ["no cea report"]
        if cea["kind"] != "limit-sqrt":
            fails.append(f"cea kind {cea['kind']!r}, expected limit-sqrt")
        for row in cea["rows"]:
            if not oracles.below(row["galerkin_error"], row["bound_rhs"]):
                fails.append(f"cea bound fails at dim {row['dim']}")
            if not oracles.below(row["best_error"], row["galerkin_error"]):
                fails.append(f"best approximation above Galerkin error at dim {row['dim']}")
        return fails
    return check


def semigroup_check(modes, amps):
    """Deviations against the closed-form flow and the backward Euler recursion.

    The sup over [0, T] must match the flow within twice the certified
    stepper error; every point of the trace must match backward Euler with
    the accepted step count to round-off.
    """
    def check(summary, code, outdir):
        fails = _exit_zero(code)
        sg = summary.get("semigroup")
        if sg is None:
            return fails + ["no semigroup report"]
        traces = {}
        with open(outdir / "deviation_trace.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                traces.setdefault(float(row["epsilon"]), []).append(float(row["deviation"]))
        devs = []
        for row in sg["rows"]:
            eps = row["epsilon"]
            want = oracles.flow_sup(modes, amps, eps, SEMIGROUP_T)
            if abs(row["deviation"] - want) > 2.0 * row["certified_error"] + 1e-14:
                fails.append(f"flow deviation {row['deviation']!r} misses closed form "
                             f"{want!r} by more than 2 x {row['certified_error']!r}")
            # the accepted march covers [0, 2T] with 2 * steps steps
            stepped = oracles.backward_euler_deviations(
                modes, amps, eps, 2.0 * SEMIGROUP_T, 2 * row["steps"])
            got = traces.get(eps, [])
            if len(got) != len(stepped) or not all(
                    oracles.close(g, float(w), 1e-9) for g, w in zip(got, stepped)):
                fails.append(f"deviation trace at eps={eps!r} misses backward Euler")
            devs.append(row["deviation"])
        s = oracles.slope([r["epsilon"] for r in sg["rows"]], devs)
        if not s >= 0.95:
            fails.append(f"flow slope {s!r} < 0.95")
        return fails
    return check


def parabolic_check(modes, amps, tol):
    """Backward Euler deviations in closed form, monotone and below tol."""
    def check(summary, code, outdir):
        fails = _exit_zero(code)
        par = summary.get("parabolic")
        if par is None:
            return fails + ["no parabolic report"]
        sups = []
        for row in par["rows"]:
            eps = row["epsilon"]
            devs = oracles.backward_euler_deviations(
                modes, amps, eps, PARABOLIC_T, PARABOLIC_STEPS,
                start_scale=1.0 + PARABOLIC_U0_COEFF * eps)
            if not oracles.close(row["initial_gap"], float(devs[0]), 1e-9):
                fails.append(f"initial gap {row['initial_gap']!r} != {float(devs[0])!r}")
            if not oracles.close(row["sup_deviation"], float(devs.max()), 1e-9):
                fails.append(f"parabolic sup {row['sup_deviation']!r} != closed form "
                             f"{float(devs.max())!r} at eps={eps!r}")
            sups.append(row["sup_deviation"])
        if not oracles.nonincreasing(sups):
            fails.append("parabolic deviations not monotone")
        if not sups or not sups[-1] <= tol:
            fails.append("parabolic deviation not below tol")
        return fails
    return check


def resolvent_check(modes, amps):
    def check(summary, code, outdir):
        fails = _exit_zero(code)
        res = summary.get("resolvent")
        if res is None:
            return fails + ["no resolvent report"]
        for eps, dev in zip(res["epsilons"], res["deviations"]):
            want = oracles.resolvent_deviation(modes, amps, eps, RESOLVENT_MU)
            if not oracles.close(dev, want, 1e-9):
                fails.append(f"resolvent deviation {dev!r} != closed form {want!r}")
        s = oracles.slope(res["epsilons"], res["deviations"])
        if not s >= 0.95:
            fails.append(f"resolvent slope {s!r} < 0.95")
        return fails
    return check


def spectral(seed):
    """Sine bases: an AP diagram with reference m=32 and a 2D-coefficient rate study."""
    modes = SPECTRAL_MODES
    amps = amplitudes(seed, "spectral", len(modes))
    return [
        Study("ap", config_text(modes, amps, "sine", 16, {
            "kind": "ap", "epsilons": AP_EPSILONS, "sizes": AP_SIZES}),
            ap_check(modes, amps)),
        Study("rate_2d", config_text(modes, amps, "sine", 16, {
            "kind": "rate", "epsilons": RATE_EPSILONS, "check_bound": "true"},
            _OFFDIAG), rate_check(modes, amps)),
    ]


def q1(seed):
    """q1 bases at m=128: separable and element-assembled rate studies, a Picard Cea check."""
    modes = Q1_MODES
    amps = amplitudes(seed, "q1", len(modes))
    # The q1 Galerkin eigenvalue of mode k is off by about (k h)^2 / 12
    # relative per direction; e_x2 may miss the closed form by twice that.
    kmax = max(max(p, q) for p, q in modes)
    q1_rel = (kmax * math.pi / Q1_M) ** 2 / 6.0
    rate_study = {"kind": "rate", "epsilons": RATE_EPSILONS, "check_bound": "true"}
    return [
        Study("rate_identity", config_text(modes, amps, "q1", Q1_M, rate_study),
              rate_check(modes, amps, closed_form_rel=q1_rel)),
        Study("rate_2d", config_text(modes, amps, "q1", Q1_M, rate_study,
                                     dict(_OFFDIAG, a22="1 + x2*x2/10")),
              rate_check(modes, amps)),
        Study("cea_arctan", config_text(modes, amps, "q1", 8, {
            "kind": "cea", "sizes": (8, 16, 32), "damping": 0.5},
            {"a22": "1 + x2*x2/10", "beta": "arctan"}), cea_check()),
    ]


def flow(seed):
    """Small sine spaces: semigroup, parabolic and resolvent studies."""
    modes = FLOW_MODES
    amps = amplitudes(seed, "flow", len(modes))
    tol = 0.1 * math.sqrt(sum(a * a for a in amps))
    return [
        Study("semigroup", config_text(modes, amps, "sine", 8, {
            "kind": "semigroup", "epsilons": FLOW_EPSILONS, "T": SEMIGROUP_T,
            "stepper": "be", "steps": 256}), semigroup_check(modes, amps)),
        Study("parabolic", config_text(modes, amps, "sine", 8, {
            "kind": "parabolic", "epsilons": PARABOLIC_EPSILONS, "T": PARABOLIC_T,
            "stepper": "be", "steps": PARABOLIC_STEPS,
            "u0_eps_coeff": PARABOLIC_U0_COEFF, "tol": tol}),
            parabolic_check(modes, amps, tol)),
        Study("resolvent", config_text(modes, amps, "sine", 8, {
            "kind": "resolvent", "epsilons": RESOLVENT_EPSILONS,
            "mu": RESOLVENT_MU}), resolvent_check(modes, amps)),
    ]


WORKLOADS = {"spectral": spectral, "q1": q1, "flow": flow}
