"""Benchmark of anisolab's studies, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectral|q1|flow|all --seed N \
        --seconds S --trace 0|1

Each workload is a closed loop with one client: one process runs rounds of
a fixed study list back to back.  A round loads each generated config and
runs it through ``run_config`` with reports written, as ``anisolab run``
does; every study is then checked against closed-form oracles or method
properties (``workloads.py``, ``oracles.py``).  One study is one operation.

``--trace 0`` reports the end-to-end metrics ``round_s`` (median round wall
time after one warm-up round), ``peak_rss_mb`` (peak resident set of a fresh
process that runs one round) and ``setup_s`` (median time from a fresh
interpreter to anisolab imported and the configs parsed and built, over
SETUP_PROBES interpreters started between the timed rounds).
``--trace 1`` alternates untraced rounds with rounds traced by wrapping
anisolab's functions from outside, and reports the per-layer self times and
counts per round plus the tracing overhead.
The last line of standard output is one JSON object.  ``--workload all``
runs each workload in its own process and prints them side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Workload names, metric names and units come from the manifest.
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in MANIFEST["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
# Fixed here so that the figures do not depend on the machine's defaults.
THREAD_ENV = {"ANISO_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Fresh interpreters behind setup_s, spread evenly over the timed rounds so
# that a slow phase of the machine cannot take them all.
SETUP_PROBES = 21
# glibc keeps some freed arrays in its heap, and how many depends on the
# allocation history, so a process's peak varies by about 10% from run to
# run.  Pinned, the threshold stops adapting and every array of 128 KiB or
# more is unmapped when freed.
MEMORY_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
MIN_ROUNDS = 3


def _one(key):
    return lambda result, args, kwargs: {key: 1}


def _points(result, args, kwargs):
    import numpy as np
    values = dict(zip(("x1", "x2", "t"), args[1:]), **kwargs)
    shape = np.broadcast_shapes(*(np.shape(v) for v in values.values()))
    return {"expressions.points": int(np.prod(shape))}


def _assembly_class(space, coef, *args, **kwargs):
    """Input class of a bilinear form: separable coefficient, else by basis pair."""
    if hasattr(coef, "deps"):
        deps = coef.deps
    elif hasattr(coef, "variables"):
        deps = coef.variables & {"x1", "x2"}
    else:
        deps = set() if isinstance(coef, (int, float)) else {"x1", "x2"}
    if len(deps) < 2:
        return "assembly.separable"
    if space.basis1.kind == space.basis2.kind == "q1":
        return "assembly.q1_2d"
    return "assembly.sine_2d"


def trace_targets():
    """``(owner, attribute, span name, counter)`` for every traced function."""
    from anisolab import (assembly, cli, coefficients, config, diagnostics,
                          elliptic, expressions, linsolve, semigroup, spaces)
    targets = [
        (config, "load_config", "config.parse", None),
        (config, "parse_config", "config.parse", None),
        (config, "build_problem_objects", "config.build", None),
        (config, "make_space", "config.build", None),
        (coefficients, "compute_constants", "coefficients.ledger",
         _one("coefficients.ledger_calls")),
        (coefficients.CoefficientField, "validate", "coefficients.validate", None),
        (spaces, "embedding_matrix", "spaces.embedding", None),
        (expressions.Expression, "__call__", "expressions.eval", _points),
        (assembly, "bilinear_form", _assembly_class, _one("assembly.bilinear_calls")),
        (assembly, "assemble_load", "assembly.load", None),
        (assembly, "assemble_system", "assembly.system", _one("assembly.system_calls")),
        (linsolve, "solve", "linsolve.solve",
         lambda r, a, k: {"linsolve.solves": 1, "linsolve.cg_iterations": r.iterations}),
        (elliptic, "solve_linear", "elliptic.solve", None),
        (elliptic, "solve_semilinear", "elliptic.solve",
         lambda r, a, k: {"elliptic.picard_iterations": r.picard_iterations}),
        (semigroup, "evolve", "semigroup.evolve",
         lambda r, a, k: {"semigroup.steps": len(r.step_norms) - 1}),
        (semigroup, "resolvent_deviation", "semigroup.resolvent", None),
        # an accepted march evolves both flows over [0, 2T] with 2 * steps steps
        (semigroup, "semigroup_deviation_study", "semigroup.study",
         lambda r, a, k: {"semigroup.accepted_steps": sum(4 * row.steps for row in r.rows)}),
        (semigroup, "parabolic_convergence", "semigroup.study", None),
        (cli, "run_config", "cli.run_config", None),
    ]
    for cls in (spaces.Q1Basis, spaces.SineBasis):
        targets += [(cls, "quad_points", "spaces.tables", None),
                    (cls, "eval_table", "spaces.tables", None)]
    for fn in ("rate_study", "cea_check", "ap_diagram", "difference_quotient_bound",
               "linear_reaction_rate_study"):
        targets.append((diagnostics, fn, "diagnostics.study", None))
    return targets


def useful_step_ratios(spans):
    """Per round: steps of accepted marches / all steps marched (0 if none).

    Steps marched inside a step-doubling study count as useful only for its
    accepted marches; every other march is used as it is.
    """
    out = {}
    for s in spans:
        steps = s.counts.get("semigroup.steps")
        if not steps:
            continue
        marched, useful = out.get(s.round, (0, 0))
        p = s.parent
        while p >= 0 and "semigroup.accepted_steps" not in spans[p].counts:
            p = spans[p].parent
        out[s.round] = (marched + steps, useful + (steps if p < 0 else 0))
    for s in spans:
        if "semigroup.accepted_steps" in s.counts:
            marched, useful = out.get(s.round, (0, 0))
            out[s.round] = (marched, useful + s.counts["semigroup.accepted_steps"])
    return {r: (u / m if m else 0.0) for r, (m, u) in out.items()}


def probe(cfg_paths, env, round_dir=None):
    """Run setup_probe.py; returns (seconds from start to ready, its later output)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py")]
    if round_dir is not None:
        cmd += ["--round", str(round_dir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + [str(p) for p in cfg_paths], stdout=subprocess.PIPE,
                            env=env, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    rest = proc.stdout.read()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed, rest


def peak_rss(cfg_paths, round_dir, env):
    """``peak_rss_mb`` of a fresh interpreter that runs one round.

    It runs with glibc's mmap threshold pinned (MEMORY_ENV), so its peak
    resident set is the peak of live memory.  It also fills the bytecode
    caches before the set-up probes.
    """
    shutil.rmtree(round_dir, ignore_errors=True)
    return float(probe(cfg_paths, dict(env, **MEMORY_ENV), round_dir)[1])


def clear_caches():
    """Empty anisolab's function caches, as each ``anisolab`` process starts.

    They are keyed by space objects, which no later round reuses, so across
    rounds they would only hold memory.
    """
    for name, module in list(sys.modules.items()):
        if name == "anisolab" or name.startswith("anisolab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Runner:
    """Runs rounds of one workload's studies and checks every result."""

    def __init__(self, name, studies):
        self.studies = studies
        self.dir = OUT / name
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.dir.mkdir(parents=True, exist_ok=True)
        for st in studies:
            (self.dir / f"{st.name}.cfg").write_text(st.text)

    def config_paths(self):
        return [self.dir / f"{st.name}.cfg" for st in self.studies]

    def round(self):
        """Run every study once; returns the wall time spent in anisolab."""
        from anisolab import cli, config  # looked up per call, so tracing applies
        clear_caches()
        spent = 0.0
        for st in self.studies:
            outdir = self.dir / st.name
            # the checks read report files: none may be left from an earlier round
            shutil.rmtree(outdir, ignore_errors=True)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                summary, code = cli.run_config(
                    config.load_config(self.dir / f"{st.name}.cfg"), outdir)
            except Exception as exc:  # a crash is one failed operation
                spent += time.perf_counter() - t0
                self.failed += 1
                print(f"{st.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            spent += time.perf_counter() - t0
            try:
                problems = st.check(summary, code, outdir)
            except Exception as exc:  # a report the check cannot read is wrong
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.wrong += code == 0
                print(f"{st.name}: " + "; ".join(problems[:5]), file=sys.stderr)
        return spent

    def rounds(self, seconds, between, count):
        """Round times of back-to-back rounds for ``seconds`` (at least MIN_ROUNDS).

        ``between()`` is called ``count`` times in all, spread evenly over
        the same ``seconds`` between rounds; its results are returned too.
        """
        times, extra = [], []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(times) >= MIN_ROUNDS and elapsed >= seconds:
                break
            if len(extra) < count * min(1.0, elapsed / seconds):
                extra.append(between())
            else:
                times.append(self.round())
        while len(extra) < count:
            extra.append(between())
        return times, extra


def run_workload(args):
    os.environ.update(THREAD_ENV)  # before numpy is imported
    import workloads
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    studies = workloads.WORKLOADS[args.workload](args.seed)
    sys.path.insert(0, str(SRC))
    import anisolab
    if Path(anisolab.__file__).resolve().parent != (SRC / "anisolab").resolve():
        raise RuntimeError(f"imported anisolab from {anisolab.__file__}, not {SRC}")
    runner = Runner(args.workload, studies)
    cfg_paths = runner.config_paths()
    if not args.trace:
        peak_rss_mb = peak_rss(cfg_paths, runner.dir / "probe", env)
    runner.round()  # warm-up
    if not args.trace:
        times, setups = runner.rounds(
            args.seconds, lambda: probe(cfg_paths, env)[0], SETUP_PROBES)
        (runner.dir / "rounds.json").write_text(json.dumps(
            {"round_s": times, "setup_s": setups}))
        metrics = {"round_s": statistics.median(times), "peak_rss_mb": peak_rss_mb,
                   "setup_s": statistics.median(setups)}
        units = END_TO_END
        note = (f"{len(times)} rounds of {len(studies)} studies, "
                f"{len(setups)} set-up probes")
    else:
        from tracer import Tracer, medians, per_round
        tracer = Tracer()
        targets = trace_targets()
        untraced, traced = [], []
        start = time.perf_counter()
        # Traced and untraced rounds alternate, so that their pairwise
        # differences see the same phase of the machine.
        while len(traced) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            untraced.append(runner.round())
            tracer.round = len(traced)
            for target in targets:
                tracer.install(*target)
            try:
                traced.append(runner.round())
            finally:
                tracer.uninstall()
        tracer.dump(OUT / f"trace-{args.workload}.json")
        tables = per_round(tracer.spans)
        for r, ratio in useful_step_ratios(tracer.spans).items():
            tables[r]["semigroup.useful_step_ratio"] = ratio
        metrics = medians([tables.get(r, {}) for r in range(len(traced))], PER_LAYER)
        metrics["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced, untraced))
        units = PER_LAYER
        note = f"{len(traced)} pairs of untraced and traced rounds"
    for name, value in metrics.items():
        print(f"{args.workload:9s} {name:30s} {value:14.6g} {units[name]}")
    print(f"{args.workload:9s} {note}; attempted {runner.attempted}, failed {runner.failed}")
    return {"correct": runner.wrong == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}


def run_all(args):
    """Each workload in its own process; metrics prefixed by workload name."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        one = json.loads(lines[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for metric, entry in one["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = entry
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "anisolab" / "__init__.py").is_file():
        print(f"error: no anisolab sources under {SRC}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
