"""Time ``semigroup.evolve`` on its dense and ``splu`` routes, to place the crossover.

Run from the repository root:

    PYTHONPATH=src python3 tools/step_crossover.py

For identity-coefficient limit generators on q1 x q1 (m = 8, 16, 24, 32)
and sine x sine (m = 8, 16, 24) spaces, each route marches backward Euler
for ``STEPS`` steps, propagator construction included, with the route
forced through ``semigroup._DENSE_STEP_RATIO``.  One line per space gives
the dimension ``n``, the stored entries ``nnz`` of ``M + tau K``,
``n^2 / nnz``, the microseconds per step of each route (best of
``REPEATS`` calls) and their ratio.  The route ``evolve`` takes by default
is dense exactly when ``n^2 / nnz <= semigroup._DENSE_STEP_RATIO``.
BLAS runs single-threaded.  Needs numpy, scipy and anisolab only.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import math  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from anisolab import semigroup  # noqa: E402
from anisolab.coefficients import CoefficientField  # noqa: E402
from anisolab.elliptic import LIMIT  # noqa: E402
from anisolab.spaces import TensorDomain, build_space  # noqa: E402

STEPS = 1024
REPEATS = 3
T = 1.0
SPACES = [("q1", m) for m in (8, 16, 24, 32)] + [("sine", m) for m in (8, 16, 24)]


def us_per_step(gen, g, cfg, ratio: float) -> float:
    """Best-of-``REPEATS`` wall time of one ``evolve`` call per step, in µs."""
    saved = semigroup._DENSE_STEP_RATIO
    semigroup._DENSE_STEP_RATIO = ratio
    try:
        best = math.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            semigroup.evolve(gen, g, cfg)
            best = min(best, time.perf_counter() - t0)
    finally:
        semigroup._DENSE_STEP_RATIO = saved
    return 1e6 * best / cfg.steps


def main() -> None:
    dom = TensorDomain((0.0, math.pi), (0.0, math.pi))
    A = CoefficientField.identity()
    cfg = semigroup.EvolutionConfig(T=T, stepper="be", steps=STEPS)
    print(f"backward Euler, {STEPS} steps, T = {T}; "
          f"default dense while n^2/nnz <= {semigroup._DENSE_STEP_RATIO:g}")
    print(f"{'space':<12}{'n':>6}{'nnz':>9}{'n^2/nnz':>9}"
          f"{'dense us':>10}{'splu us':>10}{'splu/dense':>12}")
    for kind, m in SPACES:
        space = build_space(dom, kind, m, kind, m)
        gen = semigroup.build_generator(space, A, LIMIT)
        g = np.random.default_rng(0).normal(size=gen.dim)
        n = gen.dim
        nnz = (gen.M + (T / STEPS) * gen.K).tocsc().nnz
        dense = us_per_step(gen, g, cfg, math.inf)
        splu = us_per_step(gen, g, cfg, 0.0)
        print(f"{kind + ' m=' + str(m):<12}{n:>6}{nnz:>9}{n * n / nnz:>9.1f}"
              f"{dense:>10.2f}{splu:>10.2f}{splu / dense:>12.2f}")


if __name__ == "__main__":
    main()
