"""Reference size sweeps for the README, outside the timed workloads.

    python3 perfbench/sweeps.py

Prints the wall time (median of three) of one sine ``bilinear_form`` with a
genuinely 2D coefficient (the 12 block of the ``spectral`` rate study) per
size, and the Jacobi-CG iteration counts of the ``q1`` rate_2d problem per
mesh size and epsilon.  Thread counts are fixed as in run.py.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

from run import SRC, THREAD_ENV

EPSILONS = (1 / 2, 1 / 16, 1 / 128)
SINE_SIZES = (16, 32, 48)  # 48 peaks at about 0.9 GB
Q1_SIZES = (64, 128, 256)


def main():
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import workloads
    from anisolab.assembly import assemble_system, bilinear_form
    from anisolab.config import build_problem_objects, make_space, parse_config
    from anisolab.linsolve import solve

    spectral_rate = parse_config(workloads.spectral(1)[1].text)
    domain, A, _, _ = build_problem_objects(spectral_rate)
    for m in SINE_SIZES:
        space = make_space(spectral_rate, domain, m1=m, m2=m)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            bilinear_form(space, A.a12, 1, 2)
            times.append(time.perf_counter() - t0)
            space = make_space(spectral_rate, domain, m1=m, m2=m)  # fresh tables
        print(f"sine bilinear_form 2D coefficient m={m}: {statistics.median(times):.3f} s")

    q1_rate = parse_config(workloads.q1(1)[1].text)
    domain, A, source, _ = build_problem_objects(q1_rate)
    for m in Q1_SIZES:
        space = make_space(q1_rate, domain, m1=m, m2=m)
        system = assemble_system(space, A, source)
        counts = [solve(system.stiffness(eps), system.F).iterations for eps in EPSILONS]
        print(f"q1 Jacobi-CG iterations m={m}: "
              + ", ".join(f"eps=1/{round(1 / e)}: {n}" for e, n in zip(EPSILONS, counts)))


if __name__ == "__main__":
    main()
