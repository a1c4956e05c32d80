"""Assembly time, storage and limit-solve time of systems by size.

Run from the repository root:

    PYTHONPATH=src python3 tools/kron_sizes.py [--basis sine] [--sizes 16 32 48 64]
    PYTHONPATH=src python3 tools/kron_sizes.py --basis q1 [--sizes 128 256 512]

For identity coefficients and the source ``(2/pi) sin(x1) sin(x2)`` on
``basis x basis`` spaces of ``m`` modes (sine) or subintervals (q1) per
direction, one line per ``m`` gives the median over ``REPEATS`` calls of
``assemble_system`` on a fresh space (quadrature tables and norm matrices
included), the doubles the system stores in K11, K12, K21, K22, M, G1 and
G2, and the median time and CG iterations of the preconditioned limit
solve.  The doubles are the values of a CSR matrix, and the 1D factors,
remainders and stencil of a factored operator, each array counted once: a
q1 x q1 block holds its 1D diagonals and, folded on first use, one 9-point
stencil of ``9 n1 n2`` doubles.  The storage of a sine CSR system grows like
m^4 (16.7M values per matrix at m = 64), so size ``--sizes`` to the memory
at hand.  BLAS runs single-threaded.  Needs numpy and anisolab only (scipy
too for a tree that stores CSR).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

from anisolab import assembly, linsolve  # noqa: E402
from anisolab.coefficients import CoefficientField, SourceField  # noqa: E402
from anisolab.elliptic import LIMIT  # noqa: E402
from anisolab.expressions import parse_expression  # noqa: E402
from anisolab.spaces import TensorDomain, build_space  # noqa: E402

REPEATS = 5
BLOCKS = ("K11", "K12", "K21", "K22", "M", "G1", "G2")
DEFAULT_SIZES = {"sine": [16, 32, 48, 64], "q1": [128, 256, 512]}


def doubles(a) -> int:
    """Values stored by one matrix: the weights of a stencil, the diagonals
    of a tridiagonal factor, the values of a CSR matrix, the entries of a
    dense one."""
    for attr in ("weights", "bands"):
        if hasattr(a, attr):
            return getattr(a, attr).size
    return getattr(a, "nnz", None) or a.size


def stored_doubles(system) -> int:
    """Values stored by the system's matrices, each array counted once."""
    arrays = {}
    for name in BLOCKS:
        block = getattr(system, name)
        if hasattr(block, "terms"):
            found = [B for _, B1, B2 in block.terms for B in (B1, B2)]
            found += [R for _, R in block.remainders]
            found += [S for S in [getattr(block, "stencil", None)] if S is not None]
        else:
            found = [block]
        for a in found:
            arrays[id(a)] = a
    return sum(map(doubles, arrays.values()))


def median_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--basis", choices=sorted(DEFAULT_SIZES), default="sine")
    parser.add_argument("--sizes", type=int, nargs="+")
    args = parser.parse_args(argv)
    basis = args.basis
    dom = TensorDomain((0.0, math.pi), (0.0, math.pi))
    A = CoefficientField.identity()
    f = SourceField(parse_expression("(2/pi)*sin(x1)*sin(x2)"))
    print(f"{basis} x {basis}, identity coefficients; medians of {REPEATS} "
          "calls, BLAS on one thread")
    print(f"{'m':>4}{'dim':>7}{'assemble ms':>13}{'stored doubles':>16}"
          f"{'limit solve ms':>16}{'CG its':>8}")
    for m in args.sizes or DEFAULT_SIZES[basis]:
        def assemble():
            return assembly.assemble_system(build_space(dom, basis, m, basis, m),
                                            A, f)

        assemble_ms = median_ms(assemble)
        system = assemble()
        stored = stored_doubles(system)

        def limit_solve():
            return linsolve.solve(system.operator(LIMIT), system.F,
                                  precond=system.tensor_preconditioner(LIMIT))

        solve_ms = median_ms(limit_solve)
        iterations = limit_solve().iterations
        print(f"{m:>4}{system.space.dim:>7}{assemble_ms:>13.1f}{stored:>16,}"
              f"{solve_ms:>16.2f}{iterations:>8}")
        del system


if __name__ == "__main__":
    main()
