"""Smoke runs of ``tools/kron_sizes.py`` on sine and q1 bases, which time
the limit solve through ``AssembledProblem.operator`` and
``tensor_preconditioner``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _row(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kron_sizes.py"), *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    lines = run.stdout.splitlines()
    assert len(lines) == 3
    assert lines[1].split() == ["m", "dim", "assemble", "ms", "stored",
                                "doubles", "limit", "solve", "ms", "CG", "its"]
    m, dim, _, stored, _, iterations = lines[2].split()
    return m, dim, stored, iterations


def test_one_size_runs_and_reports_its_row():
    # identity coefficients: the preconditioner is the exact inverse
    assert _row("--sizes", "4") == ("4", "16", "64", "1")


def test_one_q1_size_counts_its_stencils():
    # four shared 1D factors of 3 diagonals, and a stencil of 9 * 3 * 3
    # doubles for each of K11, K22, M, G1 and G2 (K12 and K21 are zero)
    assert _row("--basis", "q1", "--sizes", "4") == ("4", "9", str(4 * 9 + 5 * 81), "1")
