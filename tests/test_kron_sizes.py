"""Smoke run of ``tools/kron_sizes.py``, which times the limit solve through
``AssembledProblem.operator`` and ``tensor_preconditioner``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_size_runs_and_reports_its_row():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kron_sizes.py"), "--sizes", "4"],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    lines = run.stdout.splitlines()
    assert len(lines) == 3
    assert lines[1].split() == ["m", "dim", "assemble", "ms", "stored",
                                "doubles", "limit", "solve", "ms", "CG", "its"]
    m, dim, _, stored, _, iterations = lines[2].split()
    # identity coefficients: the preconditioner is the exact inverse
    assert (m, dim, stored, iterations) == ("4", "16", "64", "1")
