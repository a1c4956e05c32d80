"""``scipy.sparse`` loads on first use, from a cold interpreter.

``import anisolab`` and every sine run that takes no LU load no scipy module
at all: their operators stay dense or factored, and ``linsolve.issparse``
answers without importing ``scipy.sparse``.  A q1 run loads ``scipy.sparse``
at its first tridiagonal factor, and still none of the direct solvers.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import sys
from pathlib import Path

DIRECT = ("scipy.linalg", "scipy.sparse.linalg", "scipy.io")


def scipy_loaded():
    return sorted(name for name in sys.modules if name.startswith("scipy"))


import anisolab, anisolab.cli
assert not scipy_loaded(), f"loaded at import: {scipy_loaded()}"

import numpy as np

from anisolab.assembly import KronOperator
from anisolab.linsolve import issparse, sparse

assert not issparse(np.eye(2))
assert not issparse(KronOperator(2, 2, [(1.0, np.eye(2), np.eye(2))]))
assert not scipy_loaded(), f"loaded by issparse: {scipy_loaded()}"

from anisolab.cli import run_config
from anisolab.config import load_config, shipped_config_dir

tmp = Path(sys.argv[1])
shared = Path(sys.argv[2]) / "tools" / "configs"
sine = [shipped_config_dir() / f"{name}.cfg" for name in (
    "rate_identity", "rate_offdiag_const", "rate_offdiag_variable",
    "solve_identity", "dq_identity", "ap_identity", "semigroup_identity",
    "parabolic_identity", "resolvent_identity")]
sine += [shared / f"{name}.cfg" for name in (
    "parabolic_source", "rate_linear", "rate_nonseparable")]
for path in sine:
    summary, code = run_config(load_config(path), tmp / path.stem)
    assert code == 0, (path.name, summary)
    assert not scipy_loaded(), f"loaded by {path.name}: {scipy_loaded()}"

cfg = load_config(shipped_config_dir() / "rate_identity.cfg")
cfg.discretization.basis1 = cfg.discretization.basis2 = "q1"
summary, code = run_config(cfg, tmp / "rate_identity_q1")
assert code == 0, summary
assert "scipy.sparse" in sys.modules
assert not [name for name in DIRECT if name in sys.modules], scipy_loaded()

assert issparse(sparse().csr_matrix(np.eye(2)))
"""


def test_sine_runs_load_no_scipy_module(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), str(ROOT)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
