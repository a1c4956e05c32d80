"""``scipy.sparse`` loads on first use, from a cold interpreter.

``import anisolab`` and every sine run that takes no LU load no scipy module
at all: their operators stay dense or factored, and ``linsolve.issparse``
answers without importing ``scipy.sparse``.  A q1 run that factorises
nothing loads none either: its 1D factors keep their three diagonals and
its operators fold into a 9-point stencil.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import sys
from pathlib import Path


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
assert not scipy_loaded(), f"loaded by the q1 run: {scipy_loaded()}"

assert issparse(sparse().csr_matrix(np.eye(2)))
"""


# Picard's inner solve and the Cea best approximation take the factored
# operators: the semilinear and Cea configs load no scipy module on sine
# bases, and none of the direct solvers on q1 bases
SPD_SCRIPT = r"""
import sys
from pathlib import Path

DIRECT = ("scipy.linalg", "scipy.sparse.linalg", "scipy.io")


def scipy_loaded():
    return sorted(name for name in sys.modules if name.startswith("scipy"))


from anisolab.cli import run_config
from anisolab.config import load_config, shipped_config_dir

tmp = Path(sys.argv[1])
shared = Path(sys.argv[2]) / "tools" / "configs"
paths = [shipped_config_dir() / "cea_variable_a22.cfg",
         shared / "solve_arctan.cfg", shared / "cea_arctan.cfg"]
for path in paths:
    cfg = load_config(path)
    cfg.discretization.basis1 = cfg.discretization.basis2 = "sine"
    summary, code = run_config(cfg, tmp / f"{path.stem}_sine")
    assert code == 0, (path.name, summary)
    assert not scipy_loaded(), f"loaded by {path.name}: {scipy_loaded()}"

summary, code = run_config(load_config(shared / "cea_arctan.cfg"),
                           tmp / "cea_arctan")
assert code == 0, summary
assert not [name for name in DIRECT if name in sys.modules], scipy_loaded()
"""


def _run(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path), str(ROOT)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr


def test_sine_runs_load_no_scipy_module(tmp_path):
    _run(SCRIPT, tmp_path)


def test_picard_and_cea_runs_load_no_direct_solver(tmp_path):
    _run(SPD_SCRIPT, tmp_path)
