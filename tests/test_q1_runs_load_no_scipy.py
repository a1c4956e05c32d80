"""q1 runs load no scipy module unless they factorise, from a cold
interpreter.

The twelve sine configs of ``tests/test_sparse_on_first_use.py``, run with
both bases q1, load no ``scipy*`` module: their 1D factors keep their three
diagonals, their operators fold into one 9-point stencil, and every solve is
preconditioned CG.  Three runs load ``scipy.sparse`` on purpose, each named
below with its reason.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PRELUDE = r"""
import sys
from pathlib import Path

from anisolab.cli import run_config
from anisolab.config import load_config, shipped_config_dir

tmp = Path(sys.argv[1])
shared = Path(sys.argv[2]) / "tools" / "configs"


def scipy_loaded():
    return sorted(name for name in sys.modules if name.startswith("scipy"))


def run_q1(path, **problem):
    cfg = load_config(path)
    cfg.discretization.basis1 = cfg.discretization.basis2 = "q1"
    for key, value in problem.items():
        setattr(cfg.problem, key, value)
    summary, code = run_config(cfg, tmp / f"{path.stem}_q1")
    assert code == 0, (path.name, summary)
"""

TWELVE = PRELUDE + r"""
paths = [shipped_config_dir() / f"{name}.cfg" for name in (
    "rate_identity", "rate_offdiag_const", "rate_offdiag_variable",
    "solve_identity", "dq_identity", "ap_identity", "semigroup_identity",
    "parabolic_identity", "resolvent_identity")]
paths += [shared / f"{name}.cfg" for name in (
    "parabolic_source", "rate_linear", "rate_nonseparable")]
for path in paths:
    run_q1(path)
    assert not scipy_loaded(), f"loaded by {path.name}: {scipy_loaded()}"
"""

# A nonsymmetric system is solved by one sparse LU of its CSR.
NONSYMMETRIC = PRELUDE + r"""
run_q1(shared / "solve_nonsymmetric.cfg")
assert "scipy.sparse.linalg" in sys.modules, scipy_loaded()
"""

# A coupled flow has no diagonal route: build_generator materialises its
# generator as CSR, marched by a dense propagator or splu.
COUPLED_FLOW = PRELUDE + r"""
run_q1(shipped_config_dir() / "semigroup_identity.cfg",
       a12="0.2", a21="0.2", lam=0.75)
assert "scipy.sparse" in sys.modules, scipy_loaded()
"""

# tensor_semigroup_oracle_check builds its 2D and 1D generators as CSR.
TENSOR_ORACLE = PRELUDE + r"""
import math

import numpy as np

from anisolab.coefficients import CoefficientField
from anisolab.semigroup import tensor_semigroup_oracle_check
from anisolab.spaces import TensorDomain, build_space

space = build_space(TensorDomain((0.0, math.pi), (0.0, math.pi)), "q1", 8, "q1", 8)
assert not scipy_loaded()
report = tensor_semigroup_oracle_check(space, CoefficientField.identity(),
                                       np.sin, np.sin, 0.5, 2.0)
assert report.passed
assert "scipy.sparse" in sys.modules, scipy_loaded()
"""


def _run(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path), str(ROOT)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr


def test_q1_runs_of_the_twelve_sine_configs_load_no_scipy_module(tmp_path):
    _run(TWELVE, tmp_path)


def test_nonsymmetric_q1_solve_loads_the_sparse_lu(tmp_path):
    _run(NONSYMMETRIC, tmp_path)


def test_coupled_q1_flow_loads_scipy_sparse_for_its_generator(tmp_path):
    _run(COUPLED_FLOW, tmp_path)


def test_tensor_oracle_loads_scipy_sparse_for_its_generators(tmp_path):
    _run(TENSOR_ORACLE, tmp_path)
