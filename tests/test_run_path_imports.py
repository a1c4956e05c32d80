"""A run loads neither ``numpy.random`` nor ``argparse``, from a cold
interpreter.

The ellipticity check of ``coefficients.structure_faults`` probes the fixed
directions of ``PROBE_DIRECTIONS`` instead of drawing them, and ``cli``
imports ``argparse`` only to build its parser.  So ``import anisolab``,
``load_config`` of every shipped and ``tools/configs`` config and
``run_config`` of the sine configs of ``test_sparse_on_first_use.py`` load
neither module; ``cli.main`` still parses and runs a config.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from anisolab.coefficients import PROBE_DIRECTIONS

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import sys
from pathlib import Path

OPTIONAL = ("numpy.random", "argparse")


def loaded():
    return [name for name in OPTIONAL if name in sys.modules]


import anisolab, anisolab.cli
assert not loaded(), f"loaded at import: {loaded()}"

from anisolab import cli
from anisolab.config import load_config, shipped_config_dir

tmp = Path(sys.argv[1])
shared = Path(sys.argv[2]) / "tools" / "configs"
shipped, tools = (sorted(d.glob("*.cfg")) for d in (shipped_config_dir(), shared))
assert shipped and tools, (shipped, tools)
for path in shipped + tools:
    load_config(path)
    assert not loaded(), f"loaded by load_config({path.name}): {loaded()}"

sine = [shipped_config_dir() / f"{name}.cfg" for name in (
    "rate_identity", "rate_offdiag_const", "rate_offdiag_variable",
    "solve_identity", "dq_identity", "ap_identity", "semigroup_identity",
    "parabolic_identity", "resolvent_identity")]
sine += [shared / f"{name}.cfg" for name in (
    "parabolic_source", "rate_linear", "rate_nonseparable")]
for path in sine:
    summary, code = cli.run_config(load_config(path), tmp / path.stem)
    assert code == 0, (path.name, summary)
    assert not loaded(), f"loaded by {path.name}: {loaded()}"

code = cli.main(["run", "--config", str(shipped_config_dir() / "rate_identity.cfg"),
                 "--out", str(tmp / "main")])
assert code == 0, code
assert (tmp / "main" / "summary.json").is_file()
assert "argparse" in sys.modules
"""


def test_run_path_loads_no_numpy_random_or_argparse(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), str(ROOT)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr


def test_probe_directions_are_the_normalised_seed_0_draw():
    xi = np.random.default_rng(0).normal(size=(8, 2))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    assert np.array_equal(np.array(PROBE_DIRECTIONS), xi)
