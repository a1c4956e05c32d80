"""The direct solvers load on first use, from a cold interpreter.

``import anisolab``, studies that only take CG or a dense propagator, and
two-term flows marched on the diagonal load none of ``scipy.linalg``,
``scipy.sparse.linalg`` or ``scipy.io``.  Each
route that does need one imports it at its call site; the script runs every
such route once, so a call site that lost its import fails with a
``NameError``.  No route loads ``scipy.io``.
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


def loaded():
    return [name for name in DIRECT if name in sys.modules]


import anisolab, anisolab.cli
assert not loaded(), f"loaded at import: {loaded()}"

from anisolab.cli import run_config
from anisolab.config import load_config, shipped_config_dir

tmp = Path(sys.argv[1])
for name in ("rate_identity.cfg", "solve_identity.cfg"):
    summary, code = run_config(load_config(shipped_config_dir() / name),
                               tmp / name)
    assert code == 0, (name, summary)
assert not loaded(), f"loaded by a CG run: {loaded()}"

# a two-term q1 flow above the splu crossover of evolve is marched on the
# diagonal of its eigenbasis
cfg = load_config(shipped_config_dir() / "semigroup_identity.cfg")
cfg.discretization.basis1 = cfg.discretization.basis2 = "q1"
cfg.discretization.m1 = cfg.discretization.m2 = 32
summary, code = run_config(cfg, tmp / "semigroup_q1_32")
assert code == 0, summary
assert not loaded(), f"loaded by a two-term flow: {loaded()}"

import numpy as np
import scipy.sparse as sp

from anisolab import semigroup
from anisolab.coefficients import (CoefficientField, ReactionSpec,
                                   SourceField, as_field)
from anisolab.diagnostics import cea_check
from anisolab.elliptic import LIMIT, ProblemSpec, solve_semilinear
from anisolab.linsolve import solve
from anisolab.spaces import TensorDomain, build_space

dom = TensorDomain((0.0, np.pi), (0.0, np.pi))
A = CoefficientField.identity()
f = SourceField(as_field(lambda x1, x2: np.sin(x1) * np.sin(x2)),
                grad_x1_in_l2=True, slices_vanish_x1=True)

# Picard: preconditioned CG on the factored operator, no LU
tanh = ReactionSpec.custom(np.tanh, lipschitz=1.0, growth=1.0)
sol = solve_semilinear(ProblemSpec(dom, A, f, tanh, 1.0),
                       build_space(dom, "q1", 8, "q1", 8))
assert sol.residual_history[-1] <= 1e-8 * sol.residual_history[0]

# linsolve: LU for a nonsymmetric matrix
K = sp.csr_matrix(np.array([[4.0, 1.0], [0.0, 3.0]]))
assert solve(K, [5.0, 3.0]).residual_norm < 1e-12

# evolve on the splu route
sine4 = build_space(dom, "sine", 4, "sine", 4)
semigroup._DENSE_STEP_RATIO = 0.0
gen = semigroup.build_generator(sine4, A, LIMIT)
traj = semigroup.evolve(gen, np.ones(sine4.dim),
                        semigroup.EvolutionConfig(T=0.1, steps=4))
assert traj.step_norms[-1] < traj.step_norms[0]

# Cea check: fast diagonalisation of the coarse Gram matrix, no LU
report = cea_check([build_space(dom, "sine", m, "sine", m) for m in (2, 4)],
                   ProblemSpec(dom, A, f, ReactionSpec.zero(), LIMIT))
assert report.all_passed

# splu loads scipy.sparse.linalg, which loads scipy.linalg; nothing loads scipy.io
assert loaded() == ["scipy.linalg", "scipy.sparse.linalg"], loaded()
"""


def test_direct_solvers_load_only_on_the_routes_that_use_them(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
