"""q1 operators stored at the size of their structure.

A q1 x q1 operator of one Kronecker term keeps its two tridiagonal factors
and folds no stencil; it still takes its symmetry verdict on its nine
weights, folded for the verdict and dropped, never by row blocks.  A space
whose two directions are the same family builds one rule, one set of basis
tables and one 1D eigenbasis for both.  The coupling verdict holds on a
direction with one node, and the memory of a q1 system stays bounded.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from anisolab import linsolve
from anisolab.assembly import assemble_system, pencil_eigenbasis
from anisolab.coefficients import CoefficientField, as_field
from anisolab.diagnostics import error_norms
from anisolab.elliptic import GalerkinSolution
from anisolab.expressions import parse_expression
from anisolab.linsolve import _is_symmetric
from anisolab.spaces import TensorDomain, build_space

ROOT = Path(__file__).resolve().parents[1]
DOMAIN = TensorDomain((0.0, math.pi), (0.0, math.pi))


def _expr(source):
    return as_field(parse_expression(source))


class TestSharedRule:
    @pytest.mark.parametrize("kind", ["q1", "sine"])
    def test_square_space_shares_its_rule_arrays(self, kind):
        space = build_space(DOMAIN, kind, 8, kind, 8)
        assert space.is_square
        assert all(a is b for a, b in zip(space.rule(1), space.rule(2)))
        assert pencil_eigenbasis(space, 2) is pencil_eigenbasis(space, 1)

    @pytest.mark.parametrize("domain,kinds,sizes", [
        (DOMAIN, ("q1", "q1"), (8, 16)),
        (DOMAIN, ("q1", "sine"), (8, 8)),
        (TensorDomain((0.0, math.pi), (0.0, 2 * math.pi)), ("q1", "q1"), (8, 8)),
    ], ids=["m1-ne-m2", "kinds", "intervals"])
    def test_unlike_directions_keep_their_own_rules(self, domain, kinds, sizes):
        space = build_space(domain, kinds[0], sizes[0], kinds[1], sizes[1])
        assert not space.is_square
        assert not any(a is b for a, b in zip(space.rule(1), space.rule(2)))
        assert pencil_eigenbasis(space, 2) is not pencil_eigenbasis(space, 1)
        points, weights = space.basis2.quad_points(space.quadrature.order)
        V, D = space.basis2.eval_table(points)
        for got, want in zip(space.rule(2), (points, weights, V, D)):
            assert np.array_equal(got, want)

    def test_rule_arrays_are_read_only(self):
        space = build_space(DOMAIN, "q1", 4, "q1", 4)
        with pytest.raises(ValueError):
            space.rule(2)[2][0, 0] = 1.0


# a coupling that no transpose pairs: one term in K12 and none in K21, so
# what is left for the verdict is one Kronecker term
UNPAIRED = r"""
import math
import sys

from anisolab.assembly import KronOperator, assemble_system
from anisolab.coefficients import CoefficientField, as_field
from anisolab.expressions import parse_expression
from anisolab.spaces import TensorDomain, build_space


def no_row_blocks(self):
    raise AssertionError("the q1 x q1 verdict was taken by row blocks")


KronOperator.row_blocks = no_row_blocks
space = build_space(TensorDomain((0.0, math.pi), (0.0, math.pi)), "q1", 128, "q1", 128)
A = CoefficientField(1.0, as_field(parse_expression("0.2*sin(x1)*sin(x2)")), 0.0,
                     1.0, lam=0.8)
system = assemble_system(space, A)
assert len(system.K12.terms) == 1 and system.K21.is_zero
assert system.coupling.stencil is None
assert not system.coupling_symmetric
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, loaded
"""


def test_unpaired_coupling_verdict_folds_its_weights_and_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", UNPAIRED], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("m1,m2", [(2, 3), (3, 2), (2, 5), (4, 5)])
def test_separable_coupling_verdict_on_one_node(monkeypatch, m1, m2):
    # with one node in a direction, sin(x) cancels on its hat to round-off,
    # and the coupling read nonsymmetric relative to its own size
    def no_lu(K):
        raise AssertionError("a symmetric system took the LU route")

    space = build_space(DOMAIN, "q1", m1, "q1", m2)
    A = CoefficientField(_expr("1 + 0.25*x1"), _expr("0.25*sin(x1)*sin(x2)"),
                         _expr("0.25*sin(x1)*sin(x2)"), _expr("1 + x2*x2/1.25"),
                         lam=0.1)
    system = assemble_system(space, A)
    assert system.coupling_symmetric
    assert _is_symmetric(system.operator(0.5).toarray())
    monkeypatch.setattr(linsolve, "lu_solver", no_lu)
    F = np.ones(space.dim)
    result = linsolve.solve(system.operator(0.5), F,
                            precond=system.tensor_preconditioner(0.5))
    assert result.iterations > 0


def test_q1_system_and_error_norms_peak_memory_is_bounded():
    # at m = 256 the three norm stencils alone held 3 * 9 * 255^2 doubles
    # (13.4 MiB), and each direction its own 1024 x 255 tables V and D
    # (2 MiB each): 24.4 MiB traced before the factors and shared tables
    m = 256
    assemble_system(build_space(DOMAIN, "q1", 4, "q1", 4), CoefficientField.identity())
    tracemalloc.start()
    try:
        space = build_space(DOMAIN, "q1", m, "q1", m)
        system = assemble_system(space, CoefficientField.identity())
        u = GalerkinSolution(space, np.ones(space.dim), "limit")
        zero = GalerkinSolution(space, np.zeros(space.dim), "limit")
        norms = error_norms(u, zero)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.isfinite(norms)) and system.M.stencil is None
    assert peak <= 12 * 2 ** 20
