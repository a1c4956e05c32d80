"""What depends on a space alone is built once per space and freed with it."""

import gc
import weakref

import numpy as np

from anisolab.assembly import (assemble_mass, assemble_system, norm_matrices,
                               project)
from anisolab.spaces import build_space


def _source(x1, x2):
    return np.sin(x1) * np.sin(2.0 * x2)


def test_a_dropped_space_is_freed_with_its_data(dom, A_identity):
    space = build_space(dom, "sine", 8, "q1", 8)
    u = project(space, _source)
    assemble_system(space, A_identity).tensor_preconditioner(0.5)(u)
    norm_matrices(space)
    assemble_mass(space)
    ref = weakref.ref(space)
    del space
    gc.collect()
    assert ref() is None


def test_systems_on_one_space_share_its_eigenbasis(dom, A_identity,
                                                   A_offdiag_const):
    space = build_space(dom, "sine", 8, "sine", 8)
    first = assemble_system(space, A_identity).eigenbasis
    second = assemble_system(space, A_offdiag_const).eigenbasis
    assert all(a is b for a, b in zip(first, second))
    other = assemble_system(build_space(dom, "sine", 8, "sine", 8),
                            A_identity).eigenbasis
    assert not any(a is b for a, b in zip(first, other))
