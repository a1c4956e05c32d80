"""The factored embedding ``embedding_map`` against the CSR ``embedding_matrix``.

On sine pairs the 1D embeddings copy coefficients, so both give the same
bits; on q1 pairs they sum the same products in a different order.  Both
share one set of domain and nesting checks.
"""

import math

import numpy as np
import pytest

from anisolab.spaces import (TensorDomain, build_space, embedding_map,
                             embedding_matrix)

PI = math.pi


def _pair(dom, kinds, coarse, fine):
    (k1, k2), (m1, m2), (f1, f2) = kinds, coarse, fine
    return build_space(dom, k1, m1, k2, m2), build_space(dom, k1, f1, k2, f2)


def _coeffs(space, seed):
    return np.random.default_rng(seed).normal(size=space.dim)


@pytest.mark.parametrize("coarse, fine", [((2, 2), (4, 4)), ((3, 5), (6, 10)),
                                          ((16, 16), (32, 32)), ((4, 4), (4, 4))])
def test_sine_pairs_agree_bit_for_bit(dom, coarse, fine):
    small, big = _pair(dom, ("sine", "sine"), coarse, fine)
    c = _coeffs(small, 3)
    embedded = embedding_map(small, big)(c)
    assert embedded.shape == (big.dim,)
    np.testing.assert_array_equal(embedded, embedding_matrix(small, big) @ c)


@pytest.mark.parametrize("kinds, coarse, fine", [
    (("q1", "q1"), (4, 4), (8, 8)),
    (("q1", "q1"), (4, 6), (12, 12)),
    (("q1", "sine"), (4, 3), (8, 6)),
    (("sine", "q1"), (5, 2), (5, 16)),
])
def test_q1_pairs_agree_to_round_off(dom, kinds, coarse, fine):
    small, big = _pair(dom, kinds, coarse, fine)
    c = _coeffs(small, 4)
    expected = embedding_matrix(small, big) @ c
    gap = np.max(np.abs(embedding_map(small, big)(c) - expected))
    assert gap <= 1e-15 * np.max(np.abs(expected))


def _message(fn, *args):
    with pytest.raises(ValueError) as err:
        fn(*args)
    return str(err.value)


def test_non_nested_pair_refused_like_the_matrix(dom):
    a = build_space(dom, "q1", 4, "q1", 4)
    b = build_space(dom, "q1", 6, "q1", 6)  # 6 not a multiple of 4
    message = _message(embedding_map, a, b)
    assert "not nested" in message
    assert message == _message(embedding_matrix, a, b)


def test_pair_on_different_domains_refused_like_the_matrix(dom):
    a = build_space(dom, "sine", 2, "sine", 2)
    b = build_space(TensorDomain((0.0, 1.0), (0.0, PI)), "sine", 4, "sine", 4)
    message = _message(embedding_map, a, b)
    assert "different domains" in message
    assert message == _message(embedding_matrix, a, b)
