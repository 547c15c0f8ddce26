import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from craft.core import (TILE, GramRows, NormalizationError, ShapeError, l2_normalize,
                        make_rng, pairwise_sq_dists, softmax_rows, sq_dist_tiles)

from conftest import blas_shaped_pairs

finite_vectors = arrays(np.float64, st.integers(1, 8),
                        elements=st.floats(-1e3, 1e3, allow_nan=False))


def test_l2_normalize_examples():
    np.testing.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])
    np.testing.assert_allclose(l2_normalize(np.array([1.0, 0.0])), [1.0, 0.0])
    with pytest.raises(NormalizationError):
        l2_normalize(np.array([0.0, 0.0]))


def test_l2_normalize_unit_norm_and_direction(rng):
    v = rng.standard_normal((50, 7))
    out = l2_normalize(v)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)
    # positively proportional to the input
    assert np.all(np.sum(out * v, axis=1) > 0)


@given(finite_vectors)
@example(np.array([2.2e-159]))  # squared norms in the subnormal range
@example(np.array([1e-160]))
@example(np.array([1e200]))  # squared norm overflows
@settings(max_examples=200)
def test_l2_normalize_idempotent(v):
    if np.linalg.norm(v) == 0.0:
        return
    once = l2_normalize(v)
    np.testing.assert_allclose(l2_normalize(once), once, atol=1e-9)


def probs(logits):
    return softmax_rows(logits)[0]


def test_softmax_examples():
    np.testing.assert_allclose(probs(np.array([[5.0]])), [[1.0]])
    np.testing.assert_allclose(probs(np.zeros((2, 3))), np.full((2, 3), 1 / 3))
    expected = np.array([math.exp(1.0), math.exp(0.0)])
    expected /= expected.sum()
    np.testing.assert_allclose(probs(np.array([[1.0, 0.0]])), [expected], atol=1e-12)
    np.testing.assert_allclose(probs(np.array([[1.0, 0.0], [0.0, 1.0]])),
                               [[0.73106, 0.26894], [0.26894, 0.73106]], atol=5e-6)


@given(arrays(np.float64, st.integers(1, 10), elements=st.floats(-50, 50)),
       st.floats(-100, 100, allow_nan=False))
@settings(max_examples=200)
def test_softmax_shift_invariance(logits, shift):
    np.testing.assert_allclose(probs(logits[None] + shift), probs(logits[None]),
                               atol=1e-9)


def test_softmax_basic_contract(rng):
    for _ in range(20):
        p, log_p = softmax_rows(rng.standard_normal((3, rng.integers(1, 12))))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(p > 0) and np.all(p < 1 + 1e-12)
        np.testing.assert_allclose(np.exp(log_p), p, rtol=1e-12)
    # log_p stays finite where p underflows to 0
    p, log_p = softmax_rows(np.array([[0.0, -1000.0]]))
    assert p[0, 1] == 0.0 and log_p[0, 1] == -1000.0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_rng_reproducible(seed):
    a = make_rng(seed).standard_normal(16)
    b = make_rng(seed).standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_rng_substreams_differ():
    base = make_rng(99).standard_normal(8)
    sub = make_rng(99, 1).standard_normal(8)
    assert not np.allclose(base, sub)


def test_anchor_similarity_is_lipschitz(rng):
    # |a.u - a.v| <= ||u - v|| for unit a: the operational contraction bound.
    for _ in range(500):
        dim = int(rng.integers(2, 16))
        u, v = rng.standard_normal(dim), rng.standard_normal(dim)
        a = l2_normalize(rng.standard_normal(dim))
        assert abs(a @ u - a @ v) <= np.linalg.norm(u - v) + 1e-12


def test_pairwise_sq_dists_matches_naive(rng):
    x, y = rng.standard_normal((5, 3)), rng.standard_normal((7, 3))
    d2 = pairwise_sq_dists(x, y)
    for i in range(5):
        for j in range(7):
            assert d2[i, j] == pytest.approx(np.sum((x[i] - y[j]) ** 2), rel=1e-12)
    # entrywise symmetric under swapping, bitwise
    np.testing.assert_array_equal(pairwise_sq_dists(y, x), d2.T)


def tile_crossing_pairs(seed):
    """Seeded (x, y) pairs whose row counts sit at and across the TILE
    boundary."""
    rng = make_rng(seed)
    for m, n in ((TILE - 1, 1100), (TILE, TILE + 1), (TILE + 1, TILE), (1100, TILE - 1)):
        d = int(rng.integers(1, 301))
        yield rng.standard_normal((m, d)), rng.standard_normal((n, d)) + 0.1


def test_pairwise_sq_dists_exact_at_blas_shapes():
    for x, y in itertools.chain(blas_shaped_pairs(11, 12), tile_crossing_pairs(13)):
        d2 = pairwise_sq_dists(x, y)
        np.testing.assert_array_equal(pairwise_sq_dists(y, x), d2.T)
        assert d2.min() >= 0.0
        self_d2 = pairwise_sq_dists(x, x.copy())
        # the same GEMMs whether or not both arguments are one buffer
        np.testing.assert_array_equal(pairwise_sq_dists(x, x), self_d2)
        np.testing.assert_array_equal(self_d2, self_d2.T)
        assert np.all(np.diag(self_d2) == 0.0)
        # prepared operands give the same bits as arrays
        gx, gy = GramRows(x), GramRows(y)
        assert np.shape(gx) == x.shape and np.shape(gy) == y.shape
        np.testing.assert_array_equal(pairwise_sq_dists(gx, gy), d2)
        np.testing.assert_array_equal(pairwise_sq_dists(gx, y), d2)
        np.testing.assert_array_equal(pairwise_sq_dists(gx, gx), self_d2)
        for i, j, tile in sq_dist_tiles(gx, gx, upper=True):
            np.testing.assert_array_equal(tile, self_d2[i:i + TILE, j:j + TILE])


def test_sq_dist_tiles_are_the_tiles_of_pairwise_sq_dists():
    rng = make_rng(12)
    x, y = rng.standard_normal((TILE + 190, 37)), rng.standard_normal((2 * TILE + 70, 37))
    d2 = pairwise_sq_dists(x, y)
    tiles = list(sq_dist_tiles(x, y))
    assert [(i, j) for i, j, _ in tiles] == [(i, j) for i in (0, TILE) for j in (0, TILE, 2 * TILE)]
    for i, j, tile in tiles:
        np.testing.assert_array_equal(tile, d2[i:i + TILE, j:j + TILE])
    # upper: the tiles with j >= i of a set with itself
    upper = [(i, j) for i, j, _ in sq_dist_tiles(y, y, upper=True)]
    assert upper == [(0, 0), (0, TILE), (0, 2 * TILE), (TILE, TILE), (TILE, 2 * TILE),
                     (2 * TILE, 2 * TILE)]
    with pytest.raises(ShapeError):
        pairwise_sq_dists(x, y[:, :5])
