"""RBF kernel, biased/unbiased MMD^2 estimators, median-heuristic bandwidth,
anchor-aligned feature projection, and the permutation two-sample test. The
estimators, the gradient and the test take the bandwidth sigma as a float."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .anchors import AnchorSet
from .core import TILE, ConfigError, ShapeError, pairwise_sq_dists, sq_dist_tiles


def _rbf(d2: np.ndarray, bandwidth: float) -> np.ndarray:
    """The RBF kernel exp(-d2 / (2 bandwidth^2)) of squared distances ``d2``, in place."""
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ConfigError(f"kernel bandwidth must be finite and > 0, got {bandwidth}")
    np.divide(d2, -2.0 * bandwidth ** 2, out=d2)
    return np.exp(d2, out=d2)


# A non-negative float64's bits shifted right by this keep its exponent and
# its 6 leading mantissa bits: 2^17 buckets, 64 per binade, in the order of
# the values.
_BUCKET_SHIFT = 46


def _upper_pairs(samples: np.ndarray):
    """The squared distances of the pairs i < j of ``samples``, tile by tile."""
    for i, j, d2 in sq_dist_tiles(samples, samples):
        yield d2[~np.tri(len(d2), dtype=bool)] if i == j else d2.ravel()


def _buckets(d2: np.ndarray) -> np.ndarray:
    return d2.view(np.int64) >> _BUCKET_SHIFT


def _in_buckets(d2: np.ndarray, first: int, last: int) -> np.ndarray:
    b = _buckets(d2)
    return d2[(b >= first) & (b <= last)]


def _middle_ranks(p: int) -> np.ndarray:
    """The 0-based ranks of the middle one or two of ``p`` values."""
    return np.array([(p - 1) // 2, p // 2])


def _bandwidth(pairs: np.ndarray, ranks: np.ndarray) -> float:
    """The median heuristic's rule: sqrt(med / 2), med the mean of the
    values of ``pairs`` at the two ``ranks`` (partitioned in place), or 1.0
    when med is 0."""
    lo, hi = ranks
    pairs.partition(lo)
    # rank hi (lo or lo + 1) holds the least value past lo, NaN last as in a
    # partition: one selection, about five times faster than one at both ranks
    med = 0.5 * (pairs[lo] + (pairs[lo] if hi == lo else np.fmin.reduce(pairs[lo + 1:])))
    if med == 0.0:
        return 1.0
    return math.sqrt(med / 2.0)


def median_heuristic(samples: np.ndarray) -> float:
    """sigma = sqrt(median of squared pairwise distances / 2) of finite
    ``samples``; 1.0 when all points coincide.

    The median is exact: that of the upper triangle of
    ``pairwise_sq_dists(samples, samples)``. A first pass over the upper
    tiles counts the pairs per bucket of leading bits, and a second keeps
    only the one or two buckets that hold the middle ranks, so memory stays
    at a few tiles unless most pairs share their leading bits.
    """
    samples = np.ascontiguousarray(np.atleast_2d(samples), dtype=np.float64)
    n = samples.shape[0]
    if n < 2:
        raise ShapeError("median heuristic needs at least 2 samples")
    ranks = _middle_ranks(n * (n - 1) // 2)
    # d2 >= 0, so its bits sort as its values
    counts = sum(np.bincount(_buckets(d2), minlength=1 << 17) for d2 in _upper_pairs(samples))
    ends = np.cumsum(counts)
    first, last = np.searchsorted(ends, ranks, side="right")
    ranks -= ends[first] - counts[first]
    pairs = np.concatenate([_in_buckets(d2, first, last) for d2 in _upper_pairs(samples)])
    return _bandwidth(pairs, ranks)


# ---------------------------------------------------------------------------
# Estimators. Every kernel block K(X, Y) is summed over the grid of its
# (TILE, TILE) tiles, transpose-invariantly at both levels: each tile's sum
# adds numpy's pairwise sums of the tile and of its contiguous transpose, and
# the grid of tile sums is summed the same way. As the tiles of sq_dist_tiles
# are swap-bitwise, sum K(X, Y) == sum K(Y, X) bitwise, so mmd2_biased(X, Y)
# == mmd2_biased(Y, X) exactly and mmd2_biased(X, X) == 0.0. The estimators
# read the tiles as _kernel_tiles computes them, one at a time; the gradient
# holds the pooled (N, N) matrix and sums the same tiles out of its three
# sub-blocks. The permutation test holds O(TILE^2 + 256 N) for N pooled
# samples.


def _kernel_tiles(x: np.ndarray, y: np.ndarray, bandwidth: float):
    """The tiles ``(i, j, K(x, y)[i:i + TILE, j:j + TILE])`` of ``sq_dist_tiles``."""
    for i, j, d2 in sq_dist_tiles(x, y):
        yield i, j, _rbf(d2, bandwidth)


def _sym_sum(a: np.ndarray, symmetric: bool = False) -> float:
    a = np.ascontiguousarray(a)
    if symmetric:  # its transpose is itself, and 0.5 (s + s) is s
        return float(a.sum())
    return 0.5 * (float(a.sum()) + float(np.ascontiguousarray(a.T).sum()))


def _grid_sum(tiles, m: int, n: int, upper: bool) -> float:
    """The sum of an (m, n) kernel block from its tiles ``(i, j, tile)``.

    A sample against itself (``upper``) comes as its upper tiles only,
    bitwise the full grid: a diagonal tile is exactly symmetric, and an
    off-diagonal tile's sum stands in for its mirror's."""
    if m <= TILE and n <= TILE:
        # one tile: the symmetric sum of its 1x1 grid, 0.5 (s + s), is s
        ((_, _, tile),) = tiles
        return _sym_sum(tile, upper)
    sums = np.empty((-(-m // TILE), -(-n // TILE)))
    for i, j, tile in tiles:
        sums[i // TILE, j // TILE] = _sym_sum(tile, upper and i == j)
        if upper and i != j:
            sums[j // TILE, i // TILE] = sums[i // TILE, j // TILE]
    return _sym_sum(sums)


def _kernel_block(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """The sum of K(x, y), one tile at a time; the matrix is never held."""
    return _grid_sum(_kernel_tiles(x, y, bandwidth), x.shape[0], y.shape[0], x is y)


def _held_block(k: np.ndarray, upper: bool) -> float:
    """The sum of a held kernel block ``k``, bitwise ``_kernel_block``'s:
    the same tiles, sliced out of ``k``."""
    m, n = k.shape
    return _grid_sum(((i, j, k[i:i + TILE, j:j + TILE])
                      for i in range(0, m, TILE) for j in range(i if upper else 0, n, TILE)),
                     m, n, upper)


def _check_sets(x: np.ndarray, y: np.ndarray, min_size: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.ascontiguousarray(np.atleast_2d(x), dtype=np.float64)
    y = np.ascontiguousarray(np.atleast_2d(y), dtype=np.float64)
    if x.shape[0] < min_size or y.shape[0] < min_size:
        raise ShapeError(f"need at least {min_size} samples per side, got {x.shape[0]} and {y.shape[0]}")
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    return x, y


def _block_sums(x: np.ndarray, y: np.ndarray, bandwidth: float, min_size: int
                ) -> tuple[int, int, float, float, float]:
    """m, n and the sums of K(x, x), K(y, y) and K(x, y)."""
    x, y = _check_sets(x, y, min_size)
    return (x.shape[0], y.shape[0],
            *(_kernel_block(a, b, bandwidth) for a, b in ((x, x), (y, y), (x, y))))


def _biased(m: int, n: int, sxx: float, syy: float, sxy: float) -> float:
    return sxx / (m * m) + syy / (n * n) - 2.0 * (sxy / (m * n))


def _unbiased(m: int, n: int, sxx: float, syy: float, sxy: float) -> float:
    # the self-terms are k(x_i, x_i) = exp(0) = 1: pairwise_sq_dists gives a
    # row exactly 0 with itself
    return (sxx - m) / (m * (m - 1)) + (syy - n) / (n * (n - 1)) - 2.0 * (sxy / (m * n))


def mmd2_biased(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """V-statistic estimate of MMD^2; non-negative, zero when x == y."""
    return _biased(*_block_sums(x, y, bandwidth, 1))


def mmd2_unbiased(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """U-statistic estimate (self-terms excluded); zero-mean when P = Q, may
    be negative."""
    return _unbiased(*_block_sums(x, y, bandwidth, 2))


def mmd2_both(x: np.ndarray, y: np.ndarray, bandwidth: float) -> tuple[float, float]:
    """``(mmd2_biased(x, y, bandwidth), mmd2_unbiased(x, y, bandwidth))``,
    bitwise, from one walk of the three kernel blocks."""
    sums = _block_sums(x, y, bandwidth, 2)
    return _biased(*sums), _unbiased(*sums)


def mmd2_biased_grad(z: np.ndarray, m: int, bandwidth: float | None = None
                     ) -> tuple[float, np.ndarray]:
    """Biased MMD^2 between the first ``m`` rows of ``z`` and the other n,
    and its gradient with respect to ``z``.

    Holds the pooled matrix ``pairwise_sq_dists(z, z)``, turned into the
    kernel matrix in place. Without a ``bandwidth``, as the training loss
    calls it, sigma is the median heuristic's rule over its pairs i < j:
    ``median_heuristic(z)``, bitwise; a given one fixes sigma.
    The value is ``_biased`` over its three sub-blocks, each summed over its
    TILE grid; the pooled tile may round a distance otherwise than the
    separate blocks of ``mmd2_biased``: the two agree up to the last bits.

    MMD^2 is w K w, with w = +1/m on the first m rows and -1/n on the rest,
    so the gradient is one GEMM: (2 / sigma^2) w (K_w z - rowsum(K_w) z),
    K_w = K diag(w), with the bandwidth held constant. ``z`` is finite, with
    at least one row on each side.
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    n = z.shape[0] - m
    k = pairwise_sq_dists(z, z)
    if bandwidth is None:
        pairs = k[~np.tri(m + n, dtype=bool)]
        bandwidth = _bandwidth(pairs, _middle_ranks(pairs.size))
    _rbf(k, bandwidth)
    value = _biased(m, n, _held_block(k[:m, :m], True), _held_block(k[m:, m:], True),
                    _held_block(k[:m, m:], False))
    w = np.full(m + n, 1.0 / m)
    w[m:] = -1.0 / n
    k *= w  # K_w; d k(a, b) / d a = k(a, b) (b - a) / sigma^2
    g = k @ z
    g -= k.sum(axis=1)[:, None] * z
    g *= (2.0 / bandwidth ** 2) * w[:, None]
    return value, g


# ---------------------------------------------------------------------------
# Anchor alignment


def anchor_align(features: np.ndarray, static_text_anchors: AnchorSet,
                 temperature: float = 1.0) -> np.ndarray:
    """Project features onto anchor similarities: the (B, K) rows
    tau * <f_i, a_k>, i.e. the logits."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[1] != static_text_anchors.dim:
        raise ShapeError(f"feature dim {features.shape[1]} != anchor dim {static_text_anchors.dim}")
    return temperature * features @ static_text_anchors.vectors.T


# ---------------------------------------------------------------------------
# Permutation two-sample test

_PERM_BLOCK = 256  # weight rows per pass over the tiles: O(_PERM_BLOCK * N) memory


def check_n_perms(n_perms: int) -> None:
    """Refuse, as a ConfigError, a permutation count below 100 or one whose
    ``1 + n_perms`` float64 statistics exceed numpy's largest array."""
    if n_perms < 100:
        raise ConfigError("n_perms must be >= 100")
    if 8 * (1 + n_perms) > np.iinfo(np.intp).max:
        raise ConfigError(f"n_perms {n_perms} needs a statistics array larger than "
                          f"numpy's largest array ({np.iinfo(np.intp).max} bytes)")


def permutation_test(x: np.ndarray, y: np.ndarray, bandwidth: float,
                     n_perms: int, rng: np.random.Generator) -> float:
    """p-value of the biased-MMD^2 two-sample test under label permutation,
    with +1 smoothing in numerator and denominator.

    A split is a weight row w (+1/m on the x side, -1/n on the y side) over
    the pooled samples, and its statistic is the quadratic form w K w. Row 0
    is the observed split and rows 1..n_perms the permuted ones, so all
    statistics come from one expression, evaluated in fixed-size blocks of
    rows W as rowsum((W K) * W). W K is summed over the upper tiles of the
    pooled kernel, one pass per block, as the (j, i) tile is bitwise the
    transpose of the (i, j) one; the (N, N) kernel is never held.
    """
    check_n_perms(n_perms)
    x, y = _check_sets(x, y, 1)
    m, n = x.shape[0], y.shape[0]
    pooled = np.concatenate([x, y])
    splits = itertools.chain([np.arange(m + n)],
                             (rng.permutation(m + n) for _ in range(n_perms)))
    stats = np.empty(1 + n_perms)
    for start in range(0, stats.size, _PERM_BLOCK):
        w = np.empty((min(_PERM_BLOCK, stats.size - start), m + n))
        for row, split in zip(w, splits):
            row[split[:m]] = 1.0 / m
            row[split[m:]] = -1.0 / n
        wk = np.zeros_like(w)
        for i, j, k in _kernel_tiles(pooled, pooled, bandwidth):
            wk[:, j:j + TILE] += w[:, i:i + TILE] @ k
            if i != j:
                wk[:, i:i + TILE] += w[:, j:j + TILE] @ k.T
        stats[start:start + len(w)] = np.einsum("ij,ij->i", wk, w)
    exceed = int(np.count_nonzero(stats[1:] >= stats[0]))
    return (1 + exceed) / (1 + n_perms)
