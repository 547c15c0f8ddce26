"""RBF kernel, biased/unbiased MMD^2 estimators, median-heuristic bandwidth,
anchor-aligned feature projection, and the permutation two-sample test."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorSet
from .core import (TILE, ConfigError, GramRows, NumericError, ShapeError, pairwise_sq_dists,
                   sq_dist_tiles)


@dataclass(frozen=True)
class KernelSpec:
    """RBF kernel exp(-||x-y||^2 / (2 sigma^2)); the only supported family."""

    bandwidth: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ConfigError(f"kernel bandwidth must be finite and > 0, got {self.bandwidth}")

    def of_sq_dists(self, d2: np.ndarray) -> np.ndarray:
        """Kernel values of the squared distances ``d2``, computed in place."""
        np.divide(d2, -2.0 * self.bandwidth ** 2, out=d2)
        return np.exp(d2, out=d2)


# A non-negative float64's bits shifted right by this keep its exponent and
# its 6 leading mantissa bits: 2^17 buckets, 64 per binade, in the order of
# the values.
_BUCKET_SHIFT = 46


def _upper_pairs(samples: GramRows):
    """The squared distances of the pairs i < j of ``samples``, tile by tile."""
    for i, j, d2 in sq_dist_tiles(samples, samples, upper=True):
        yield d2[np.triu_indices(len(d2), k=1)] if i == j else d2.ravel()


def _buckets(d2: np.ndarray) -> np.ndarray:
    return d2.view(np.int64) >> _BUCKET_SHIFT


def _in_buckets(d2: np.ndarray, first: int, last: int) -> np.ndarray:
    b = _buckets(d2)
    return d2[(b >= first) & (b <= last)]


def median_heuristic(samples: np.ndarray) -> float:
    """sigma = sqrt(median of squared pairwise distances / 2); 1.0 when all
    points coincide. Raises NumericError on a NaN or infinite sample.

    The median is exact: that of the upper triangle of
    ``pairwise_sq_dists(samples, samples)``. Up to TILE samples that is one
    tile. Beyond, a first pass over the upper tiles counts the pairs per
    bucket of leading bits and a second keeps only the one or two buckets
    that hold the middle ranks, so memory stays at a few tiles unless most
    pairs share their leading bits. Both passes read one ``GramRows``.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n = samples.shape[0]
    if n < 2:
        raise ConfigError("median heuristic needs at least 2 samples")
    if not np.all(np.isfinite(samples)):
        # partition would sort NaN distances last and hide them
        raise NumericError("median heuristic of non-finite samples")
    samples = GramRows(samples)
    p = n * (n - 1) // 2
    if n <= TILE:
        # one tile, bitwise symmetric: sorted, its off-diagonal entries are
        # the p pairs each twice; behind the n diagonal entries (set to -1)
        # the two middle pairs sit at n+p-1 and n+p, for odd and even p alike
        d2 = pairwise_sq_dists(samples, samples)
        np.fill_diagonal(d2, -1.0)
        pairs, ranks = d2.ravel(), np.array([n + p - 1, n + p])
    else:
        ranks = np.array([(p - 1) // 2, p // 2])  # the middle one or two, 0-based
        # d2 >= 0, so its bits sort as its values
        counts = sum(np.bincount(_buckets(d2), minlength=1 << 17) for d2 in _upper_pairs(samples))
        ends = np.cumsum(counts)
        first, last = np.searchsorted(ends, ranks, side="right")
        ranks -= ends[first] - counts[first]
        pairs = np.concatenate([_in_buckets(d2, first, last) for d2 in _upper_pairs(samples)])
    pairs.partition(ranks)
    med = 0.5 * (pairs[ranks[0]] + pairs[ranks[1]])
    if med == 0.0:
        return 1.0
    return math.sqrt(med / 2.0)


# ---------------------------------------------------------------------------
# Estimators. Every kernel quantity is read tile by tile from _kernel_tiles,
# the kernel values of the sq_dist_tiles tiles. A block K(X, Y) is summed
# transpose-invariantly at both levels: each tile's sum adds numpy's pairwise
# sums of the tile and of its contiguous transpose, and the grid of tile sums
# is summed the same way. As the tiles are swap-bitwise, sum K(X, Y) ==
# sum K(Y, X) bitwise, so mmd2_biased(X, Y) == mmd2_biased(Y, X) exactly and
# mmd2_biased(X, X) == 0.0. Memory is one tile and the GramRows of the two
# samples, plus the (m, n) matrices the gradient asks for; the permutation
# test holds O(TILE^2 + 256 N) for N pooled samples.


def _kernel_tiles(x: GramRows, y: GramRows, kernel: KernelSpec, upper: bool = False):
    """The tiles ``(i, j, K(x, y)[i:i + TILE, j:j + TILE])`` of ``sq_dist_tiles``."""
    for i, j, d2 in sq_dist_tiles(x, y, upper):
        yield i, j, kernel.of_sq_dists(d2)


def _sym_sum(a: np.ndarray) -> float:
    a = np.ascontiguousarray(a)
    return 0.5 * (float(a.sum()) + float(np.ascontiguousarray(a.T).sum()))


def _kernel_block(x: GramRows, y: GramRows, kernel: KernelSpec, keep: bool = False
                  ) -> tuple[float, np.ndarray | None]:
    """The sum of K(x, y) and, with ``keep``, the (m, n) matrix itself (its
    one tile when it fits in one); without, the matrix is never held."""
    m, n = x.shape[0], y.shape[0]
    sums = np.empty((-(-m // TILE), -(-n // TILE)))
    k = np.empty((m, n)) if keep and sums.size > 1 else None
    for i, j, tile in _kernel_tiles(x, y, kernel):
        sums[i // TILE, j // TILE] = _sym_sum(tile)
        if k is not None:
            k[i:i + TILE, j:j + TILE] = tile
    return _sym_sum(sums), (tile if keep and k is None else k)


def _check_sets(x: np.ndarray, y: np.ndarray, min_size: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[0] < min_size or y.shape[0] < min_size:
        raise ShapeError(f"need at least {min_size} samples per side, got {x.shape[0]} and {y.shape[0]}")
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    return x, y


def _mmd_blocks(x: np.ndarray, y: np.ndarray, kernel: KernelSpec, min_size: int,
                keep: bool = False) -> tuple[np.ndarray, np.ndarray, list]:
    """The checked sets x and y, and the blocks K(x, x), K(y, y) and K(x, y)
    as ``_kernel_block`` returns them: (sum, matrix if ``keep``)."""
    x, y = _check_sets(x, y, min_size)
    gx, gy = GramRows(x), GramRows(y)
    return x, y, [_kernel_block(a, b, kernel, keep) for a, b in ((gx, gx), (gy, gy), (gx, gy))]


def mmd2_biased(x: np.ndarray, y: np.ndarray, kernel: KernelSpec) -> float:
    """V-statistic estimate of MMD^2; non-negative, zero when x == y."""
    x, y, ((sxx, _), (syy, _), (sxy, _)) = _mmd_blocks(x, y, kernel, 1)
    m, n = x.shape[0], y.shape[0]
    return sxx / (m * m) + syy / (n * n) - 2.0 * (sxy / (m * n))


def mmd2_unbiased(x: np.ndarray, y: np.ndarray, kernel: KernelSpec) -> float:
    """U-statistic estimate (self-terms excluded); zero-mean when P = Q, may
    be negative."""
    x, y, ((sxx, _), (syy, _), (sxy, _)) = _mmd_blocks(x, y, kernel, 2)
    m, n = x.shape[0], y.shape[0]
    # the self-terms are k(x_i, x_i) = exp(0) = 1: pairwise_sq_dists gives a
    # row exactly 0 with itself
    return (sxx - m) / (m * (m - 1)) + (syy - n) / (n * (n - 1)) - 2.0 * (sxy / (m * n))


def mmd2_biased_grad(x: np.ndarray, y: np.ndarray, kernel: KernelSpec
                     ) -> tuple[float, np.ndarray, np.ndarray]:
    """Biased MMD^2 and its gradients with respect to each sample matrix.

    The bandwidth is treated as a constant under differentiation.
    """
    x, y, ((sxx, kxx), (syy, kyy), (sxy, kxy)) = _mmd_blocks(x, y, kernel, 1, keep=True)
    m, n = x.shape[0], y.shape[0]
    inv_s2 = 1.0 / kernel.bandwidth ** 2
    value = sxx / (m * m) + syy / (n * n) - 2.0 * sxy / (m * n)
    # d k(a, b) / d a = k(a, b) (b - a) / sigma^2
    gx = (2.0 / (m * m)) * inv_s2 * (kxx @ x - kxx.sum(axis=1)[:, None] * x) \
        - (2.0 / (m * n)) * inv_s2 * (kxy @ y - kxy.sum(axis=1)[:, None] * x)
    gy = (2.0 / (n * n)) * inv_s2 * (kyy @ y - kyy.sum(axis=1)[:, None] * y) \
        - (2.0 / (m * n)) * inv_s2 * (kxy.T @ x - kxy.sum(axis=0)[:, None] * y)
    return value, gx, gy


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


def permutation_test(x: np.ndarray, y: np.ndarray, kernel: KernelSpec,
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
    if n_perms < 100:
        raise ConfigError("n_perms must be >= 100")
    x, y = _check_sets(x, y, 1)
    m, n = x.shape[0], y.shape[0]
    pooled = GramRows(np.concatenate([x, y]))
    splits = itertools.chain([np.arange(m + n)],
                             (rng.permutation(m + n) for _ in range(n_perms)))
    stats = np.empty(1 + n_perms)
    for start in range(0, stats.size, _PERM_BLOCK):
        w = np.empty((min(_PERM_BLOCK, stats.size - start), m + n))
        for row, split in zip(w, splits):
            row[split[:m]] = 1.0 / m
            row[split[m:]] = -1.0 / n
        wk = np.zeros_like(w)
        for i, j, k in _kernel_tiles(pooled, pooled, kernel, upper=True):
            wk[:, j:j + TILE] += w[:, i:i + TILE] @ k
            if i != j:
                wk[:, i:i + TILE] += w[:, j:j + TILE] @ k.T
        stats[start:start + len(w)] = np.einsum("ij,ij->i", wk, w)
    exceed = int(np.count_nonzero(stats[1:] >= stats[0]))
    return (1 + exceed) / (1 + n_perms)
