"""RBF kernel, biased/unbiased MMD^2 estimators, median-heuristic bandwidth,
anchor-aligned feature projection, and the permutation two-sample test."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorSet
from .core import ConfigError, ShapeError, pairwise_sq_dists


@dataclass(frozen=True)
class KernelSpec:
    """RBF kernel exp(-||x-y||^2 / (2 sigma^2)); the only supported family."""

    bandwidth: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ConfigError(f"kernel bandwidth must be finite and > 0, got {self.bandwidth}")

    def matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.exp(pairwise_sq_dists(x, y) / (-2.0 * self.bandwidth ** 2))


def rbf_kernel(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """Kernel value for a single pair of vectors."""
    spec = KernelSpec(bandwidth)
    return float(spec.matrix(np.atleast_2d(x), np.atleast_2d(y))[0, 0])


def median_heuristic(samples: np.ndarray) -> float:
    """sigma = sqrt(median of squared pairwise distances / 2); 1.0 when all
    points coincide."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n = samples.shape[0]
    if n < 2:
        raise ConfigError("median heuristic needs at least 2 samples")
    d2 = pairwise_sq_dists(samples, samples)
    pairs = d2[np.triu_indices(n, k=1)]
    med = float(np.median(pairs))
    if med == 0.0:
        return 1.0
    return math.sqrt(med / 2.0)


# ---------------------------------------------------------------------------
# Estimators. Sums use math.fsum (exact up to final rounding), which makes
# mmd2_biased(X, X) == 0.0 and the (X, Y) <-> (Y, X) symmetry hold exactly.


def _check_sets(x: np.ndarray, y: np.ndarray, min_size: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[0] < min_size or y.shape[0] < min_size:
        raise ShapeError(f"need at least {min_size} samples per side, got {x.shape[0]} and {y.shape[0]}")
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    return x, y


def mmd2_biased(x: np.ndarray, y: np.ndarray, kernel: KernelSpec) -> float:
    """V-statistic estimate of MMD^2; non-negative, zero when x == y."""
    x, y = _check_sets(x, y, 1)
    m, n = x.shape[0], y.shape[0]
    xx = math.fsum(kernel.matrix(x, x).ravel()) / (m * m)
    yy = math.fsum(kernel.matrix(y, y).ravel()) / (n * n)
    xy = math.fsum(kernel.matrix(x, y).ravel()) / (m * n)
    return xx + yy - 2.0 * xy


def mmd2_unbiased(x: np.ndarray, y: np.ndarray, kernel: KernelSpec) -> float:
    """U-statistic estimate (self-terms excluded); zero-mean when P = Q, may
    be negative."""
    x, y = _check_sets(x, y, 2)
    m, n = x.shape[0], y.shape[0]
    kxx = kernel.matrix(x, x)
    kyy = kernel.matrix(y, y)
    xx = (math.fsum(kxx.ravel()) - math.fsum(np.diag(kxx))) / (m * (m - 1))
    yy = (math.fsum(kyy.ravel()) - math.fsum(np.diag(kyy))) / (n * (n - 1))
    xy = math.fsum(kernel.matrix(x, y).ravel()) / (m * n)
    return xx + yy - 2.0 * xy


def mmd2_biased_grad(x: np.ndarray, y: np.ndarray, kernel: KernelSpec
                     ) -> tuple[float, np.ndarray, np.ndarray]:
    """Biased MMD^2 and its gradients with respect to each sample matrix.

    The bandwidth is treated as a constant under differentiation.
    """
    x, y = _check_sets(x, y, 1)
    m, n = x.shape[0], y.shape[0]
    inv_s2 = 1.0 / kernel.bandwidth ** 2
    kxx = kernel.matrix(x, x)
    kyy = kernel.matrix(y, y)
    kxy = kernel.matrix(x, y)
    value = (math.fsum(kxx.ravel()) / (m * m) + math.fsum(kyy.ravel()) / (n * n)
             - 2.0 * math.fsum(kxy.ravel()) / (m * n))
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


def permutation_test(x: np.ndarray, y: np.ndarray, kernel: KernelSpec,
                     n_perms: int, rng: np.random.Generator) -> float:
    """p-value of the biased-MMD^2 two-sample test under label permutation,
    with +1 smoothing in numerator and denominator."""
    if n_perms < 100:
        raise ConfigError("n_perms must be >= 100")
    x, y = _check_sets(x, y, 1)
    m, n = x.shape[0], y.shape[0]
    observed = mmd2_biased(x, y, kernel)
    pooled = np.concatenate([x, y])
    k_pooled = kernel.matrix(pooled, pooled)
    exceed = 0
    for _ in range(n_perms):
        perm = rng.permutation(m + n)
        xi, yi = perm[:m], perm[m:]
        kxx = k_pooled[np.ix_(xi, xi)].sum() / (m * m)
        kyy = k_pooled[np.ix_(yi, yi)].sum() / (n * n)
        kxy = k_pooled[np.ix_(xi, yi)].sum() / (m * n)
        if kxx + kyy - 2.0 * kxy >= observed:
            exceed += 1
    return (1 + exceed) / (1 + n_perms)
