"""Shared vector math, error types, and seeded random-number plumbing.

Everything downstream computes in float64; file formats narrow to float32
on disk (see dataio).
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Error hierarchy. ``exit_code`` is what the CLI returns when the error
# escapes to the top level (2 config, 3 data, 4 numeric).


class CraftError(Exception):
    exit_code = 3


class ConfigError(CraftError):
    exit_code = 2


class NumericError(CraftError):
    exit_code = 4


class NormalizationError(NumericError):
    pass


class ShapeError(CraftError):
    pass


class FormatError(CraftError):
    pass


class SplitError(CraftError):
    pass


class ClusterError(CraftError):
    pass


class AnchorError(CraftError):
    pass


class LabelError(CraftError):
    pass


class EvalError(CraftError):
    pass


# ---------------------------------------------------------------------------
# Random numbers. A single documented generator (PCG64) seeded explicitly;
# no global state anywhere in the library. ``stream`` derives independent
# substreams from one user-facing seed (e.g. shuffling vs. target sampling).


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic PCG64 generator for ``seed`` and an optional substream
    key; a negative seed or key is a ConfigError."""
    entropy = [int(seed), *(int(s) for s in stream)]
    if min(entropy) < 0:
        raise ConfigError(f"seeds must be non-negative integers, got {min(entropy)}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# ---------------------------------------------------------------------------
# Vector math

# Outside these norms the squared norm nears the float64 subnormal range
# (< 2.2e-308), where it loses bits, or overflows (> 1.8e308).
_SAFE_NORMS = (1e-150, 1e150)


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale ``v`` (a vector, or a matrix row-wise) to unit Euclidean norm.

    Raises NormalizationError on an exactly-zero vector.
    """
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing row is rescaled below
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
    unsafe = (norms < _SAFE_NORMS[0]) | (norms > _SAFE_NORMS[1])
    if np.any(unsafe):
        # divide those rows by their largest magnitude first; rows with a
        # safe norm keep their bits
        peak = np.max(np.abs(v), axis=-1, keepdims=True)
        v = np.where(unsafe, v / np.where(peak == 0.0, 1.0, peak), v)
        norms = np.where(unsafe, np.linalg.norm(v, axis=-1, keepdims=True), norms)
    if np.any(norms == 0.0):
        raise NormalizationError("cannot normalize a zero vector")
    return v / norms


def softmax_rows(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax and log-softmax ``(p, log_p)`` of a 2-D logit
    matrix, both from one max-subtracted exponential."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    total = p.sum(axis=1, keepdims=True)
    log_p = shifted - np.log(total)
    p /= total
    return p, log_p


# Rows per side of a distance tile: tiles are (TILE, TILE) float64 arrays
# of 512 KiB, whatever the size of the two sets, so the few temporaries of
# one tile fit a core's 2 MiB L2 and are reused from the heap rather than
# faulted in as fresh pages. A training batch (at most 256 pooled rows) is
# one tile.
TILE = 256

_EPS = np.finfo(np.float64).eps  # 2^-52


def zero_below_rounding(d2: np.ndarray, norms: np.ndarray, dim: int) -> np.ndarray:
    """Set to 0, in place, the entries of the Gram-form squared distances
    ``d2`` at or below the form's rounding bound ``(2 dim + 8) eps norms``,
    where ``norms`` holds |p|^2 + |c|^2 of each pair (scaled in place): there
    the computed value cannot be told from zero. Coincident rows then give
    exactly 0, and every entry is >= 0."""
    norms *= (2 * dim + 8) * _EPS
    d2[d2 <= norms] = 0.0
    return d2


def _gram_tile(x: np.ndarray, i: int, y: np.ndarray, j: int) -> np.ndarray:
    """Squared distances between the TILE-row blocks of the contiguous
    float64 sets ``x`` and ``y`` that start at rows ``i`` and ``j``; see
    ``pairwise_sq_dists``. Each GEMM takes a row block and the contiguous
    transpose of the other, both made here.

    A diagonal tile of a set against itself (``x is y``, ``i == j``) takes
    one GEMM: its second product is the same call on the same operands.
    Its tile is then exactly symmetric.
    """
    xi = x[i:i + TILE]
    xi_norms = np.einsum("ij,ij->i", xi, xi)
    if x is y and i == j:
        cross = xi @ np.ascontiguousarray(xi.T)
        cross += cross.T  # numpy reads the overlapping operand from a copy
        yj_norms = xi_norms
    else:
        yj = y[j:j + TILE]
        yj_norms = np.einsum("ij,ij->i", yj, yj)
        cross = xi @ np.ascontiguousarray(yj.T)
        cross += (yj @ np.ascontiguousarray(xi.T)).T
    norms = xi_norms[:, None] + yj_norms[None, :]
    return zero_below_rounding(np.subtract(norms, cross, out=cross), norms, xi.shape[1])


def sq_dist_tiles(x: np.ndarray, y: np.ndarray):
    """Yield ``(i, j, d2)``, where ``d2`` is the tile
    ``pairwise_sq_dists(x, y)[i:i + TILE, j:j + TILE]``, bitwise, computed on
    its own. A set against itself (one array passed twice) yields only the
    tiles with ``j >= i``: the tile at (j, i) is bitwise the transpose of the
    one at (i, j) (see ``pairwise_sq_dists``)."""
    upper = y is x
    x = np.ascontiguousarray(np.atleast_2d(x), dtype=np.float64)
    y = x if upper else np.ascontiguousarray(np.atleast_2d(y), dtype=np.float64)
    for i in range(0, x.shape[0], TILE):
        for j in range(i if upper else 0, y.shape[0], TILE):
            yield i, j, _gram_tile(x, i, y, j)


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All squared Euclidean distances between rows of ``x`` (m,d) and ``y`` (n,d).

    Gram form ``|x_i|^2 + |y_j|^2 - (x_i.y_j + y_j.x_i)``, one (TILE, TILE)
    tile at a time (see ``sq_dist_tiles``). Both cross products are taken,
    each as a GEMM on contiguous operands (``x @ x.T`` would go to SYRK,
    which rounds differently), and added; floating-point addition commutes,
    so swapping the inputs transposes each tile, and the result, bitwise.
    Entries at or below the form's rounding bound are 0 (see
    ``zero_below_rounding``), so coincident rows give exactly 0 (and
    MMD^2(X, X) exactly 0 downstream) and every entry is >= 0.

    A set against itself (one array passed twice) is walked over its upper
    tiles only, each off-diagonal tile filling its mirror block transposed.

    Holds the (m, n) result and the temporaries of one tile.
    """
    upper = y is x
    m, n = len(np.atleast_2d(x)), len(np.atleast_2d(y))
    tiles = sq_dist_tiles(x, y)
    if 0 < m <= TILE and 0 < n <= TILE:  # one tile
        return next(tiles)[2]
    d2 = np.empty((m, n))
    for i, j, tile in tiles:
        d2[i:i + TILE, j:j + TILE] = tile
        if upper and i != j:
            d2[j:j + TILE, i:i + TILE] = tile.T
    return d2
