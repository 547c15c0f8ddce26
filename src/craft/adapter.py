"""Residual linear adapters over frozen embeddings, held as one flat
parameter vector, and the CADP checkpoint format.

CADP layout (little-endian): magic b"CADP", u32 version (1), u32 dim H,
then the float64 parameter vector (W_img row-major, b_img, W_txt, b_txt).
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .core import FormatError, NormalizationError, NumericError, ShapeError
from .dataio import open_for_reading

CADP_MAGIC = b"CADP"
CADP_VERSION = 1


def param_count(dim: int) -> int:
    """Length of the parameter vector of an adapter of dimension ``dim``."""
    return 2 * (dim * dim + dim)


class Adapter:
    """Learnable residual map per modality: x -> normalize(x + W x + b).

    ``params`` is one float64 vector in CADP block order; ``w_img``,
    ``b_img``, ``w_txt`` and ``b_txt`` are views into it. Zero-initialized
    parameters reproduce the frozen encoder exactly.
    """

    def __init__(self, params: np.ndarray) -> None:
        params = np.asarray(params, dtype=np.float64)
        h = (math.isqrt(2 * params.size + 1) - 1) // 2
        if params.shape != (param_count(h),):
            raise ShapeError(f"parameter vector of shape {params.shape} is not 2(H^2+H) long")
        hh = h * h
        self.params = params
        self.w_img = params[:hh].reshape(h, h)
        self.b_img = params[hh:hh + h]
        self.w_txt = params[hh + h:2 * hh + h].reshape(h, h)
        self.b_txt = params[2 * hh + h:]

    @classmethod
    def zeros(cls, dim: int) -> "Adapter":
        return cls(np.zeros(param_count(dim)))

    @property
    def dim(self) -> int:
        return self.b_img.shape[0]

    def encode_image(self, base: np.ndarray) -> np.ndarray:
        return encode(self.w_img, self.b_img, base)

    def encode_text(self, base: np.ndarray) -> np.ndarray:
        return encode(self.w_txt, self.b_txt, base)


def encode(weight: np.ndarray, bias: np.ndarray, base: np.ndarray) -> np.ndarray:
    """normalize(base + W base + b), for one vector or a batch of rows."""
    if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
        raise NumericError("adapter parameters are not finite")
    rows = np.atleast_2d(np.asarray(base, dtype=np.float64))
    if rows.shape[1] != bias.shape[0]:
        raise ShapeError(f"embedding dim {rows.shape[1]} != adapter dim {bias.shape[0]}")
    return encode_with_cache(weight, bias, rows)[0].reshape(np.shape(base))


def encode_with_cache(weight: np.ndarray, bias: np.ndarray, base: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Batch encode of float64 rows of the adapter's dimension, returning
    (unit rows U, pre-normalization norms r). The callers, ``encode`` and
    the loss, check the arguments; this checks only that every norm is
    positive and finite, so that each row of U is a unit vector.

    The cache is what the backward pass needs: dL/dz = (g - (u.g) u) / r.
    """
    z = base @ weight.T  # then base + W base + b, in place: addition commutes
    z += base
    z += bias
    norms = np.sqrt((z * z).sum(axis=1))  # np.linalg.norm(z, axis=1), without its dispatch
    if norms.size and not (norms.min() > 0.0 and norms.max() < np.inf):
        raise NormalizationError("adapter produced a zero or non-finite vector norm")
    z /= norms[:, None]
    return z, norms


# ---------------------------------------------------------------------------
# Checkpoints

_CKPT_HEADER = struct.Struct("<4sII")


def write_checkpoint(adapter: Adapter, path: str | Path) -> None:
    if not np.all(np.isfinite(adapter.params)):
        raise NumericError("refusing to checkpoint non-finite parameters")
    payload = _CKPT_HEADER.pack(CADP_MAGIC, CADP_VERSION, adapter.dim)
    Path(path).write_bytes(payload + adapter.params.astype("<f8").tobytes())


def read_checkpoint(path: str | Path) -> Adapter:
    """Parse a CADP file; a malformed one, or one holding a NaN or infinite
    parameter, raises FormatError."""
    with open_for_reading(path) as f:
        data = f.read(os.fstat(f.fileno()).st_size)
    if len(data) < _CKPT_HEADER.size:
        raise FormatError(f"truncated checkpoint: {len(data)} bytes")
    magic, version, dim = _CKPT_HEADER.unpack_from(data, 0)
    if magic != CADP_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}")
    if version != CADP_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    expected = _CKPT_HEADER.size + 8 * param_count(dim)
    if len(data) != expected:
        raise FormatError(f"checkpoint length {len(data)} != expected {expected} at offset {_CKPT_HEADER.size}")
    params = np.frombuffer(data, dtype="<f8", offset=_CKPT_HEADER.size).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:
        raise FormatError(f"non-finite parameter {params[bad[0]]} "
                          f"at offset {_CKPT_HEADER.size + 8 * int(bad[0])}")
    return Adapter(params)
