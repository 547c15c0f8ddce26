"""Synthetic dual-modality embedding sets, class splits, few-shot sampling,
and the CEMB on-disk format.

CEMB layout (little-endian):
    magic  b"CEMB"
    u32    version (1)
    u32    record count
    u32    dim
    u32    num_classes
    per class name: u16 byte length + UTF-8 bytes
    per record (numpy dtype ``_record_dtype(dim)``): u32 class_id,
                u8 modality (0=image, 1=text), u8 domain (0=in-domain,
                1=out-of-domain), u16 group_id, dim * float32 vector;
                dim is at most MAX_DIM
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .core import ConfigError, FormatError, SplitError, l2_normalize, make_rng

CEMB_MAGIC = b"CEMB"
CEMB_VERSION = 1
LOAD_NORM_TOL = 1e-5


class Modality(IntEnum):
    IMAGE = 0
    TEXT = 1


class Domain(IntEnum):
    IN_DOMAIN = 0
    OUT_OF_DOMAIN = 1


@dataclass
class EmbeddingSet:
    """Columnar store of embedding records sharing one dimension and vocabulary."""

    vectors: np.ndarray  # (N, H) float64, rows unit-normalized
    class_ids: np.ndarray  # (N,) int64
    modalities: np.ndarray  # (N,) uint8
    domains: np.ndarray  # (N,) uint8
    group_ids: np.ndarray  # (N,) int64
    class_names: list[str]

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def subset(self, mask: np.ndarray, class_names: list[str] | None = None,
               class_ids: np.ndarray | None = None) -> "EmbeddingSet":
        return EmbeddingSet(
            vectors=self.vectors[mask],
            class_ids=self.class_ids[mask] if class_ids is None else class_ids,
            modalities=self.modalities[mask],
            domains=self.domains[mask],
            group_ids=self.group_ids[mask],
            class_names=list(self.class_names) if class_names is None else class_names,
        )

    def modality_mask(self, modality: Modality) -> np.ndarray:
        return self.modalities == int(modality)

    def image_vectors(self) -> np.ndarray:
        return self.vectors[self.modality_mask(Modality.IMAGE)]

    def class_rows(self, modality: Modality) -> list[np.ndarray]:
        """Per class c, the indices of its records of ``modality`` in record
        order: ``np.flatnonzero(modality_mask & (class_ids == c))``, from one
        stable sort instead of one scan per class."""
        rows = np.flatnonzero(self.modality_mask(modality))
        ids = self.class_ids[rows]
        order = np.argsort(ids, kind="stable")
        bounds = np.searchsorted(ids[order], np.arange(self.num_classes + 1))
        rows = rows[order]
        return [rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def validate(self) -> None:
        n = len(self)
        for arr, name in ((self.class_ids, "class_ids"), (self.modalities, "modalities"),
                          (self.domains, "domains"), (self.group_ids, "group_ids")):
            if arr.shape != (n,):
                raise FormatError(f"{name} length {arr.shape} does not match {n} records")
        if n and (self.class_ids.min() < 0 or self.class_ids.max() >= self.num_classes):
            raise FormatError("class_id outside declared class vocabulary")
        for arr, name in ((self.modalities, "modality"), (self.domains, "domain")):
            bad = np.flatnonzero((arr != 0) & (arr != 1))
            if bad.size:
                raise FormatError(f"record {bad[0]}: {name} {arr[bad[0]]} is not 0 or 1")
        # the row norms only meet a tolerance here: einsum forms no (N, H) square
        norms = np.sqrt(np.einsum("ij,ij->i", self.vectors, self.vectors))
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= LOAD_NORM_TOL))  # NaN norms fail too
        if bad.size:
            raise FormatError(f"record {bad[0]} is not unit-normalized (norm {norms[bad[0]]:.6f})")


def make_embedding_set(vectors, class_ids, modalities, domains, group_ids,
                       class_names) -> EmbeddingSet:
    return EmbeddingSet(
        vectors=np.asarray(vectors, dtype=np.float64).reshape(len(class_ids), -1),
        class_ids=np.asarray(class_ids, dtype=np.int64),
        modalities=np.asarray(modalities, dtype=np.uint8),
        domains=np.asarray(domains, dtype=np.uint8),
        group_ids=np.asarray(group_ids, dtype=np.int64),
        class_names=list(class_names),
    )


# ---------------------------------------------------------------------------
# Synthetic generator


@dataclass
class SyntheticConfig:
    """Desk-scale stand-in for a dual-modality embedding dataset.

    Per class a latent mean is drawn uniformly on the unit sphere; image and
    text samples are noisy, modality-offset copies of it. The target set
    rotates and translates the image means by ``domain_shift_magnitude``
    before sampling and is tagged out-of-domain. With
    ``group_spurious_strength > 0`` one designated coordinate is correlated
    with the class label for a ``majority_fraction`` of image samples
    (group 0) and anti-correlated for the rest (group 1).
    """

    num_classes: int
    dim: int
    samples_per_class_per_modality: int
    cluster_spread: float
    cross_modal_noise: float
    domain_shift_magnitude: float = 0.0
    group_spurious_strength: float = 0.0
    majority_fraction: float = 0.9
    seed: int = 0

    def validate(self) -> None:
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.dim < 2:
            raise ConfigError("dim must be >= 2")
        if self.samples_per_class_per_modality < 1:
            raise ConfigError("samples_per_class_per_modality must be >= 1")
        # a set's (2·K·n, dim) vectors and the (dim, dim) rotation draw, in float64
        rows = 2 * self.num_classes * self.samples_per_class_per_modality
        size = 8 * max(rows, self.dim) * self.dim
        if size > np.iinfo(np.intp).max:
            raise ConfigError(f"{rows} records of dim {self.dim} need arrays larger than "
                              f"numpy's largest array ({np.iinfo(np.intp).max} bytes)")
        memory = _physical_memory()
        if memory is not None and size > memory:
            raise ConfigError(f"{rows} records of dim {self.dim} need a {size}-byte array, "
                              f"more than this machine's physical memory ({memory} bytes)")
        for name in ("cluster_spread", "cross_modal_noise", "domain_shift_magnitude",
                     "group_spurious_strength", "majority_fraction"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        if self.cluster_spread <= 0:
            raise ConfigError("cluster_spread must be > 0")
        if self.cross_modal_noise < 0 or self.domain_shift_magnitude < 0:
            raise ConfigError("noise and shift magnitudes must be >= 0")
        if not 0.0 <= self.group_spurious_strength <= 1.0:
            raise ConfigError("group_spurious_strength must be in [0, 1]")
        if not 0.0 < self.majority_fraction < 1.0:
            raise ConfigError("majority_fraction must be in (0, 1)")


def _physical_memory() -> int | None:
    """The machine's physical memory in bytes, or None where the OS does
    not report it."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return page * pages if page > 0 and pages > 0 else None


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    return l2_normalize(rng.standard_normal(dim))


def _block_rotation(rng: np.random.Generator, dim: int, angle: float) -> np.ndarray:
    """Orthogonal map rotating every vector by ``angle`` radians: Givens
    rotations in the planes of column pairs (0, 1), (2, 3), ... of one random
    orthonormal basis, summed by one GEMM; an odd dim's last axis stays
    fixed. ``angle = 0`` returns the exact identity."""
    draw = rng.standard_normal((dim, dim))  # drawn at any angle: the stream stays put
    rot = np.eye(dim)
    if angle == 0.0:  # each plane would add only a signed zero
        return rot
    q, _ = np.linalg.qr(draw)
    c, s = math.cos(angle), math.sin(angle)
    q1, q2 = q[:, 0:dim - 1:2], q[:, 1::2]
    rot += np.hstack([q1, q2]) @ np.hstack([(c - 1.0) * q1 - s * q2, s * q1 + (c - 1.0) * q2]).T
    return rot


def _sample_modality(rng, out, means, offset, noise_scale, cfg, with_groups):
    """Write per-class samples around ``means + offset`` into the rows of
    ``out``, class by class; returns their group ids."""
    k, h = means.shape
    n = cfg.samples_per_class_per_modality
    groups = np.zeros(k * n, dtype=np.int64)
    half = (k + 1) // 2
    for c in range(k):
        raw = rng.standard_normal((n, h))
        raw *= noise_scale
        raw += means[c] + offset
        if with_groups and cfg.group_spurious_strength > 0:
            majority = rng.random(n) < cfg.majority_fraction
            groups[c * n:(c + 1) * n] = ~majority
            class_sign = 1.0 if c < half else -1.0
            sample_sign = np.where(majority, 1.0, -1.0)
            raw[:, -1] += cfg.group_spurious_strength * class_sign * sample_sign
        out[c * n:(c + 1) * n] = l2_normalize(raw)
    return groups


def _latent_geometry(cfg: SyntheticConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """The generator's first draws from ``rng``: the source image means
    (``class_means``), the target image means, the text means and the
    per-modality offsets every sample of that modality is shifted by."""
    k, h = cfg.num_classes, cfg.dim
    means = l2_normalize(rng.standard_normal((k, h)))
    image_offset = 0.5 * cfg.cluster_spread * _random_unit(rng, h)
    text_offset = 0.5 * cfg.cross_modal_noise * _random_unit(rng, h)
    text_means = means @ _block_rotation(rng, h, cfg.cross_modal_noise).T
    shift = _block_rotation(rng, h, cfg.domain_shift_magnitude)
    translation = 0.5 * cfg.domain_shift_magnitude * _random_unit(rng, h)
    return {"class_means": means, "target_means": means @ shift.T + translation,
            "text_means": text_means, "image_offset": image_offset, "text_offset": text_offset}


def generate_synthetic(cfg: SyntheticConfig) -> tuple[EmbeddingSet, EmbeddingSet]:
    """Generate an in-domain source set and a domain-shifted target set.

    Image clusters sit at the latent means; text clusters at a global
    rotation of them (angle ``cross_modal_noise``), so the cross-modal gap
    is a class-agnostic linear map. Both sets carry image and text records.
    The means and offsets are ``_latent_geometry(cfg, make_rng(cfg.seed))``.
    """
    cfg.validate()
    rng = make_rng(cfg.seed)
    geo = _latent_geometry(cfg, rng)
    k, n = cfg.num_classes, cfg.samples_per_class_per_modality

    def build(image_means, domain):
        vectors = np.empty((2 * k * n, cfg.dim))
        image_groups = _sample_modality(rng, vectors[:k * n], image_means, geo["image_offset"],
                                        cfg.cluster_spread, cfg, True)
        text_groups = _sample_modality(rng, vectors[k * n:], geo["text_means"],
                                       geo["text_offset"], cfg.cross_modal_noise, cfg, False)
        return EmbeddingSet(
            vectors=vectors, class_ids=np.tile(np.repeat(np.arange(k, dtype=np.int64), n), 2),
            modalities=np.repeat(np.array([Modality.IMAGE, Modality.TEXT], dtype=np.uint8), k * n),
            domains=np.full(2 * k * n, int(domain), dtype=np.uint8),
            group_ids=np.concatenate([image_groups, text_groups]),
            class_names=[f"class_{c:03d}" for c in range(k)])

    source = build(geo["class_means"], Domain.IN_DOMAIN)
    target = build(geo["target_means"], Domain.OUT_OF_DOMAIN)
    return source, target


# ---------------------------------------------------------------------------
# Splits and sampling


def split_base_novel(emb_set: EmbeddingSet, base_fraction: float) -> tuple[EmbeddingSet, EmbeddingSet]:
    """Partition classes deterministically: sorted class order, first
    ceil(base_fraction * K) classes to the base split. Class IDs are
    reindexed densely within each split."""
    k = emb_set.num_classes
    if k < 2:
        raise SplitError("need at least 2 classes to split")
    if not 0.0 < base_fraction < 1.0:
        raise SplitError("base_fraction must be in (0, 1)")
    n_base = math.ceil(base_fraction * k)
    if n_base >= k:
        n_base = k - 1

    def take(class_range):
        lo, hi = class_range
        mask = (emb_set.class_ids >= lo) & (emb_set.class_ids < hi)
        return emb_set.subset(mask, class_names=emb_set.class_names[lo:hi],
                              class_ids=emb_set.class_ids[mask] - lo)

    return take((0, n_base)), take((n_base, k))


def few_shot_split(emb_set: EmbeddingSet, shots: int, rng: np.random.Generator
                   ) -> tuple[EmbeddingSet, EmbeddingSet]:
    """Sample min(shots, available) records per class and modality without
    replacement; returns (sampled, held-out remainder). A class with no
    records of a modality gets none of it: ``build_training_anchors`` names
    such a class."""
    if shots < 1:
        raise ConfigError("shots must be >= 1")
    chosen = np.zeros(len(emb_set), dtype=bool)
    rows = {modality: emb_set.class_rows(modality) for modality in (Modality.IMAGE, Modality.TEXT)}
    for c in range(emb_set.num_classes):
        for modality in (Modality.IMAGE, Modality.TEXT):
            idx = rows[modality][c]
            if idx.size == 0:
                continue
            pick = rng.choice(idx.size, size=min(shots, idx.size), replace=False)
            chosen[idx[np.sort(pick)]] = True
    return emb_set.subset(chosen), emb_set.subset(~chosen)


# ---------------------------------------------------------------------------
# CEMB reader / writer

_HEADER = struct.Struct("<4sIIII")
# 8 + 4 * dim bytes per record must fit a C int to make a numpy dtype
MAX_DIM = 536_870_909
# the CEMB codec reads and writes this many bytes of whole records at a time
# (at least one record), through one reused buffer
_BLOCK_BYTES = 4 << 20
_NONBLOCK = getattr(os, "O_NONBLOCK", 0)  # absent where there are no FIFOs


def open_for_reading(path: str | Path):
    """``open(path, "rb")`` that does not wait for a FIFO's writer, as a
    plain open of a FIFO no process writes to would, forever. The readers
    trust the size ``os.fstat`` reports, 0 for a FIFO, so one reads as a
    truncated file."""
    return open(path, "rb", opener=lambda p, flags: os.open(p, flags | _NONBLOCK))


def _record_dtype(dim: int) -> np.dtype:
    """One CEMB record: the per-record layout of the module docstring."""
    return np.dtype([("class_id", "<u4"), ("modality", "u1"), ("domain", "u1"),
                     ("group_id", "<u2"), ("vector", "<f4", (dim,))])


def write_embeddings(emb_set: EmbeddingSet, path: str | Path) -> None:
    """Serialize to CEMB. Vectors are narrowed to float32. Records are
    written ``_BLOCK_BYTES`` at a time: one block is allocated, not the file."""
    emb_set.validate()
    bad = np.flatnonzero((emb_set.group_ids < 0) | (emb_set.group_ids > 0xFFFF))
    if bad.size:
        raise FormatError(f"group_id {emb_set.group_ids[bad[0]]} does not fit in u16")
    head = bytearray(_HEADER.pack(CEMB_MAGIC, CEMB_VERSION, len(emb_set), emb_set.dim,
                                  emb_set.num_classes))
    for name in emb_set.class_names:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FormatError(f"class name too long ({len(raw)} bytes)")
        head += struct.pack("<H", len(raw)) + raw
    rec = _record_dtype(emb_set.dim)
    per_block = max(1, _BLOCK_BYTES // rec.itemsize)
    block = np.empty(min(len(emb_set), per_block), dtype=rec)
    with open(path, "wb") as f:
        f.write(head)
        for lo in range(0, len(emb_set), per_block):
            hi = min(lo + per_block, len(emb_set))
            records = block[:hi - lo]
            records["class_id"] = emb_set.class_ids[lo:hi]
            records["modality"] = emb_set.modalities[lo:hi]
            records["domain"] = emb_set.domains[lo:hi]
            records["group_id"] = emb_set.group_ids[lo:hi]
            records["vector"] = emb_set.vectors[lo:hi]
            f.write(records)


def read_embeddings(path: str | Path) -> EmbeddingSet:
    """Parse a CEMB file; malformed input raises FormatError with a byte offset.
    Records are read ``_BLOCK_BYTES`` at a time into the set's arrays, so
    the peak is the set plus one block."""
    with open_for_reading(path) as f:
        size = os.fstat(f.fileno()).st_size
        off = 0

        def need(n: int, what: str, into=None):
            """The next n bytes, read into ``into`` (a fresh bytearray if None)."""
            nonlocal off
            buf = bytearray(n) if into is None else into
            # a file can end before the size its fstat reported
            if off + n > size or f.readinto(buf) != n:
                raise FormatError(f"truncated file: need {n} bytes for {what} at offset {off}")
            off += n
            return buf

        magic, version, count, dim, num_classes = _HEADER.unpack(need(_HEADER.size, "header"))
        if magic != CEMB_MAGIC:
            raise FormatError(f"bad magic {magic!r} at offset 0")
        if version != CEMB_VERSION:
            raise FormatError(f"unsupported version {version} at offset 4")
        class_names = []
        for c in range(num_classes):
            (length,) = struct.unpack("<H", need(2, "class-name length"))
            start = off
            try:
                class_names.append(need(length, "class-name bytes").decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise FormatError(f"class name {c} is not valid UTF-8 at offset {start + exc.start}"
                                  ) from None

        # the header comes from outside: check the file length it implies
        # before allocating for it
        records_bytes = count * (8 + 4 * dim)  # _record_dtype(dim).itemsize, not built yet
        if records_bytes > size - off:
            raise FormatError(f"truncated file: header declares {count} records of dim {dim} "
                              f"({records_bytes} bytes) at offset {off}, "
                              f"but {size - off} bytes remain")
        if dim > MAX_DIM:
            raise FormatError(f"dim {dim} above the largest supported {MAX_DIM} at offset 12")
        rec = _record_dtype(dim)
        result = EmbeddingSet(np.empty((count, dim)), np.empty(count, dtype=np.int64),
                              np.empty(count, dtype=np.uint8), np.empty(count, dtype=np.uint8),
                              np.empty(count, dtype=np.int64), class_names)
        first = off
        per_block = max(1, _BLOCK_BYTES // rec.itemsize)
        raw = np.empty(min(count, per_block) * rec.itemsize, dtype=np.uint8)
        for lo in range(0, count, per_block):
            hi = min(lo + per_block, count)
            records = need((hi - lo) * rec.itemsize, f"records {lo} to {hi - 1}",
                           raw[:(hi - lo) * rec.itemsize]).view(rec)
            cid, mod, dom = records["class_id"], records["modality"], records["domain"]
            bad = np.flatnonzero((cid >= num_classes) | (mod > 1) | (dom > 1))
            if bad.size:  # the first bad record, its first bad field
                j = int(bad[0])
                i, at = lo + j, first + (lo + j) * rec.itemsize
                if cid[j] >= num_classes:
                    raise FormatError(f"record {i}: class_id {cid[j]} >= num_classes "
                                      f"{num_classes} at offset {at}")
                if mod[j] > 1:
                    raise FormatError(f"record {i}: bad modality byte {mod[j]} at offset {at + 4}")
                raise FormatError(f"record {i}: bad domain byte {dom[j]} at offset {at + 5}")
            result.vectors[lo:hi] = records["vector"]
            result.class_ids[lo:hi] = cid
            result.modalities[lo:hi] = mod
            result.domains[lo:hi] = dom
            result.group_ids[lo:hi] = records["group_id"]
        if off != size:
            raise FormatError(f"{size - off} trailing bytes at offset {off}")

    result.validate()
    return result
