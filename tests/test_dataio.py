import contextlib
import dataclasses
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import craft.dataio as dataio
from craft.anchors import kmeans
from craft.core import ConfigError, FormatError, SplitError, l2_normalize, make_rng
from craft.dataio import (MAX_DIM, Domain, Modality, SyntheticConfig, _block_rotation,
                          _latent_geometry,
                          few_shot_split, generate_synthetic, read_embeddings,
                          split_base_novel, write_embeddings)
from craft.experiments import reference_config

from conftest import apply_edits, byte_edits, toy_embedding_set


def small_cfg(**overrides):
    base = dict(num_classes=4, dim=8, samples_per_class_per_modality=8,
                cluster_spread=0.1, cross_modal_noise=0.1, seed=3)
    base.update(overrides)
    return SyntheticConfig(**base)


# ---------------------------------------------------------------------------
# Synthetic generator


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(num_classes=1).validate()
    with pytest.raises(ConfigError):
        small_cfg(dim=1).validate()
    with pytest.raises(ConfigError):
        small_cfg(cluster_spread=0.0).validate()
    with pytest.raises(ConfigError):
        small_cfg(majority_fraction=1.0).validate()
    with pytest.raises(ConfigError):
        small_cfg(group_spurious_strength=1.5).validate()
    with pytest.raises(ConfigError):
        small_cfg(domain_shift_magnitude=float("nan")).validate()
    with pytest.raises(ConfigError, match="largest array"):
        small_cfg(dim=2**30).validate()  # the (dim, dim) rotation draw


def latents(cfg):
    """The generator's means and offsets for ``cfg``, drawn as it draws them."""
    return _latent_geometry(cfg, make_rng(cfg.seed))


def test_zero_shift_means_identical():
    geo = latents(small_cfg(domain_shift_magnitude=0.0))
    np.testing.assert_array_equal(geo["class_means"], geo["target_means"])


def test_nonzero_shift_moves_means():
    cfg = small_cfg(domain_shift_magnitude=1.0)
    source, target = generate_synthetic(cfg)
    geo = latents(cfg)
    assert not np.allclose(geo["class_means"], geo["target_means"], atol=1e-3)
    assert np.all(target.domains == int(Domain.OUT_OF_DOMAIN))
    assert np.all(source.domains == int(Domain.IN_DOMAIN))


def test_groups_disabled_means_group_zero():
    source, target = generate_synthetic(small_cfg(group_spurious_strength=0.0))
    assert np.all(source.group_ids == 0)
    assert np.all(target.group_ids == 0)


def test_groups_enabled_structure():
    source, _ = generate_synthetic(small_cfg(
        group_spurious_strength=0.5, majority_fraction=0.75,
        samples_per_class_per_modality=64, seed=11))
    img = source.modality_mask(Modality.IMAGE)
    groups = source.group_ids[img]
    assert set(np.unique(groups)) == {0, 1}
    # majority fraction holds roughly, and text records carry no groups
    assert 0.6 < np.mean(groups == 0) < 0.9
    assert np.all(source.group_ids[~img] == 0)
    # the designated coordinate correlates with class half for group 0
    half = (source.num_classes + 1) // 2
    sign = np.where(source.class_ids[img] < half, 1.0, -1.0)
    coord = source.vectors[img][:, -1]
    flip = np.where(groups == 0, 1.0, -1.0)
    assert np.corrcoef(coord, sign * flip)[0, 1] > 0.5


def test_generator_deterministic():
    a, _ = generate_synthetic(small_cfg())
    b, _ = generate_synthetic(small_cfg())
    np.testing.assert_array_equal(a.vectors, b.vectors)
    np.testing.assert_array_equal(a.class_ids, b.class_ids)


def per_class_oracle(cfg):
    """Both sets' columns by the per-class formula: per set and modality,
    each class's samples are drawn, shifted and normalised into a list of
    blocks, and the lists are concatenated."""
    rng = make_rng(cfg.seed)
    geo = _latent_geometry(cfg, rng)
    k, n = cfg.num_classes, cfg.samples_per_class_per_modality
    sets = []
    for image_means, domain in ((geo["class_means"], 0), (geo["target_means"], 1)):
        vectors, class_ids, modalities, group_ids = [], [], [], []
        for modality, means, offset, noise in (
                (0, image_means, geo["image_offset"], cfg.cluster_spread),
                (1, geo["text_means"], geo["text_offset"], cfg.cross_modal_noise)):
            for c in range(k):
                raw = means[c] + offset + noise * rng.standard_normal((n, cfg.dim))
                groups = np.zeros(n, dtype=np.int64)
                if modality == 0 and cfg.group_spurious_strength > 0:
                    majority = rng.random(n) < cfg.majority_fraction
                    groups = np.where(majority, 0, 1)
                    class_sign = 1.0 if c < (k + 1) // 2 else -1.0
                    raw[:, -1] += (cfg.group_spurious_strength * class_sign
                                   * np.where(majority, 1.0, -1.0))
                vectors.append(l2_normalize(raw))
                class_ids.append(np.full(n, c, dtype=np.int64))
                modalities.append(np.full(n, modality, dtype=np.uint8))
                group_ids.append(groups)
        sets.append([np.concatenate(vectors), np.concatenate(class_ids),
                     np.concatenate(modalities), np.full(2 * k * n, domain, dtype=np.uint8),
                     np.concatenate(group_ids)])
    return sets


@pytest.mark.parametrize("changes", [
    {}, {"domain_shift_magnitude": 1.0},
    {"num_classes": 2, "group_spurious_strength": 0.8},
    {"num_classes": 7, "dim": 33, "samples_per_class_per_modality": 1},
], ids=["reference", "shift-1", "k2-groups", "k7-d33-n1"])
def test_generator_matches_per_class_oracle(changes):
    cfg = dataclasses.replace(reference_config().synthetic, **changes)
    for emb, expected in zip(generate_synthetic(cfg), per_class_oracle(cfg)):
        columns = (emb.vectors, emb.class_ids, emb.modalities, emb.domains, emb.group_ids)
        for got, want in zip(columns, expected):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()  # bitwise, signed zeros included
        assert emb.class_names == [f"class_{c:03d}" for c in range(cfg.num_classes)]


@pytest.mark.parametrize("dim", [2, 5, 16])
def test_block_rotation_at_angle_zero_is_identity_and_keeps_the_stream(dim):
    rng, turned = make_rng(4), make_rng(4)
    rot = _block_rotation(rng, dim, 0.0)
    assert rot.dtype == np.float64 and rot.tobytes() == np.eye(dim).tobytes()
    _block_rotation(turned, dim, 0.3)
    assert rng.standard_normal(3).tobytes() == turned.standard_normal(3).tobytes()


def plane_loop_rotation(rng, dim, angle):
    """``_block_rotation`` plane by plane, four outer products per plane;
    returns the rotation and the orthonormal basis of its planes."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    c, s = math.cos(angle), math.sin(angle)
    rot = np.eye(dim)
    for i in range(0, dim - 1, 2):
        q1, q2 = q[:, i], q[:, i + 1]
        rot += ((c - 1.0) * (np.outer(q1, q1) + np.outer(q2, q2))
                + s * (np.outer(q2, q1) - np.outer(q1, q2)))
    return rot, q


@pytest.mark.parametrize("angle", [0.3, 0.65, 1.0, math.pi])
@pytest.mark.parametrize("dim", [2, 3, 5, 16, 33, 128])
def test_block_rotation_matches_the_plane_loop(dim, angle):
    rot = _block_rotation(make_rng(5), dim, angle)
    oracle, q = plane_loop_rotation(make_rng(5), dim, angle)
    # one GEMM sums the planes in another order: a few ulps per entry
    assert np.abs(rot - oracle).max() <= 8 * dim * np.finfo(np.float64).eps
    np.testing.assert_allclose(rot @ rot.T, np.eye(dim), rtol=0, atol=1e-13)
    for i in range(0, dim - 1, 2):
        turned = rot @ q[:, i]
        assert abs(q[:, i] @ turned - math.cos(angle)) <= 1e-14
        assert abs(q[:, i + 1] @ turned - math.sin(angle)) <= 1e-14
    if dim % 2:
        np.testing.assert_allclose(rot @ q[:, -1], q[:, -1], rtol=0, atol=1e-14)


GENERATOR_CHILD = """
import dataclasses, hashlib
from craft.dataio import generate_synthetic
from craft.experiments import reference_config
for changes in ({"domain_shift_magnitude": 1.0},
                {"num_classes": 100, "dim": 128, "samples_per_class_per_modality": 20,
                 "group_spurious_strength": 0.8, "domain_shift_magnitude": 1.0},
                {"num_classes": 100, "dim": 512, "samples_per_class_per_modality": 20,
                 "domain_shift_magnitude": 1.0}):
    digest = hashlib.sha256()
    for emb in generate_synthetic(dataclasses.replace(reference_config().synthetic, **changes)):
        for column in (emb.vectors, emb.class_ids, emb.modalities, emb.domains, emb.group_ids):
            digest.update(column.tobytes())
    print(digest.hexdigest())
"""


def test_generator_thread_invariant_at_the_shapes_in_use():
    """The desk ``ood`` shape (K=16, H=16), the digest's generator shape
    (K=100, H=128) and the clip shape (K=100, H=512), all at shift 1.0, give
    the same bytes at 1 and 2 BLAS threads. Some other dims do not: the QR
    and the square GEMMs of the rotations sum in a thread-dependent order
    there (README, "Checking that behaviour is unchanged")."""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        digests.append(subprocess.run([sys.executable, "-c", GENERATOR_CHILD], env=env,
                                      check=True, capture_output=True, text=True).stdout)
    assert len(digests[0].split()) == 3
    assert digests[0] == digests[1]


def test_generator_memory_is_its_two_sets():
    # each set is allocated once at its final size: the peak is both sets'
    # vectors plus a class block and the latent geometry
    cfg = SyntheticConfig(num_classes=20, dim=128, samples_per_class_per_modality=200,
                          cluster_spread=0.35, cross_modal_noise=0.65,
                          group_spurious_strength=0.5, seed=7)
    tracemalloc.start()
    try:
        source, target = generate_synthetic(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * (source.vectors.nbytes + target.vectors.nbytes)


def test_per_class_kmeans_centroids_near_latents():
    # spec example: K=4, H=16, 32/class, spread 0.1, seed 7
    cfg = SyntheticConfig(num_classes=4, dim=16, samples_per_class_per_modality=32,
                          cluster_spread=0.1, cross_modal_noise=0.1, seed=7)
    source, _ = generate_synthetic(cfg)
    rng = make_rng(0)
    img = source.modality_mask(Modality.IMAGE)
    for c in range(cfg.num_classes):
        points = source.vectors[img & (source.class_ids == c)]
        centroid = kmeans(points, 1, rng).centroids[0]
        assert np.linalg.norm(centroid - latents(cfg)["class_means"][c]) < 0.15


# ---------------------------------------------------------------------------
# Splits


def make_many_class_set(k, per_class=1, dim=4, seed=0):
    rng = make_rng(seed)
    n = k * per_class
    return toy_embedding_set(rng.standard_normal((n, dim)),
                             np.repeat(np.arange(k), per_class),
                             np.zeros(n, dtype=np.uint8), num_classes=k)


def test_split_500_500():
    emb = make_many_class_set(1000)
    base, novel = split_base_novel(emb, 0.5)
    assert base.num_classes == 500 and novel.num_classes == 500


def test_split_minimal():
    emb = make_many_class_set(2)
    base, novel = split_base_novel(emb, 0.5)
    assert base.num_classes == 1 and novel.num_classes == 1


def test_split_ceiling_37():
    emb = make_many_class_set(37)
    base, novel = split_base_novel(emb, 0.5)
    assert base.num_classes == 19 and novel.num_classes == 18


def test_split_errors():
    with pytest.raises(SplitError):
        split_base_novel(make_many_class_set(1), 0.5)


@given(st.integers(2, 40), st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_split_partitions_classes(k, fraction):
    emb = make_many_class_set(k, per_class=2)
    base, novel = split_base_novel(emb, fraction)
    assert set(base.class_names) | set(novel.class_names) == set(emb.class_names)
    assert not set(base.class_names) & set(novel.class_names)
    assert len(base) + len(novel) == len(emb)
    base.validate()
    novel.validate()


# ---------------------------------------------------------------------------
# Few-shot sampling


def test_class_rows_is_the_per_class_mask_scan():
    rng = make_rng(8)
    n, k = 60, 5
    class_ids = rng.integers(0, k - 1, size=n)  # class 4 has no records at all
    modalities = rng.integers(0, 2, size=n)
    modalities[class_ids == 2] = int(Modality.IMAGE)  # class 2 has no text records
    emb = toy_embedding_set(rng.standard_normal((n, 3)), class_ids, modalities,
                            num_classes=k)
    for modality in (Modality.IMAGE, Modality.TEXT):
        rows = emb.class_rows(modality)
        assert len(rows) == k
        for c in range(k):
            expected = np.flatnonzero(emb.modality_mask(modality) & (emb.class_ids == c))
            np.testing.assert_array_equal(rows[c], expected)
    assert emb.class_rows(Modality.TEXT)[2].size == 0
    assert emb.class_rows(Modality.IMAGE)[4].size == 0


def test_few_shot_16_of_32():
    source, _ = generate_synthetic(small_cfg(samples_per_class_per_modality=32))
    sampled = few_shot_split(source, 16, make_rng(5))[0]
    for c in range(source.num_classes):
        for modality in (Modality.IMAGE, Modality.TEXT):
            count = np.sum((sampled.class_ids == c) & sampled.modality_mask(modality))
            assert count == 16


def test_few_shot_all_available_is_identity():
    source, _ = generate_synthetic(small_cfg())
    sampled = few_shot_split(source, 10_000, make_rng(5))[0]
    np.testing.assert_array_equal(sampled.vectors, source.vectors)
    np.testing.assert_array_equal(sampled.class_ids, source.class_ids)


def test_few_shot_deterministic():
    source, _ = generate_synthetic(small_cfg())
    a = few_shot_split(source, 3, make_rng(5))[0]
    b = few_shot_split(source, 3, make_rng(5))[0]
    np.testing.assert_array_equal(a.vectors, b.vectors)


def test_few_shot_split_partitions():
    source, _ = generate_synthetic(small_cfg())
    sampled, heldout = few_shot_split(source, 3, make_rng(5))
    assert len(sampled) + len(heldout) == len(source)
    # histogram uniform at min(shots, class size)
    for c in range(source.num_classes):
        for modality in (Modality.IMAGE, Modality.TEXT):
            assert np.sum((sampled.class_ids == c) & sampled.modality_mask(modality)) == 3


# ---------------------------------------------------------------------------
# CEMB round-trips


def test_roundtrip_preserves_everything(tmp_path):
    source, _ = generate_synthetic(small_cfg(group_spurious_strength=0.4))
    path = tmp_path / "set.cemb"
    write_embeddings(source, path)
    back = read_embeddings(path)
    np.testing.assert_array_equal(back.vectors,
                                  source.vectors.astype(np.float32).astype(np.float64))
    np.testing.assert_array_equal(back.class_ids, source.class_ids)
    np.testing.assert_array_equal(back.modalities, source.modalities)
    np.testing.assert_array_equal(back.domains, source.domains)
    np.testing.assert_array_equal(back.group_ids, source.group_ids)
    assert back.class_names == source.class_names


def test_roundtrip_bitwise_stable_after_first_write(tmp_path):
    source, _ = generate_synthetic(small_cfg())
    p1, p2 = tmp_path / "a.cemb", tmp_path / "b.cemb"
    write_embeddings(source, p1)
    once = read_embeddings(p1)
    write_embeddings(once, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_codec_matches_per_record_struct_layout(tmp_path):
    # the reference: header, names, then each record packed on its own
    source, _ = generate_synthetic(small_cfg(group_spurious_strength=0.4,
                                             domain_shift_magnitude=0.5))
    source.group_ids[::7] = 0xFFFF
    source.domains[::3] = 1
    expected = b"CEMB" + struct.pack("<IIII", 1, len(source), source.dim, source.num_classes)
    expected += b"".join(struct.pack("<H", len(n)) + n.encode() for n in source.class_names)
    for i in range(len(source)):
        expected += struct.pack("<IBBH", source.class_ids[i], source.modalities[i],
                                source.domains[i], source.group_ids[i])
        expected += struct.pack(f"<{source.dim}f", *source.vectors[i])
    path = tmp_path / "layout.cemb"
    write_embeddings(source, path)
    assert path.read_bytes() == expected
    back = read_embeddings(path)
    np.testing.assert_array_equal(back.group_ids, source.group_ids)
    np.testing.assert_array_equal(back.domains, source.domains)
    for column in ("class_ids", "modalities", "domains", "group_ids"):
        assert getattr(back, column).dtype == getattr(source, column).dtype


def test_codec_layout_does_not_depend_on_the_block(tmp_path, monkeypatch):
    # small_cfg's 64 records of 40 bytes: one default block, or three of 25,
    # 25 and 14 records
    source, _ = generate_synthetic(small_cfg(group_spurious_strength=0.4))
    source.domains[::3] = 1
    whole, blocked = tmp_path / "whole.cemb", tmp_path / "blocked.cemb"
    write_embeddings(source, whole)
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 25 * 40 + 13)
    write_embeddings(source, blocked)
    assert blocked.read_bytes() == whole.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.cemb"
    path.write_bytes(b"XXXX" + bytes(32))
    with pytest.raises(FormatError, match="magic"):
        read_embeddings(path)


def test_bad_version(tmp_path):
    source, _ = generate_synthetic(small_cfg())
    path = tmp_path / "v.cemb"
    write_embeddings(source, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        read_embeddings(path)


def test_truncated_file_reports_offset(tmp_path):
    source, _ = generate_synthetic(small_cfg())
    path = tmp_path / "t.cemb"
    write_embeddings(source, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(FormatError, match="offset"):
        read_embeddings(path)


def test_bad_class_id_rejected(tmp_path):
    emb = toy_embedding_set(np.eye(2), [0, 1], [0, 1], num_classes=2)
    path = tmp_path / "c.cemb"
    write_embeddings(emb, path)
    raw = bytearray(path.read_bytes())
    # first record header sits right after header + two 1-byte-prefixed names
    offset = 20 + sum(2 + len(n) for n in emb.class_names)
    raw[offset:offset + 4] = struct.pack("<I", 7)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="class_id"):
        read_embeddings(path)


def test_hand_built_single_record_file(tmp_path):
    # one record of dimension 2, class "x", image, in-domain, group 3
    payload = b"CEMB"
    payload += struct.pack("<IIII", 1, 1, 2, 1)
    payload += struct.pack("<H", 1) + b"x"
    payload += struct.pack("<IBBH", 0, 0, 0, 3)
    payload += struct.pack("<ff", 0.6, 0.8)
    path = tmp_path / "hand.cemb"
    path.write_bytes(payload)
    emb = read_embeddings(path)
    assert len(emb) == 1 and emb.class_names == ["x"]
    assert emb.modalities[0] == Modality.IMAGE
    assert emb.domains[0] == Domain.IN_DOMAIN
    assert emb.group_ids[0] == 3
    np.testing.assert_allclose(emb.vectors[0], np.array([0.6, 0.8], dtype=np.float32))


def test_non_unit_vector_rejected(tmp_path):
    payload = b"CEMB"
    payload += struct.pack("<IIII", 1, 1, 2, 1)
    payload += struct.pack("<H", 1) + b"x"
    payload += struct.pack("<IBBH", 0, 0, 0, 0)
    payload += struct.pack("<ff", 3.0, 4.0)
    path = tmp_path / "badnorm.cemb"
    path.write_bytes(payload)
    with pytest.raises(FormatError, match="unit-normalized"):
        read_embeddings(path)


def test_nan_vector_rejected():
    emb = toy_embedding_set(np.eye(4)[:2], [0, 1], [0, 0])
    emb.validate()
    emb.vectors[1] = [np.nan, 0.0, 0.0, 0.0]
    with pytest.raises(FormatError, match="record 1 is not unit-normalized"):
        emb.validate()


def test_trailing_bytes_rejected(tmp_path):
    source, _ = generate_synthetic(small_cfg())
    path = tmp_path / "trail.cemb"
    write_embeddings(source, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        read_embeddings(path)


# ---------------------------------------------------------------------------
# CEMB record faults: the error names the first bad record in file order,
# then its first bad field in layout order (class_id, modality, domain)


def _two_record_fault(tmp_path, *edits):
    """Read a two-record file of dim 2 after setting single bytes: ``edits``
    are (record, byte within the record, value); returns the error message."""
    emb = toy_embedding_set(np.eye(2), [0, 1], [0, 1], num_classes=2)
    path = tmp_path / "faults.cemb"
    write_embeddings(emb, path)
    raw = bytearray(path.read_bytes())
    first = 20 + sum(2 + len(n) for n in emb.class_names)  # 42
    for record, at, value in edits:
        raw[first + record * 16 + at] = value
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as info:
        read_embeddings(path)
    return str(info.value)


def test_bad_modality_byte_rejected(tmp_path):
    assert _two_record_fault(tmp_path, (0, 4, 2)) == "record 0: bad modality byte 2 at offset 46"


def test_bad_domain_byte_rejected(tmp_path):
    assert _two_record_fault(tmp_path, (1, 5, 7)) == "record 1: bad domain byte 7 at offset 63"


def test_first_of_two_bad_records_named(tmp_path):
    message = _two_record_fault(tmp_path, (1, 0, 9), (0, 5, 3))
    assert message == "record 0: bad domain byte 3 at offset 47"


def test_first_of_two_bad_fields_named(tmp_path):
    message = _two_record_fault(tmp_path, (1, 5, 4), (1, 4, 5), (1, 0, 9))
    assert message == "record 1: class_id 9 >= num_classes 2 at offset 58"
    message = _two_record_fault(tmp_path, (1, 5, 4), (1, 4, 5))
    assert message == "record 1: bad modality byte 5 at offset 62"


# ---------------------------------------------------------------------------
# CEMB records are read in blocks of whole records: small_cfg's 64 records of
# dim 8 (40 bytes each) span blocks of 25, 25 and 14 records


def _blocked_file(tmp_path, monkeypatch):
    """A small_cfg source set written to a file, the reader's block cut to 25
    records (plus a partial record's bytes); returns the set, the path and
    the offset of the first record."""
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 25 * 40 + 13)
    source, _ = generate_synthetic(small_cfg(group_spurious_strength=0.4))
    source.domains[::3] = 1
    path = tmp_path / "blocks.cemb"
    write_embeddings(source, path)
    first = 20 + sum(2 + len(n) for n in source.class_names)
    assert len(source) == 64 and path.stat().st_size == first + 64 * 40
    return source, path, first


def test_records_read_across_blocks(tmp_path, monkeypatch):
    source, path, _ = _blocked_file(tmp_path, monkeypatch)
    back = read_embeddings(path)
    np.testing.assert_array_equal(back.vectors,
                                  source.vectors.astype(np.float32).astype(np.float64))
    for column in ("class_ids", "modalities", "domains", "group_ids"):
        np.testing.assert_array_equal(getattr(back, column), getattr(source, column))


@pytest.mark.parametrize("record, at, value, message", [
    (30, 4, 2, "bad modality byte 2"), (49, 0, 4, "class_id 4 >= num_classes 4"),
    (50, 5, 9, "bad domain byte 9")])
def test_bad_record_in_a_later_block_named_by_its_file_index(tmp_path, monkeypatch, record,
                                                             at, value, message):
    _, path, first = _blocked_file(tmp_path, monkeypatch)
    raw = bytearray(path.read_bytes())
    raw[first + record * 40 + at] = value
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as info:
        read_embeddings(path)
    assert str(info.value) == f"record {record}: {message} at offset {first + record * 40 + at}"


def test_file_shorter_than_its_reported_size_is_truncated(tmp_path, monkeypatch):
    # the file loses its last 24 records between the reader's fstat and its
    # reads: the second block comes back short and the third empty
    _, path, first = _blocked_file(tmp_path, monkeypatch)
    real_fstat = os.fstat

    def fstat_then_truncate(fd):
        st = real_fstat(fd)
        os.truncate(path, first + 40 * 40)
        return st

    monkeypatch.setattr(os, "fstat", fstat_then_truncate)
    with pytest.raises(FormatError) as info:
        read_embeddings(path)
    assert str(info.value) == ("truncated file: need 1000 bytes for records 25 to 49 "
                               f"at offset {first + 1000}")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_fifo_is_refused_as_truncated(tmp_path):
    # a FIFO reports size 0 whatever its writer sends
    source, _ = generate_synthetic(small_cfg())
    plain, fifo = tmp_path / "plain.cemb", tmp_path / "pipe.cemb"
    write_embeddings(source, plain)
    os.mkfifo(fifo)

    def send():  # fits the pipe's buffer: the write does not wait for the reader
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as out:
            out.write(plain.read_bytes())

    writer = threading.Thread(target=send, daemon=True)
    writer.start()
    try:
        with pytest.raises(FormatError) as info:
            read_embeddings(fifo)
    finally:
        writer.join(timeout=10)
    assert str(info.value) == "truncated file: need 20 bytes for header at offset 0"


def test_read_memory_is_the_set_plus_one_block(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 256 << 10)
    rng = make_rng(5)
    n = 4000
    emb = toy_embedding_set(rng.standard_normal((n, 256)), rng.integers(0, 10, n),
                            rng.integers(0, 2, n), num_classes=10)
    path = tmp_path / "peak.cemb"
    write_embeddings(emb, path)
    del emb
    tracemalloc.start()
    try:
        back = read_embeddings(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = (back.vectors, back.class_ids, back.modalities, back.domains, back.group_ids)
    # the file is 4.1 MB: a whole-file copy would not fit
    assert peak <= sum(a.nbytes for a in columns) + (256 << 10) + (1 << 20)


@pytest.mark.parametrize("column, value", [("modalities", 2), ("domains", 7)])
def test_write_refuses_what_read_refuses(tmp_path, column, value):
    emb = toy_embedding_set(np.eye(2), [0, 1], [0, 1], num_classes=2)
    getattr(emb, column)[1] = value
    path = tmp_path / "refused.cemb"
    with pytest.raises(FormatError, match=f"record 1: .* {value} is not 0 or 1"):
        write_embeddings(emb, path)
    assert not path.exists()


def test_group_id_must_fit_u16(tmp_path):
    emb = toy_embedding_set(np.eye(2), [0, 1], [0, 1], num_classes=2,
                            group_ids=np.array([0xFFFF, 0x10000]))
    path = tmp_path / "groups.cemb"
    with pytest.raises(FormatError, match="group_id 65536 does not fit in u16"):
        write_embeddings(emb, path)
    assert not path.exists()


def _header(count, dim, num_classes=1):
    return (b"CEMB" + struct.pack("<IIII", 1, count, dim, num_classes)
            + b"".join(struct.pack("<H", 1) + b"x" for _ in range(num_classes)))


def test_dim_limit(tmp_path):
    path = tmp_path / "dim.cemb"
    path.write_bytes(_header(0, MAX_DIM))
    assert read_embeddings(path).dim == MAX_DIM
    for dim in (MAX_DIM + 1, 2**32 - 1):
        path.write_bytes(_header(0, dim))
        with pytest.raises(FormatError, match="at offset 12"):
            read_embeddings(path)


# ---------------------------------------------------------------------------
# Fuzzing: bytes of a small valid file truncated, extended or overwritten,
# header included, are read into a valid set or refused with FormatError


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


_VALID = (_header(3, 3, num_classes=2)
          + b"".join(struct.pack("<IBBH", c, m, d, g) + struct.pack("<fff", *v)
                     for c, m, d, g, v in ((0, 0, 0, 0, (1.0, 0.0, 0.0)),
                                           (1, 1, 0, 3, (0.0, 0.6, 0.8)),
                                           (1, 0, 1, 0, (0.0, 0.0, 1.0)))))

@given(byte_edits(len(_VALID)))
@example([("overwrite", 8, struct.pack("<II", 0, 2**32 - 1))])
@example([("overwrite", 8, struct.pack("<II", 1, 2**32 - 1))])
@example([("overwrite", 16, struct.pack("<I", 2**32 - 1))])
@settings(max_examples=300, deadline=None)
def test_fuzzed_cemb_is_read_or_refused(fuzz_dir, edits):
    path = fuzz_dir / "fuzzed.cemb"
    path.write_bytes(apply_edits(_VALID, edits))
    try:
        emb = read_embeddings(path)
    except FormatError:
        return
    emb.validate()
