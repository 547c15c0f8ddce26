import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from craft.anchors import kmeans
from craft.core import ConfigError, FormatError, SplitError, make_rng
from craft.dataio import (MAX_DIM, Domain, Modality, SyntheticConfig, _latent_geometry,
                          few_shot_split, generate_synthetic, read_embeddings,
                          split_base_novel, write_embeddings)

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
    with pytest.raises(SplitError):
        split_base_novel(make_many_class_set(4), 1.2)


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


def test_few_shot_shots_must_be_positive():
    emb = make_many_class_set(3)
    with pytest.raises(ConfigError):
        few_shot_split(emb, 0, make_rng(0))


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
