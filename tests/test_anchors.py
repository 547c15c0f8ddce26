import numpy as np
import pytest

import craft.anchors as anchors_mod
from craft.adapter import Adapter
from craft.anchors import (AnchorError, AnchorSet, ClusterError, _lex_order, _sq_dists_to,
                           build_static_image_anchors, build_static_text_anchors,
                           kmeans, read_anchors, write_anchors)
from craft.core import l2_normalize, make_rng, pairwise_sq_dists
from craft.dataio import Modality, SyntheticConfig, _latent_geometry, generate_synthetic

from conftest import toy_embedding_set, unit_rows


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_single_cluster_is_mean(rng):
    points = rng.standard_normal((20, 3))
    result = kmeans(points, 1, make_rng(0))
    np.testing.assert_allclose(result.centroids[0], points.mean(axis=0), atol=1e-12)


def test_kmeans_m_equals_n(rng):
    points = rng.standard_normal((6, 2))
    result = kmeans(points, 6, make_rng(0))
    assert result.objective == pytest.approx(0.0, abs=1e-18)
    assert sorted(map(tuple, result.centroids)) == sorted(map(tuple, points))


def test_kmeans_two_blobs():
    rng = make_rng(3)
    blob_a = np.array([5.0, 0.0]) + 0.1 * rng.standard_normal((40, 2))
    blob_b = np.array([-5.0, 0.0]) + 0.1 * rng.standard_normal((40, 2))
    result = kmeans(np.concatenate([blob_a, blob_b]), 2, make_rng(1))
    got = sorted(map(tuple, result.centroids))
    assert np.linalg.norm(np.array(got[0]) - [-5.0, 0.0]) < 0.1
    assert np.linalg.norm(np.array(got[1]) - [5.0, 0.0]) < 0.1


def test_kmeans_final_pass_reuses_converged_distances(monkeypatch):
    # k-means++ makes m distance passes and Lloyd one per iteration; the
    # final assignment adds one more only when the centroids still moved
    rng = make_rng(3)
    points = np.concatenate([np.array([5.0, 0.0]) + 0.1 * rng.standard_normal((40, 2)),
                             np.array([-5.0, 0.0]) + 0.1 * rng.standard_normal((40, 2))])
    calls = []

    def counting(x, sq_norms, centroids):
        calls.append(centroids.shape)
        return _sq_dists_to(x, sq_norms, centroids)

    monkeypatch.setattr(anchors_mod, "_sq_dists_to", counting)
    converged = kmeans(points, 2, make_rng(1))
    assert converged.iterations_run < 100
    assert len(calls) == 2 + converged.iterations_run
    # the fields a fresh final pass over the final centroids gives
    order = _lex_order(points)
    ordered = points[order]
    d2 = _sq_dists_to(ordered, np.einsum("ij,ij->i", ordered, ordered), converged.centroids)
    fresh = np.empty(len(points), dtype=np.int64)
    fresh[order] = np.argmin(d2, axis=1)
    np.testing.assert_array_equal(converged.assignments, fresh)
    objective = float(d2[np.arange(len(points)), np.argmin(d2, axis=1)].sum())
    assert converged.objective == objective == converged.objective_history[-1]
    assert converged.objective_history[-2] == objective

    calls.clear()
    kmeans(points, 2, make_rng(1), max_iter=1)  # stopped while moving
    assert len(calls) == 2 + 1 + 1


def sq_norms(x):
    return np.einsum("ij,ij->i", x, x)


def test_sq_dists_to_zero_on_coincident_rows_and_never_negative():
    rng = make_rng(17)
    for scale in (1e-3, 1.0, 1e3):
        points = scale * rng.standard_normal((300, 512))
        centroids = points[[0, 7, 7, 299]]  # a repeated centroid too
        d2 = _sq_dists_to(points, sq_norms(points), centroids)
        assert d2.shape == (300, 4)
        assert d2[0, 0] == d2[7, 1] == d2[7, 2] == d2[299, 3] == 0.0
        assert (d2 >= 0.0).all()
    # a cloud tighter than the rounding of its norms: every entry is clipped
    near = 1.0 + 1e-9 * rng.standard_normal((50, 64))
    assert (_sq_dists_to(near, sq_norms(near), near[:3]) == 0.0).all()


def test_sq_dists_to_argmin_agrees_with_pairwise_sq_dists():
    rng = make_rng(23)
    for trial in range(20):
        n, d, m = int(rng.integers(5, 600)), int(rng.integers(1, 600)), int(rng.integers(1, 6))
        points = rng.standard_normal((n, d))
        centroids = rng.standard_normal((m, d))
        ours = _sq_dists_to(points, sq_norms(points), centroids)
        reference = pairwise_sq_dists(points, centroids)
        np.testing.assert_array_equal(np.argmin(ours, axis=1), np.argmin(reference, axis=1))
        np.testing.assert_allclose(ours, reference, rtol=1e-12, atol=0.0)


def reference_kmeans(points, m, rng, max_iter=100, tol=1e-8):
    """The centroids of the earlier Lloyd loop: every distance pass through
    ``pairwise_sq_dists``, every mean through ``ndarray.mean``."""
    points = points[_lex_order(points)]
    n = len(points)
    centroids = np.empty((m, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = pairwise_sq_dists(points, centroids[:1]).ravel()
    for j in range(1, m):
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, pairwise_sq_dists(points, centroids[j:j + 1]).ravel())
    for _ in range(max_iter):
        assignments = np.argmin(pairwise_sq_dists(points, centroids), axis=1)
        new_centroids = centroids.copy()
        claimed = []
        for j in range(m):
            members = assignments == j
            if members.any():
                new_centroids[j] = points[members].mean(axis=0)
            else:
                dist = pairwise_sq_dists(points, centroids[j:j + 1]).ravel()
                dist[claimed] = -np.inf
                far = int(np.argmax(dist))
                claimed.append(far)
                new_centroids[j] = points[far]
        movement = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if movement < tol:
            break
    return centroids


@pytest.mark.parametrize("n", [250, 513, 1100])
def test_kmeans_centroids_match_the_pairwise_reference(n):
    # clustered unit rows at the anchor build's shape, as in the benchmark
    rng = make_rng(n)
    means = l2_normalize(rng.standard_normal((4, 512)))
    points = l2_normalize(means[rng.integers(0, 4, n)] + 0.06 * rng.standard_normal((n, 512)))
    for seed in range(3):
        np.testing.assert_array_equal(kmeans(points, 4, make_rng(seed)).centroids,
                                      reference_kmeans(points, 4, make_rng(seed)))


def test_kmeans_objective_monotone(rng):
    for trial in range(30):
        points = rng.standard_normal((rng.integers(8, 40), rng.integers(2, 5)))
        m = int(rng.integers(1, 5))
        result = kmeans(points, m, make_rng(trial), max_iter=50)
        history = np.array(result.objective_history)
        assert np.all(np.diff(history) <= 1e-9)
        assert result.objective >= 0.0
        assert set(result.assignments) <= set(range(m))


def test_kmeans_order_invariant(rng):
    points = rng.standard_normal((30, 4))
    shuffled = points[rng.permutation(30)]
    a = kmeans(points, 3, make_rng(9))
    b = kmeans(shuffled, 3, make_rng(9))
    np.testing.assert_array_equal(a.centroids, b.centroids)


def tie_heavy_points(rng, n=40, d=9):
    """Small-integer-valued points with duplicate rows and long shared prefixes."""
    rows = rng.integers(-1, 2, size=(n // 2, d)).astype(np.float64)
    points = rows[rng.integers(0, len(rows), size=n)]
    points[: n // 4, :6] = points[0, :6]  # a prefix shared over more than 4 columns
    return points


def lex_order_cases():
    rng = make_rng(11)
    yield "ties", tie_heavy_points(rng)
    for shared in (2, 3, 5, 8):  # prefixes shared over more than 1, 2 and 4 columns
        points = rng.integers(0, 3, size=(30, 8)).astype(np.float64)
        points[::2, :shared] = 1.0
        yield f"shared{shared}", points
    yield "signed-zeros", rng.choice([-0.0, 0.0, 1.0], size=(30, 5))
    yield "all-equal", np.zeros((12, 6))
    yield "n=1", np.array([[3.0, -1.0, 2.0]])
    yield "d=1", rng.integers(0, 4, size=(25, 1)).astype(np.float64)
    yield "d=3", rng.integers(0, 2, size=(25, 3)).astype(np.float64)  # a doubling past d
    yield "normals", rng.standard_normal((50, 16))


@pytest.mark.parametrize("points", [pytest.param(points, id=name)
                                    for name, points in lex_order_cases()])
def test_lex_order_is_full_lexsort(points):
    np.testing.assert_array_equal(_lex_order(points), np.lexsort(points.T[::-1]))


def test_kmeans_order_invariant_with_ties(rng):
    points = tie_heavy_points(rng)
    for trial in range(5):
        shuffled = points[rng.permutation(len(points))]
        a = kmeans(points, 3, make_rng(trial))
        b = kmeans(shuffled, 3, make_rng(trial))
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.objective == b.objective


@pytest.mark.parametrize("m,value", [(1, np.nan), (2, np.inf), (2, np.nan)])
def test_kmeans_rejects_nonfinite_points(rng, m, value):
    points = rng.standard_normal((20, 3))
    points[7, 1] = value
    with pytest.raises(ClusterError, match="finite"):
        kmeans(points, m, make_rng(0))


def test_kmeans_errors(rng):
    with pytest.raises(ClusterError):
        kmeans(rng.standard_normal((2, 2)), 3, make_rng(0))
    with pytest.raises(ClusterError):
        kmeans(rng.standard_normal((2, 2)), 0, make_rng(0))
    with pytest.raises(ClusterError, match="at least one column"):
        kmeans(np.zeros((3, 0)), 1, make_rng(0))


def test_kmeans_duplicate_points_ok():
    points = np.zeros((10, 2))
    result = kmeans(points, 2, make_rng(0))
    assert result.objective == 0.0


# ---------------------------------------------------------------------------
# Static anchors


def synthetic_cfg(**overrides):
    base = dict(num_classes=4, dim=8, samples_per_class_per_modality=16,
                cluster_spread=0.1, cross_modal_noise=0.1, seed=21)
    base.update(overrides)
    return SyntheticConfig(**base)


def synthetic_set(**overrides):
    return generate_synthetic(synthetic_cfg(**overrides))[0]


def synthetic_latents(**overrides):
    """The generator's means and offsets of ``synthetic_set(**overrides)``."""
    cfg = synthetic_cfg(**overrides)
    return _latent_geometry(cfg, make_rng(cfg.seed))


def test_image_anchor_single_record_is_that_vector():
    emb = toy_embedding_set(np.eye(3), [0, 1, 2], [0, 0, 0])
    anchors = build_static_image_anchors(emb, make_rng(0))
    np.testing.assert_allclose(anchors.vectors, np.eye(3), atol=1e-12)
    assert anchors.modality is Modality.IMAGE


def test_image_anchor_is_normalized_class_mean(rng):
    vectors = unit_rows(rng, 6, 4)
    emb = toy_embedding_set(vectors, [0, 0, 0, 1, 1, 1], [0] * 6)
    anchors = build_static_image_anchors(emb, make_rng(0))
    np.testing.assert_allclose(anchors.vectors[0], l2_normalize(emb.vectors[:3].mean(axis=0)), atol=1e-12)
    np.testing.assert_allclose(anchors.vectors[1], l2_normalize(emb.vectors[3:].mean(axis=0)), atol=1e-12)


def test_image_anchors_near_generator_latents():
    emb = synthetic_set()
    anchors = build_static_image_anchors(emb, make_rng(5))
    means = synthetic_latents()["class_means"]
    for c in range(emb.num_classes):
        assert np.linalg.norm(anchors.vectors[c] - means[c]) < 0.15


def test_image_anchor_missing_class():
    emb = toy_embedding_set(np.eye(3), [0, 1, 2], [0, 0, 1])  # class 2 text-only
    with pytest.raises(ClusterError, match="^class class_002 has no image records$"):
        build_static_image_anchors(emb, make_rng(0))


def test_image_anchors_record_order_invariant(rng):
    emb = synthetic_set()
    perm = rng.permutation(len(emb))
    shuffled = emb.subset(perm)
    a = build_static_image_anchors(emb, make_rng(4))
    b = build_static_image_anchors(shuffled, make_rng(4))
    np.testing.assert_array_equal(a.vectors, b.vectors)


def test_image_anchors_multi_centroid_picks_near_mean():
    emb = synthetic_set(samples_per_class_per_modality=24)
    single = build_static_image_anchors(emb, make_rng(2), centroids_per_class=1)
    multi = build_static_image_anchors(emb, make_rng(2), centroids_per_class=3)
    # still one anchor per class, unit-normalized, close to the single-centroid one
    assert multi.vectors.shape == single.vectors.shape
    multi.validate()
    assert np.all(np.linalg.norm(multi.vectors - single.vectors, axis=1) < 0.5)


def test_text_anchor_single_record():
    emb = toy_embedding_set(np.eye(2), [0, 1], [1, 1])
    anchors = build_static_text_anchors(emb)
    np.testing.assert_allclose(anchors.vectors, np.eye(2), atol=1e-12)
    assert anchors.modality is Modality.TEXT


def test_text_anchor_duplicate_record_idempotent():
    v = l2_normalize(np.array([1.0, 2.0, 3.0]))
    emb = toy_embedding_set([v, v, np.array([0, 0, 1.0])], [0, 0, 1], [1, 1, 1])
    anchors = build_static_text_anchors(emb)
    np.testing.assert_array_equal(anchors.vectors[0], v)


def test_text_anchors_near_generator_text_means():
    emb = synthetic_set(num_classes=3)
    anchors = build_static_text_anchors(emb)
    latents = synthetic_latents(num_classes=3)
    expected = l2_normalize(latents["text_means"] + latents["text_offset"])
    for c in range(3):
        assert np.linalg.norm(anchors.vectors[c] - expected[c]) < 0.15


def test_text_anchor_missing_class():
    emb = toy_embedding_set(np.eye(2), [0, 1], [1, 0])
    with pytest.raises(AnchorError, match="^class class_001 has no text records$"):
        build_static_text_anchors(emb)


def test_anchors_unit_norm():
    emb = synthetic_set()
    for anchors in (build_static_text_anchors(emb),
                    build_static_image_anchors(emb, make_rng(0))):
        np.testing.assert_allclose(np.linalg.norm(anchors.vectors, axis=1), 1.0, atol=1e-6)
        anchors.validate()


def test_validate_rejects_nan_anchor():
    anchors = AnchorSet(np.eye(4)[:2].copy(), Modality.TEXT, class_names=["a", "b"])
    anchors.validate()
    anchors.vectors[1] = [np.nan, 0.0, 0.0, 0.0]
    with pytest.raises(AnchorError, match="unit-normalized"):
        anchors.validate()


def test_encoder_is_applied():
    emb = toy_embedding_set(np.eye(2), [0, 1], [1, 1])
    flip = lambda feats: feats[:, ::-1]
    anchors = build_static_text_anchors(emb, flip)
    np.testing.assert_allclose(anchors.vectors, np.eye(2)[:, ::-1], atol=1e-12)


# ---------------------------------------------------------------------------
# Stochastic anchors


def test_stochastic_draws_differ_across_seeds():
    emb = synthetic_set()
    imgs = emb.vectors[emb.modality_mask(Modality.IMAGE)]
    pick_a = make_rng(1).choice(len(imgs), size=4, replace=False)
    pick_b = make_rng(2).choice(len(imgs), size=4, replace=False)
    assert not np.array_equal(np.sort(pick_a), np.sort(pick_b))


# ---------------------------------------------------------------------------
# Serialization


def test_anchor_roundtrip(tmp_path):
    emb = synthetic_set()
    text = build_static_text_anchors(emb)
    image = build_static_image_anchors(emb, make_rng(0))
    path = tmp_path / "anchors.cemb"
    write_anchors(path, text, image)
    text_back, image_back = read_anchors(path)
    assert text_back.class_names == emb.class_names
    np.testing.assert_allclose(text_back.vectors, text.vectors, atol=1e-6)
    np.testing.assert_allclose(image_back.vectors, image.vectors, atol=1e-6)


def test_anchor_file_requires_prefix(tmp_path):
    from craft.dataio import write_embeddings
    emb = synthetic_set()
    path = tmp_path / "plain.cemb"
    write_embeddings(emb, path)
    with pytest.raises(AnchorError, match="prefix"):
        read_anchors(path)


@pytest.mark.parametrize("encoded", [False, True])
def test_text_anchors_refuse_a_class_whose_texts_cancel_by_name(rng, encoded):
    # class 1's text records are v and -v: their mean is exactly zero, frozen
    # and through a zero adapter, which maps -v to exactly minus v's feature
    v = unit_rows(rng, 1, 4)[0]
    emb = toy_embedding_set(np.stack([v, v, -v, unit_rows(rng, 1, 4)[0]]), [1, 1, 1, 0],
                            [0, 1, 1, 1])
    encoder = Adapter.zeros(4).encode_text if encoded else None
    with pytest.raises(AnchorError, match="^the text records of class class_001 average to "
                                          "a zero vector$"):
        build_static_text_anchors(emb, encoder)
