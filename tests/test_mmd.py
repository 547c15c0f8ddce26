import math
import tracemalloc

import numpy as np
import pytest

import craft.core as core_mod
import craft.mmd as mmd_mod
from craft.core import TILE, ConfigError, ShapeError, make_rng, pairwise_sq_dists
from craft.dataio import SyntheticConfig, generate_synthetic
from craft.mmd import (KernelSpec, anchor_align, median_heuristic, mmd2_biased, mmd2_biased_grad,
                       mmd2_both, mmd2_unbiased, permutation_test)

from conftest import blas_shaped_pairs, orthonormal_anchors, random_anchors, unit_rows


# ---------------------------------------------------------------------------
# kernel and bandwidth


def kernel_value(x, y, bandwidth):
    """The kernel value of one pair."""
    return KernelSpec(bandwidth).of_sq_dists(pairwise_sq_dists(x[None], y[None]))[0, 0]


def test_rbf_examples():
    x = np.array([0.0, 0.0])
    assert kernel_value(x, x, 1.0) == 1.0
    assert kernel_value(x, np.array([1.0, 0.0]), 1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert kernel_value(x, np.array([1.0, 0.0]), 1.0) == pytest.approx(0.60653, abs=5e-6)
    k = KernelSpec(2.0).of_sq_dists(pairwise_sq_dists(np.array([[0.0], [1.0]]),
                                                      np.array([[0.0], [2.0], [3.0]])))
    np.testing.assert_allclose(k, np.exp(-np.array([[0, 4, 9], [1, 1, 4]]) / 8.0), rtol=1e-15)


def test_rbf_monotone_in_bandwidth():
    x, y = np.array([0.0]), np.array([2.0])
    values = [kernel_value(x, y, s) for s in (0.5, 1.0, 10.0, 1e3)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] > 0.999998


def test_rbf_bad_bandwidth():
    with pytest.raises(ConfigError):
        KernelSpec(0.0)
    with pytest.raises(ConfigError):
        KernelSpec(-1.0)


def test_median_heuristic_two_points():
    sigma = median_heuristic(np.array([[0.0], [2.0]]))
    assert sigma == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_median_heuristic_identical_points_fallback():
    assert median_heuristic(np.zeros((5, 3))) == 1.0


def test_median_heuristic_matches_bruteforce(rng):
    for _ in range(10):
        samples = rng.standard_normal((int(rng.integers(2, 12)), 4))
        d2 = [np.sum((samples[i] - samples[j]) ** 2)
              for i in range(len(samples)) for j in range(i + 1, len(samples))]
        assert median_heuristic(samples) == pytest.approx(math.sqrt(np.median(d2) / 2.0), rel=1e-12)


def test_median_heuristic_is_upper_triangle_median():
    # odd (n = 2, 3, 6, 7, 699) and even (n = 4, 5, 8, 300, 512, 700) pair
    # counts; 300 and 512 are two tiles, 699 and 700 three
    rng = make_rng(21)
    for n in (2, 3, 4, 5, 6, 7, 8, 300, 512, 699, 700):
        samples = float(rng.uniform(0.1, 30.0)) * rng.standard_normal((n, int(rng.integers(1, 301))))
        d2 = pairwise_sq_dists(samples, samples)
        assert median_heuristic(samples) == math.sqrt(np.median(d2[np.triu_indices(n, k=1)]) / 2.0)


def test_median_heuristic_tiled_rows_fallback():
    rng = make_rng(22)
    for x, _ in blas_shaped_pairs(23, 12):
        assert median_heuristic(np.tile(x[0], (int(rng.integers(2, 50)), 1))) == 1.0


def test_median_heuristic_beyond_one_tile_with_ties():
    # many equal distances put most pairs into the middle buckets
    rng = make_rng(26)
    points = rng.standard_normal((3, 5))
    for n in (513, 700):
        samples = points[rng.integers(0, 3, size=n)]
        d2 = pairwise_sq_dists(samples, samples)
        assert median_heuristic(samples) == math.sqrt(np.median(d2[np.triu_indices(n, k=1)]) / 2.0)
    assert median_heuristic(np.tile(points[0], (600, 1))) == 1.0
    # the two middle pairs in different buckets: 1 point at 0, 252 at 1 and
    # 276 near 3 give 69,828 of 139,656 pairs below 1.5 and the rest above 4
    samples = np.concatenate([[0.0], np.ones(252), 3.0 + rng.uniform(0.0, 0.01, 276)])[:, None]
    d2 = pairwise_sq_dists(samples, samples)
    pairs = d2[np.triu_indices(len(samples), k=1)]
    assert np.sum(pairs < 1.5) == len(pairs) // 2
    assert median_heuristic(samples) == math.sqrt(np.median(pairs) / 2.0)


def test_bandwidth_selects_as_a_partition_at_both_ranks(rng):
    # one selection and the least value past it give what a partition at
    # both middle ranks gives, bitwise, with ties, with an odd or even
    # count and with NaN, which both rank last
    for size in (1, 2, 3, 10, 11, 400, 401):
        for values in (rng.uniform(0.0, 5.0, size), rng.integers(0, 3, size).astype(float)):
            for nans in (0, 1, size // 2):
                pairs = values.copy()
                pairs[rng.permutation(size)[:nans]] = np.nan
                ranks = mmd_mod._middle_ranks(size)
                reference = pairs.copy()
                reference.partition(ranks)
                med = 0.5 * (reference[ranks[0]] + reference[ranks[1]])
                expected = 1.0 if med == 0.0 else math.sqrt(med / 2.0)
                got = mmd_mod._bandwidth(pairs, ranks)
                assert got == expected or (math.isnan(got) and math.isnan(expected))


def test_median_heuristic_needs_two(rng):
    with pytest.raises(ConfigError):
        median_heuristic(rng.standard_normal((1, 3)))


# ---------------------------------------------------------------------------
# estimators


def test_mmd2_biased_self_is_exactly_zero(rng):
    for _ in range(20):
        x = rng.standard_normal((int(rng.integers(1, 20)), int(rng.integers(1, 6))))
        assert mmd2_biased(x, x, KernelSpec(1.0)) == 0.0


def test_mmd2_biased_single_point_closed_form():
    x = np.zeros((1, 4))
    y = np.zeros((1, 4))
    y[0, 0] = 1.0
    value = mmd2_biased(x, y, KernelSpec(1.0))
    assert value == pytest.approx(2.0 - 2.0 * math.exp(-0.5), abs=1e-12)
    assert value == pytest.approx(0.78694, abs=5e-6)


def test_mmd2_biased_symmetry_exact(rng):
    for _ in range(10):
        x = rng.standard_normal((int(rng.integers(1, 12)), 3))
        y = rng.standard_normal((int(rng.integers(1, 12)), 3))
        kernel = KernelSpec(float(rng.uniform(0.3, 3.0)))
        assert mmd2_biased(x, y, kernel) == mmd2_biased(y, x, kernel)


def test_mmd2_exact_at_blas_shapes():
    for x, y in blas_shaped_pairs(24, 10):
        kernel = KernelSpec(median_heuristic(np.concatenate([x, y])))
        assert mmd2_biased(x, x, kernel) == 0.0
        assert mmd2_biased(x, x.copy(), kernel) == 0.0
        assert mmd2_biased(x, y, kernel) == mmd2_biased(y, x, kernel)
        if min(len(x), len(y)) >= 2:
            assert mmd2_unbiased(x, y, kernel) == mmd2_unbiased(y, x, kernel)


def test_kernel_layer_memory_bounded_at_clip_eval_shape():
    # the OOD diagnostic at clip scale: 2400 anchor-aligned rows with K=100,
    # 400 source vs 2000 target; the peak stays within three 2400^2 float64
    # matrices (an (m, n, d) difference tensor would need 4.6 GB)
    rng = make_rng(25)
    rows = rng.standard_normal((2400, 100))
    bound = 3 * 2400 * 2400 * 8
    tracemalloc.start()
    try:
        kernel = KernelSpec(median_heuristic(rows))
        _, peak = tracemalloc.get_traced_memory()
        assert peak < bound
        tracemalloc.reset_peak()
        mmd2_biased(rows[:400], rows[400:], kernel)
        _, peak = tracemalloc.get_traced_memory()
        assert peak < bound
    finally:
        tracemalloc.stop()


def test_kernel_layer_memory_is_a_few_tiles():
    # the bandwidth, the estimators and the permutation test hold four
    # (TILE, TILE) tiles at a time, not the (m, n) or pooled (N, N) matrices,
    # and no copy of their samples; beside the tiles, the bandwidth holds
    # three bucket-count arrays (the running count, one tile's count and
    # their sum), and the permutation test its pooled samples and one block
    # of weight rows with their product
    rows = make_rng(27).standard_normal((2400, 100))
    kernel = KernelSpec(10.0)
    tiles = 4 * TILE * TILE * 8
    counts = 3 * (1 << 17) * 8
    weights = 2 * (1 + 100) * len(rows) * 8
    for estimate, beside in (
            (lambda: median_heuristic(rows), counts),
            (lambda: mmd2_biased(rows[:400], rows[400:], kernel), 0),
            (lambda: mmd2_unbiased(rows[:400], rows[400:], kernel), 0),
            (lambda: permutation_test(rows[:400], rows[400:], kernel, 100, make_rng(0)),
             rows.nbytes + weights)):
        tracemalloc.start()
        try:
            estimate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < tiles + beside


def test_mmd2_biased_nonnegative(rng):
    for _ in range(50):
        x = rng.standard_normal((int(rng.integers(1, 15)), 4))
        y = rng.standard_normal((int(rng.integers(1, 15)), 4))
        assert mmd2_biased(x, y, KernelSpec(1.0)) >= -1e-12


def test_mmd2_rigid_motion_invariant(rng):
    x = rng.standard_normal((12, 5))
    y = rng.standard_normal((9, 5))
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    shift = rng.standard_normal(5)
    kernel = KernelSpec(1.3)
    moved = mmd2_biased(x @ q.T + shift, y @ q.T + shift, kernel)
    assert moved == pytest.approx(mmd2_biased(x, y, kernel), abs=1e-9)


def test_mmd2_vanishes_as_bandwidth_grows(rng):
    x = rng.standard_normal((10, 3))
    y = rng.standard_normal((10, 3)) + 2.0
    values = [mmd2_biased(x, y, KernelSpec(s)) for s in (1.0, 10.0, 100.0, 1000.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-4


def test_mmd2_empty_rejected(rng):
    with pytest.raises(ShapeError):
        mmd2_biased(np.zeros((0, 3)), rng.standard_normal((4, 3)), KernelSpec(1.0))


@pytest.mark.parametrize("m, n", [(2, 3), (40, 25), (2 * TILE + 7, 30)])
def test_mmd2_both_reads_both_estimators_from_one_walk(monkeypatch, m, n):
    rng = make_rng(m)
    x, y = rng.standard_normal((m, 4)), 0.5 + rng.standard_normal((n, 4))
    kernel = KernelSpec(1.3)
    expected = (mmd2_biased(x, y, kernel), mmd2_unbiased(x, y, kernel))
    blocks = []
    block = mmd_mod._kernel_block

    def counting(*args, **kwargs):
        blocks.append(args)
        return block(*args, **kwargs)

    monkeypatch.setattr(mmd_mod, "_kernel_block", counting)
    assert [v.hex() for v in mmd2_both(x, y, kernel)] == [v.hex() for v in expected]
    assert len(blocks) == 3


@pytest.mark.parametrize("n", [TILE - 1, TILE, TILE + 1, 2 * TILE + 70, 3 * TILE + 5])
def test_self_block_upper_walk_is_the_full_grid_bitwise(monkeypatch, n):
    # K(x, x) over its upper tiles equals the full grid of K(x, x.copy()),
    # bitwise: the sum, and the matrix the gradient holds with the sum it
    # takes of it
    tiles = []
    gram_tile = core_mod._gram_tile
    monkeypatch.setattr(core_mod, "_gram_tile", lambda *args: tiles.append(args) or gram_tile(*args))
    blocks = -(-n // TILE)
    for d, bandwidth in ((7, 2.5), (16, 10.0), (3, 2.5)):
        x = make_rng(n).standard_normal((n, d))
        kernel = KernelSpec(bandwidth)
        full = x.copy()
        tiles.clear()
        total = mmd_mod._kernel_block(x, x, kernel)
        assert len(tiles) == blocks * (blocks + 1) // 2
        expected_total = mmd_mod._kernel_block(x, full, kernel)
        assert total.hex() == expected_total.hex()
        held = kernel.of_sq_dists(pairwise_sq_dists(x, x))
        expected = kernel.of_sq_dists(pairwise_sq_dists(x, full))
        np.testing.assert_array_equal(held, expected)
        assert mmd_mod._held_block(held, True).hex() == total.hex()
        assert mmd_mod._held_block(expected, False).hex() == total.hex()
        assert mmd2_biased(x, x, kernel) == 0.0


def test_mmd2_unbiased_identical_two_points():
    x = np.ones((2, 3))
    assert mmd2_unbiased(x, x.copy(), KernelSpec(1.0)) == 0.0


def test_mmd2_unbiased_far_clusters():
    rng = make_rng(8)
    x = 0.01 * rng.standard_normal((30, 2))
    y = np.array([10.0, 0.0]) + 0.01 * rng.standard_normal((30, 2))
    assert mmd2_unbiased(x, y, KernelSpec(1.0)) == pytest.approx(2.0, abs=1e-2)


def test_mmd2_unbiased_needs_two(rng):
    with pytest.raises(ShapeError):
        mmd2_unbiased(rng.standard_normal((1, 3)), rng.standard_normal((5, 3)), KernelSpec(1.0))


def test_mmd2_unbiased_zero_mean_under_null():
    values = []
    for seed in range(200):
        rng = make_rng(seed, 17)
        x, y = rng.standard_normal((25, 3)), rng.standard_normal((25, 3))
        values.append(mmd2_unbiased(x, y, KernelSpec(1.0)))
    mean = np.mean(values)
    se = np.std(values, ddof=1) / math.sqrt(len(values))
    assert abs(mean) <= 3 * se


def pooled_oracle(z, m, kernel):
    """The value of the pooled tile: ``_biased`` over the three sub-blocks of
    the kernel of ``pairwise_sq_dists(z, z)``, each summed over its TILE
    grid."""
    k = kernel.of_sq_dists(pairwise_sq_dists(z, z))
    return mmd_mod._biased(m, len(z) - m, mmd_mod._held_block(k[:m, :m], True),
                           mmd_mod._held_block(k[m:, m:], True),
                           mmd_mod._held_block(k[:m, m:], False))


def test_grad_value_matches_plain_estimator(rng):
    x, y = rng.standard_normal((6, 4)), rng.standard_normal((8, 4))
    kernel = KernelSpec(1.1)
    value, g = mmd2_biased_grad(np.concatenate([x, y]), 6, kernel)
    assert value.hex() == pooled_oracle(np.concatenate([x, y]), 6, kernel).hex()
    assert value == pytest.approx(mmd2_biased(x, y, kernel), rel=1e-14)
    assert g.shape == (14, 4)
    # beyond one tile: the value is summed from the same tiles, and the
    # gradient matches a dense oracle and a directional central difference
    x, y = rng.standard_normal((TILE + 90, 4)), rng.standard_normal((TILE + 30, 4))
    m, z = len(x), np.concatenate([x, y])
    value, g = mmd2_biased_grad(z, m, kernel)
    assert value.hex() == pooled_oracle(z, m, kernel).hex()
    assert value == pytest.approx(mmd2_biased(x, y, kernel), rel=1e-14)
    w = np.where(np.arange(len(z)) < m, 1.0 / m, -1.0 / len(y))
    k = kernel.of_sq_dists(pairwise_sq_dists(z, z))
    dense = 2.0 * np.einsum("a,b,ab,abd->ad", w, w, k, z[None, :, :] - z[:, None, :]) / 1.1 ** 2
    np.testing.assert_allclose(g, dense, rtol=1e-10, atol=1e-15)
    v, eps = rng.standard_normal(z.shape), 1e-5
    fd = (mmd2_biased(x + eps * v[:m], y + eps * v[m:], kernel)
          - mmd2_biased(x - eps * v[:m], y - eps * v[m:], kernel)) / (2 * eps)
    assert fd == pytest.approx(np.sum(g * v), rel=1e-6)


def assert_grads_equal(got, expected):
    assert got[0].hex() == expected[0].hex()
    np.testing.assert_array_equal(got[1], expected[1])


@pytest.mark.parametrize("m, n, d, rows",
                         [(8, 8, 16, "aligned"), (128, 128, 100, "aligned"),
                          (64, 64, 100, "aligned"), (4, 52, 51, "last-bit"),
                          (200, 150, 12, "normal"), (400, 300, 20, "normal")],
                         ids=["desk", "clip", "clip-last", "last-bit", "beyond-one-tile",
                              "bucket-path"])
def test_grad_without_kernel_takes_the_pooled_median_heuristic(monkeypatch, m, n, d, rows):
    # sigma is median_heuristic of the pooled rows, bitwise: at the shapes
    # training meets (desk batches of 8 at K=16, clip batches of 128 and the
    # last of 64 at K=100, as anchor-aligned rows), at the seeded 4 + 52
    # rows of dim 51 where sigma from three separate blocks was one ulp off
    # the pooled one, beyond a tile, and at 700 pooled rows, three tiles
    bandwidths = []
    bandwidth = mmd_mod._bandwidth
    monkeypatch.setattr(mmd_mod, "_bandwidth",
                        lambda *args: bandwidths.append(bandwidth(*args)) or bandwidths[-1])
    rng = make_rng(m, n)
    anchors = random_anchors(rng, d, 24)
    if rows == "last-bit":
        rng = make_rng(0, 99)
        assert tuple(int(v) for v in rng.integers(1, 200, size=2)) == (m, n)
        assert int(rng.integers(2, 101)) == d
    for _ in range(3 if rows == "aligned" else 1):
        if rows == "aligned":
            x = anchor_align(unit_rows(rng, m, 24), anchors, 15.0)
            y = anchor_align(unit_rows(rng, n, 24) + 0.3, anchors, 15.0)
        else:
            x, y = rng.standard_normal((m, d)), rng.standard_normal((n, d)) + 0.1
        z = np.concatenate([x, y])
        sigma = median_heuristic(z)
        bandwidths.clear()
        got = mmd2_biased_grad(z, m)
        assert bandwidths == [sigma]
        assert_grads_equal(got, mmd2_biased_grad(z, m, KernelSpec(sigma)))
        assert got[0].hex() == pooled_oracle(z, m, KernelSpec(sigma)).hex()
        assert got[0] == pytest.approx(mmd2_biased(x, y, KernelSpec(sigma)), rel=1e-14)


def test_grad_without_kernel_falls_back_on_coincident_rows():
    z = np.ones((10, 3))
    assert_grads_equal(mmd2_biased_grad(z, 5), mmd2_biased_grad(z, 5, KernelSpec(1.0)))


# ---------------------------------------------------------------------------
# anchor alignment


def test_anchor_align_basis_case():
    anchors = orthonormal_anchors(3, 3)
    aligned = anchor_align(anchors.vectors[1], anchors)
    np.testing.assert_allclose(aligned, [[0.0, 1.0, 0.0]], atol=1e-12)


def test_anchor_align_matches_double_loop(rng):
    feats = unit_rows(rng, 6, 5)
    anchors = random_anchors(rng, 4, 5)
    aligned = anchor_align(feats, anchors, temperature=2.0)
    for i in range(6):
        for k in range(4):
            assert aligned[i, k] == pytest.approx(2.0 * feats[i] @ anchors.vectors[k], rel=1e-12)


def test_anchor_align_lipschitz_rows(rng):
    feats = unit_rows(rng, 10, 6)
    anchors = random_anchors(rng, 1, 6)
    rows = anchor_align(feats, anchors).ravel()
    for i in range(10):
        for j in range(10):
            assert abs(rows[i] - rows[j]) <= np.linalg.norm(feats[i] - feats[j]) + 1e-12


def test_anchor_align_bounds(rng):
    feats = unit_rows(rng, 8, 4)
    rows = anchor_align(feats, random_anchors(rng, 5, 4), temperature=7.0)
    assert np.all(np.abs(rows) <= 7.0 + 1e-9)


def test_anchor_align_dim_mismatch(rng):
    with pytest.raises(ShapeError):
        anchor_align(unit_rows(rng, 3, 4), random_anchors(rng, 2, 5))


# ---------------------------------------------------------------------------
# MMD over anchor-aligned features, and the permutation test


def test_mmd_loss_identical_batches(rng):
    feats = unit_rows(rng, 10, 6)
    anchors = random_anchors(rng, 4, 6)
    assert mmd2_biased(anchor_align(feats, anchors), anchor_align(feats.copy(), anchors),
                       KernelSpec(1.0)) == 0.0


def _generated_aligned_rows(seed, shift):
    from craft.anchors import build_static_text_anchors
    cfg = SyntheticConfig(num_classes=4, dim=8, samples_per_class_per_modality=24,
                          cluster_spread=0.1, cross_modal_noise=0.1,
                          domain_shift_magnitude=shift, seed=seed)
    source, target = generate_synthetic(cfg)
    anchors = build_static_text_anchors(source)
    return (anchor_align(source.image_vectors(), anchors),
            anchor_align(target.image_vectors(), anchors))


def test_mmd_loss_orders_shift_magnitudes():
    kernel = KernelSpec(1.0)
    wins = 0
    for seed in range(100):
        values = []
        for shift in (0.0, 1.0):
            src, tgt = _generated_aligned_rows(seed, shift)
            values.append(mmd2_biased(src, tgt, kernel))
        wins += values[1] > values[0]
    assert wins >= 99


def test_mmd_loss_zero_shift_indistinguishable():
    # shift 0 makes source/target image batches iid: the two-sample test
    # should accept in at least 90 of 100 seeds
    accepts = 0
    for seed in range(100):
        src, tgt = _generated_aligned_rows(seed, 0.0)
        kernel = KernelSpec(median_heuristic(np.concatenate([src, tgt])))
        accepts += permutation_test(src, tgt, kernel, 100, make_rng(seed, 51)) > 0.05
    assert accepts >= 90


def test_permutation_test_smoothing_arithmetic(rng):
    # all permuted statistics below the observed one -> p = 1/101
    x = 0.01 * rng.standard_normal((30, 2))
    y = np.array([50.0, 0.0]) + 0.01 * rng.standard_normal((30, 2))
    p = permutation_test(x, y, KernelSpec(1.0), 100, make_rng(0))
    assert p == pytest.approx(1.0 / 101.0, abs=1e-15)


def test_permutation_test_null_accepts(rng):
    accepts = 0
    for seed in range(40):
        r = make_rng(seed, 5)
        x, y = r.standard_normal((20, 3)), r.standard_normal((20, 3))
        p = permutation_test(x, y, KernelSpec(median_heuristic(np.concatenate([x, y]))),
                             100, make_rng(seed, 6))
        accepts += p > 0.05
    assert accepts >= 36


def test_permutation_test_separated_rejects():
    for seed in range(10):
        r = make_rng(seed, 7)
        x = r.standard_normal((50, 3))
        y = r.standard_normal((50, 3)) + np.array([10.0, 0.0, 0.0])
        p = permutation_test(x, y, KernelSpec(median_heuristic(np.concatenate([x, y]))),
                             150, make_rng(seed, 8))
        assert p <= 0.01


def _one_at_a_time_permutation_test(x, y, kernel, n_perms, rng):
    """Reference: the quadratic form w K w of one split at a time, with
    w = +1/m on the x side and -1/n on the y side."""
    m, n = len(x), len(y)
    pooled = np.concatenate([x, y])
    k = kernel.of_sq_dists(pairwise_sq_dists(pooled, pooled))

    def statistic(split):
        w = np.empty(m + n)
        w[split[:m]] = 1.0 / m
        w[split[m:]] = -1.0 / n
        return float(np.sum((w @ k) * w))

    observed = statistic(np.arange(m + n))
    exceed = sum(statistic(rng.permutation(m + n)) >= observed for _ in range(n_perms))
    return (1 + exceed) / (1 + n_perms)


def test_permutation_test_matches_one_at_a_time_reference():
    # 600 permutations span three weight-row blocks; beyond one tile, the
    # off-diagonal tiles are read once and their transposes stand in for
    # the lower tiles
    for seed, (m, n, shift) in enumerate(((30, 45, 0.0), (40, 40, 0.3), (25, 60, 0.6),
                                          (300, 400, 0.15), (600, 700, 0.1))):
        r = make_rng(seed, 9)
        x, y = r.standard_normal((m, 3)), r.standard_normal((n, 3)) + shift
        kernel = KernelSpec(median_heuristic(np.concatenate([x, y])))
        p = permutation_test(x, y, kernel, 600, make_rng(seed, 10))
        assert p == _one_at_a_time_permutation_test(x, y, kernel, 600, make_rng(seed, 10))
        assert 1.0 / 601.0 < p < 1.0


def test_permutation_test_needs_enough_perms(rng):
    with pytest.raises(ConfigError):
        permutation_test(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)),
                         KernelSpec(1.0), 50, make_rng(0))
