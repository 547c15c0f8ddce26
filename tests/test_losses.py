import contextlib
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craft import losses
from craft.adapter import Adapter
from craft.anchors import AnchorSet
from craft.config import Mode, TrainConfig
from craft.core import AnchorError, ConfigError, LabelError, l2_normalize, make_rng, softmax_rows
from craft.dataio import Modality
from craft.losses import (LossBatch, LossReport, _anchor_ce, _contrastive, check_terms,
                          loss_and_gradient)
from craft.mmd import anchor_align, median_heuristic, mmd2_biased_grad

from conftest import orthonormal_anchors, random_anchors, unit_rows

LN_1P_EXP_NEG1 = math.log(1.0 + math.exp(-1.0))  # 0.31326...


def engine(adapter, batch, ta, ia, cfg):
    """``loss_and_gradient`` as ``train`` calls it, with a gradient buffer."""
    return loss_and_gradient(adapter, batch, ta, ia, cfg, Adapter.zeros(adapter.dim))


# ---------------------------------------------------------------------------
# class distribution: the softmax of the anchor logits, as the anchor
# cross-entropy takes it


def anchor_probs(query, anchors, temperature=1.0):
    """Class probabilities of one query against the anchors."""
    p, _ = softmax_rows(anchor_align(query, anchors, temperature))
    return p[0]


def test_class_distribution_single_anchor():
    probs = anchor_probs(np.array([1.0, 0.0]), orthonormal_anchors(1, 2))
    np.testing.assert_allclose(probs, [1.0])


def test_class_distribution_two_anchors():
    probs = anchor_probs(np.array([1.0, 0.0]), orthonormal_anchors(2, 2))
    # oracle: softmax of logits (1, 0)
    expected = np.exp([1.0, 0.0]) / np.exp([1.0, 0.0]).sum()
    np.testing.assert_allclose(probs, expected, atol=1e-12)
    np.testing.assert_allclose(probs, [0.73106, 0.26894], atol=5e-6)


def test_class_distribution_equidistant_uniform():
    query = l2_normalize(np.ones(4))
    anchors = orthonormal_anchors(4, 4)
    probs = anchor_probs(query, anchors, temperature=2.5)
    np.testing.assert_allclose(probs, np.full(4, 0.25), atol=1e-12)


def test_class_distribution_errors():
    empty = AnchorSet(np.zeros((0, 3)), Modality.TEXT, class_names=[])
    with pytest.raises(AnchorError):
        check_terms(3, np.zeros(2, dtype=np.int64), empty, None, TrainConfig(mode=Mode.BASELINE_CE))
    with pytest.raises(ConfigError):
        TrainConfig(temperature=0.0).validate()


def test_class_distribution_sums_to_one(rng):
    for _ in range(30):
        k, dim = int(rng.integers(1, 9)), 6
        probs = anchor_probs(unit_rows(rng, 1, dim)[0], random_anchors(rng, k, dim),
                             temperature=float(rng.uniform(0.1, 40)))
        assert abs(probs.sum() - 1.0) < 1e-6
        assert np.all(probs > 0)


# ---------------------------------------------------------------------------
# static loss: both halves of the anchor cross-entropy


def anchor_ce(feats, labels, anchors, temperature):
    """The anchor cross-entropy of features: ``_anchor_ce`` of their logits."""
    return _anchor_ce(anchor_align(feats, anchors, temperature), labels, anchors, temperature)[0]


def static_loss(img, txt, labels, text_anchors, image_anchors, temperature=1.0):
    return (anchor_ce(img, labels, text_anchors, temperature)
            + anchor_ce(txt, labels, image_anchors, temperature))


def test_static_loss_half_probabilities():
    # queries equidistant between the two anchors: p = 0.5 per side
    anchors = orthonormal_anchors(2, 4)
    query = l2_normalize(np.array([[1.0, 1.0, 0.0, 0.0]]))
    loss = static_loss(query, query, np.array([0]), anchors, anchors)
    assert loss == pytest.approx(2 * math.log(2), abs=1e-12)


def test_static_loss_single_class_zero():
    anchors = orthonormal_anchors(1, 3)
    batch = unit_rows(make_rng(0), 4, 3)
    loss = static_loss(batch, batch, np.zeros(4, dtype=int), anchors, anchors)
    assert loss == 0.0


def test_static_loss_matched_anchor_queries():
    anchors = orthonormal_anchors(2, 4)
    img = anchors.vectors[[0, 1]]
    txt = anchors.vectors[[0, 1]]
    loss = static_loss(img, txt, np.array([0, 1]), anchors, anchors)
    assert loss == pytest.approx(2 * LN_1P_EXP_NEG1, abs=1e-12)
    assert loss == pytest.approx(0.62652, abs=5e-6)


def test_static_loss_label_out_of_range():
    anchors = orthonormal_anchors(2, 3)
    for labels in ([0, 5], [-1, 0]):
        with pytest.raises(LabelError):
            check_terms(3, np.array(labels), anchors, anchors, TrainConfig())


def test_static_loss_nonnegative(rng):
    for _ in range(25):
        k = int(rng.integers(1, 6))
        img, txt = unit_rows(rng, 5, 6), unit_rows(rng, 5, 6)
        labels = rng.integers(0, k, 5)
        loss = static_loss(img, txt, labels, random_anchors(rng, k, 6),
                           random_anchors(rng, k, 6, Modality.IMAGE),
                           temperature=float(rng.uniform(0.5, 20)))
        assert loss >= 0.0


# ---------------------------------------------------------------------------
# stochastic loss: the in-batch contrastive term


def stochastic_loss(img, txt, temperature=1.0):
    return _contrastive(img, txt, temperature)[0]


def test_stochastic_loss_batch_of_one(rng):
    assert stochastic_loss(unit_rows(rng, 1, 4), unit_rows(rng, 1, 4)) == 0.0


def test_stochastic_loss_identity_similarity():
    # orthonormal rows paired with themselves: S = I at tau=1
    batch = np.eye(2)
    loss = stochastic_loss(batch, batch)
    assert loss == pytest.approx(LN_1P_EXP_NEG1, abs=1e-12)
    assert loss == pytest.approx(0.31326, abs=5e-6)


def test_stochastic_loss_all_equal_entries():
    # identical image rows make every similarity equal: uniform softmax over 2
    row = l2_normalize(np.array([1.0, 1.0]))
    batch = np.stack([row, row])
    loss = stochastic_loss(batch, batch)
    assert loss == pytest.approx(math.log(2), abs=1e-12)


@given(st.integers(2, 8), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_stochastic_loss_permutation_invariant(b, seed):
    rng = make_rng(seed)
    img, txt = unit_rows(rng, b, 5), unit_rows(rng, b, 5)
    perm = make_rng(seed + 1).permutation(b)
    base = stochastic_loss(img, txt, temperature=3.0)
    permuted = stochastic_loss(img[perm], txt[perm], temperature=3.0)
    assert permuted == pytest.approx(base, abs=1e-10)


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 12),
       st.floats(0.1, 100.0))
@settings(max_examples=60, deadline=None)
def test_batch_means_equal_their_mean_forms_bitwise(seed, b, k, tau):
    # the terms' -(sum / b) against the ndarray.mean of the negated values
    rng = make_rng(seed)
    anchors = random_anchors(rng, k, 5)
    logits = tau * rng.standard_normal((b, k))
    labels = rng.integers(0, k, b)
    rows = np.arange(b)
    _, log_p = softmax_rows(logits)
    value = _anchor_ce(logits, labels, anchors, tau)[0]
    assert value.hex() == float((-log_p[rows, labels]).mean()).hex()

    img, txt = unit_rows(rng, b, 5), unit_rows(rng, b, 5)
    sims = tau * img @ txt.T
    _, log_p_img = softmax_rows(sims)
    _, log_p_txt = softmax_rows(sims.T)
    mean_form = 0.5 * float((-log_p_img[rows, rows]).mean() + (-log_p_txt[rows, rows]).mean())
    assert _contrastive(img, txt, tau)[0].hex() == mean_form.hex()


# ---------------------------------------------------------------------------
# total and subsumption


def test_total_is_weighted_sum(rng):
    h, b = 5, 4
    batch = LossBatch(unit_rows(rng, b, h), unit_rows(rng, b, h), rng.integers(0, 3, b))
    ta, ia = random_anchors(rng, 3, h), random_anchors(rng, 3, h, Modality.IMAGE)
    adapter = Adapter.zeros(h)
    report, _ = engine(adapter, batch, ta, ia,
                       TrainConfig(temperature=2.0, w_static=0.7, w_stochastic=1.3))
    assert report.total == pytest.approx(0.7 * report.static_term + 1.3 * report.stochastic_term, abs=1e-12)
    static_only, _ = engine(adapter, batch, ta, ia, TrainConfig(temperature=2.0, w_stochastic=0.0))
    assert static_only.total == static_loss(batch.image, batch.text, batch.labels, ta, ia, 2.0)
    assert static_only.stochastic_term == 0.0


def baseline_and_static_only(adapter, batch, ta, ia, tau):
    """Reports and gradients of the baseline and of the static-only aligned loss."""
    base = engine(adapter, batch, ta, ia, TrainConfig(mode=Mode.BASELINE_CE, temperature=tau))
    static = engine(adapter, batch, ta, ia,
                    TrainConfig(mode=Mode.ALIGNED, temperature=tau, w_stochastic=0.0))
    return base, static


def test_text_ce_equals_image_term_exactly(rng):
    # the baseline report is the image half of the static-only aligned report
    for _ in range(50):
        k = int(rng.integers(2, 6))
        adapter = Adapter(0.1 * rng.standard_normal(2 * (7 * 7 + 7)))
        batch = LossBatch(unit_rows(rng, 6, 7), unit_rows(rng, 6, 7), rng.integers(0, k, 6))
        ta = random_anchors(rng, k, 7)
        ia = random_anchors(rng, k, 7, Modality.IMAGE)
        tau = float(rng.uniform(0.5, 30))
        (base, _), (static, _) = baseline_and_static_only(adapter, batch, ta, ia, tau)
        img_term = anchor_ce(adapter.encode_image(batch.image), batch.labels, ta, tau)
        txt_term = anchor_ce(adapter.encode_text(batch.text), batch.labels, ia, tau)
        assert base.total == base.static_term == img_term
        assert static.static_term == img_term + txt_term


def test_text_ce_example():
    anchors = orthonormal_anchors(2, 2)
    batch = LossBatch(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), np.array([0]))
    report, _ = engine(Adapter.zeros(2), batch, anchors, None,
                       TrainConfig(mode=Mode.BASELINE_CE, temperature=1.0))
    assert report.total == pytest.approx(LN_1P_EXP_NEG1, abs=1e-12)
    assert report.total == pytest.approx(0.31326, abs=5e-6)


def test_gradient_subsumption(rng):
    # baseline-CE gradient == image block of the static-only aligned gradient
    h, k, b = 5, 3, 4
    adapter = Adapter(0.1 * rng.standard_normal(2 * (h * h + h)))
    batch = LossBatch(unit_rows(rng, b, h), unit_rows(rng, b, h), rng.integers(0, k, b))
    ta, ia = random_anchors(rng, k, h), random_anchors(rng, k, h, Modality.IMAGE)
    (_, g_base), (_, g_static) = baseline_and_static_only(adapter, batch, ta, ia, 4.0)
    g_base, g_static = Adapter(g_base), Adapter(g_static)
    np.testing.assert_array_equal(g_base.w_img, g_static.w_img)
    np.testing.assert_array_equal(g_base.b_img, g_static.b_img)
    np.testing.assert_array_equal(g_base.w_txt, np.zeros((h, h)))
    np.testing.assert_array_equal(g_base.b_txt, np.zeros(h))


# ---------------------------------------------------------------------------
# adapter-level loss and gradients


@contextlib.contextmanager
def fixed_bandwidth(sigma):
    """The loss's MMD term at bandwidth ``sigma``, not at the median heuristic
    of the rows, which moves with them: the fixed-sigma reference of the FD
    checks. ``sigma`` None keeps the median heuristic."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(losses, "mmd2_biased_grad",
                      functools.partial(mmd2_biased_grad, bandwidth=sigma))
        yield


def random_case(rng, mode):
    """A random loss case of ``mode`` and, for the MMD mode, a bandwidth for
    ``fixed_bandwidth`` (None otherwise)."""
    h = int(rng.integers(3, 8))
    b = int(rng.integers(2, 6))
    k = int(rng.integers(2, 5))
    batch = LossBatch(image=unit_rows(rng, b, h), text=unit_rows(rng, b, h),
                      labels=rng.integers(0, k, b))
    if mode is Mode.ALIGNED_MMD:  # the target rows go under the source rows
        batch.image = np.concatenate([batch.image, unit_rows(rng, int(rng.integers(2, 6)), h)])
    cfg = TrainConfig(mode=mode, temperature=float(rng.uniform(0.5, 6.0)),
                      w_static=float(rng.uniform(0.2, 2.0)),
                      w_stochastic=float(rng.uniform(0.2, 2.0)),
                      w_mmd=float(rng.uniform(0.2, 2.0)))
    sigma = float(rng.uniform(0.5, 2.0)) if mode is Mode.ALIGNED_MMD else None
    adapter = Adapter(0.1 * rng.standard_normal(2 * (h * h + h)))
    ta = random_anchors(rng, k, h)
    ia = random_anchors(rng, k, h, Modality.IMAGE)
    return adapter, batch, ta, ia, cfg, sigma


def finite_difference(adapter, batch, ta, ia, cfg, step=1e-5):
    params = adapter.params
    grad = np.zeros_like(params)
    for i in range(params.size):
        saved = params[i]
        params[i] = saved + step
        f_plus = engine(adapter, batch, ta, ia, cfg)[0].total
        params[i] = saved - step
        f_minus = engine(adapter, batch, ta, ia, cfg)[0].total
        params[i] = saved
        grad[i] = (f_plus - f_minus) / (2 * step)
    return grad


@pytest.mark.parametrize("mode", list(Mode))
def test_gradient_matches_finite_differences(mode):
    rng = make_rng(hash(mode.value) % 2**32)
    for _ in range(4):
        adapter, batch, ta, ia, cfg, sigma = random_case(rng, mode)
        with fixed_bandwidth(sigma):
            _, grad = engine(adapter, batch, ta, ia, cfg)
            fd = finite_difference(adapter, batch, ta, ia, cfg)
        rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-8)
        assert rel < 1e-4


def test_gradient_stationary_single_class(rng):
    # K=1 forces every probability to 1: static loss is constant, gradient 0
    h = 4
    adapter = Adapter.zeros(h)
    batch = LossBatch(unit_rows(rng, 3, h), unit_rows(rng, 3, h), np.zeros(3, dtype=int))
    ta = random_anchors(rng, 1, h)
    ia = random_anchors(rng, 1, h, Modality.IMAGE)
    _, grad = engine(adapter, batch, ta, ia,
                     TrainConfig(mode=Mode.ALIGNED, temperature=1.0, w_stochastic=0.0))
    assert np.linalg.norm(grad) < 1e-8


def test_baseline_report_shape(rng):
    adapter, batch, ta, ia, cfg, _ = random_case(rng, Mode.BASELINE_CE)
    report, _ = engine(adapter, batch, ta, ia, cfg)
    assert report.stochastic_term == 0.0 and report.mmd_term == 0.0
    assert report.total == pytest.approx(cfg.w_static * report.static_term, abs=1e-12)


@pytest.mark.parametrize("mode", list(Mode))
def test_zero_weight_terms_are_skipped_in_every_mode(mode):
    # no term has weight, so none is computed: the baseline's image half too
    adapter, batch, ta, ia, cfg, _ = random_case(make_rng(5), mode)
    cfg = dataclasses.replace(cfg, w_static=0.0, w_stochastic=0.0, w_mmd=0.0)
    report, grad = engine(adapter, batch, ta, ia, cfg)
    assert report == LossReport(total=0.0, static_term=0.0, stochastic_term=0.0, mmd_term=0.0)
    assert not grad.any()


@pytest.mark.parametrize("mode", list(Mode))
def test_gradient_buffer_contents_are_never_read(mode):
    # each block of the buffer is written by some term before anything adds
    # to it (the baseline's text block with zeros): a buffer of NaN gives
    # what a zeroed one gives
    adapter, batch, ta, ia, cfg, _ = random_case(make_rng(11), mode)
    expected_report, expected = loss_and_gradient(adapter, batch, ta, ia, cfg,
                                                  Adapter.zeros(adapter.dim))
    dirty = Adapter(np.full(adapter.params.size, np.nan))
    report, grad = loss_and_gradient(adapter, batch, ta, ia, cfg, dirty)
    assert report == expected_report
    assert grad is dirty.params and np.array_equal(grad, expected)


def test_mmd_kernel_defaults_to_median_heuristic(rng):
    # the MMD term takes median_heuristic of the batch's pooled anchor-aligned
    # rows, the source rows then the target rows, bitwise
    adapter, batch, ta, ia, cfg, _ = random_case(rng, Mode.ALIGNED_MMD)
    assert_default_kernel_is_pooled_median(adapter, batch, ta, ia, cfg)


@pytest.mark.parametrize("b, b_t", [(128, 128), (64, 50)], ids=["clip", "short-last"])
def test_mmd_kernel_defaults_to_median_heuristic_at_clip_batches(rng, b, b_t):
    # the same at the stacked batches of a clip step (K=100) and of a short
    # last step, where the target side is smaller
    h, k = 24, 100
    batch = LossBatch(unit_rows(rng, b + b_t, h), unit_rows(rng, b, h), rng.integers(0, k, b))
    adapter = Adapter(0.1 * rng.standard_normal(2 * (h * h + h)))
    ta, ia = random_anchors(rng, k, h), random_anchors(rng, k, h, Modality.IMAGE)
    cfg = TrainConfig(mode=Mode.ALIGNED_MMD, temperature=15.0, w_mmd=8.0)
    assert_default_kernel_is_pooled_median(adapter, batch, ta, ia, cfg)


def assert_default_kernel_is_pooled_median(adapter, batch, ta, ia, cfg):
    pooled = anchor_align(adapter.encode_image(batch.image), ta, cfg.temperature)
    sigma = median_heuristic(pooled)
    report, grad = engine(adapter, batch, ta, ia, cfg)
    with fixed_bandwidth(sigma):
        expected, expected_grad = engine(adapter, batch, ta, ia, cfg)
    assert report == expected
    np.testing.assert_array_equal(grad, expected_grad)


def test_mmd_term_in_total(rng):
    adapter, batch, ta, ia, cfg, _ = random_case(rng, Mode.ALIGNED_MMD)
    report, _ = engine(adapter, batch, ta, ia, cfg)
    assert report.mmd_term >= 0.0
    expected = (cfg.w_static * report.static_term
                + cfg.w_stochastic * report.stochastic_term
                + cfg.w_mmd * report.mmd_term)
    assert report.total == pytest.approx(expected, abs=1e-12)
