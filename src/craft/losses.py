"""The training objective: the loss terms, composed by :func:`loss_and_gradient`
into the mode's total and its exact analytic gradient with respect to the
adapter parameters (including the output-normalization Jacobian).

The terms are the anchor cross-entropy (image half against the static text
anchors, text half against the static image anchors; the baseline text
cross-entropy is the image half) and the in-batch contrastive term, private
functions here, and biased MMD^2 over anchor-aligned features,
``mmd.mmd2_biased_grad``. All values are batch means, so their scale is
batch-size invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapter import Adapter, encode_with_cache
from .anchors import AnchorSet
from .config import Mode, TrainConfig
from .core import AnchorError, LabelError, NumericError, ShapeError, softmax_rows
from .mmd import anchor_align, mmd2_biased_grad


@dataclass
class LossReport:
    total: float
    static_term: float
    stochastic_term: float
    mmd_term: float


@dataclass
class LossBatch:
    """Index-paired base embeddings sharing labels. For the MMD term the
    image rows go on with an unlabeled target batch: the B source rows,
    then the Bt target rows, stacked."""

    image: np.ndarray  # (B, H) unit rows, or (B + Bt, H) for the MMD term
    text: np.ndarray | None  # (B, H) unit rows; the baseline reads none
    labels: np.ndarray  # (B,)


# ---------------------------------------------------------------------------
# Loss terms. Each returns its unweighted value and its gradient with respect
# to the encoded features it reads; loss_and_gradient applies the weights.
# They check nothing: their arguments are checked where data enters. A batch
# mean is written sum / b, which is what ndarray.mean computes, bitwise. The
# values are negated before the sum, not after: a sum of -0.0 is +0.0.


def _anchor_ce(logits: np.ndarray, labels: np.ndarray, anchors: AnchorSet,
               temperature: float) -> tuple[float, np.ndarray]:
    """Batch mean of -log softmax(logits)[label], where ``logits`` are the
    features' ``anchor_align(feats, anchors, temperature)``, and its
    gradient with respect to the features."""
    b = logits.shape[0]
    rows = np.arange(b)
    p, log_p = softmax_rows(logits)
    value = float((-log_p[rows, labels]).sum()) / b
    p[rows, labels] -= 1.0
    return value, (temperature / b) * p @ anchors.vectors


def _contrastive(u: np.ndarray, v: np.ndarray, temperature: float
                 ) -> tuple[float, np.ndarray, np.ndarray]:
    """Symmetric in-batch contrastive loss: similarity matrix with diagonal
    targets, averaged over the image-to-text and text-to-image directions."""
    b = u.shape[0]
    diag = np.arange(b)
    sims = temperature * u @ v.T
    p_img, log_p_img = softmax_rows(sims)
    p_txt, log_p_txt = softmax_rows(sims.T)
    value = 0.5 * (float((-log_p_img[diag, diag]).sum()) / b
                   + float((-log_p_txt[diag, diag]).sum()) / b)
    d_sims = p_img + p_txt.T
    d_sims[diag, diag] -= 2.0
    d_sims *= 1.0 / (2.0 * b)
    return value, temperature * d_sims @ v, temperature * d_sims.T @ u


# ---------------------------------------------------------------------------
# Checks


def check_terms(dim: int, labels: np.ndarray, static_text_anchors: AnchorSet,
                static_image_anchors: AnchorSet | None, cfg: TrainConfig) -> None:
    """Check what the mode's terms read besides the batch arrays: each
    anchor set non-empty and of the adapter's dimension ``dim``. When the
    anchor cross-entropy has weight, it scores ``labels`` against the
    anchors, so every label must be in range of each set."""
    scored = cfg.w_static != 0.0
    anchor_sets = [static_text_anchors]
    if scored and cfg.mode is not Mode.BASELINE_CE:
        if static_image_anchors is None:
            raise AnchorError("static image anchors required for the static alignment term")
        anchor_sets.append(static_image_anchors)
    for anchors in anchor_sets:
        if len(anchors) == 0:
            raise AnchorError("empty anchor set")
        if anchors.dim != dim:
            raise ShapeError(f"anchor dim {anchors.dim} != adapter dim {dim}")
        if scored and labels.size and (labels.min() < 0 or labels.max() >= len(anchors)):
            raise LabelError(f"label out of range [0, {len(anchors)})")


# ---------------------------------------------------------------------------
# The engine


def _require_finite(value: float, term: str) -> float:
    if not math.isfinite(value):
        raise NumericError(f"{term} is non-finite")
    return value


def _norm_backward(g: np.ndarray, u: np.ndarray, r: np.ndarray, base: np.ndarray,
                   weight_grad: np.ndarray, bias_grad: np.ndarray) -> None:
    """Backpropagate g = dL/du through u = z / ||z||, z = base + W base + b,
    written over the weight and bias gradient blocks."""
    g_z = g * u
    dots = g_z.sum(axis=1, keepdims=True)
    np.subtract(g, np.multiply(dots, u, out=g_z), out=g_z)  # g_z = (g - (g.u) u) / r
    g_z /= r[:, None]
    np.matmul(g_z.T, base, out=weight_grad)
    np.sum(g_z, axis=0, out=bias_grad)


def loss_and_gradient(adapter: Adapter, batch: LossBatch, static_text_anchors: AnchorSet,
                      static_image_anchors: AnchorSet | None, cfg: TrainConfig,
                      grad: Adapter) -> tuple[LossReport, np.ndarray]:
    """Mode-specific loss of one batch and its exact gradient, written into
    ``grad`` and laid out like ``adapter.params``.

    Baseline: the image half of the anchor cross-entropy. Aligned: both
    halves plus the contrastive term. Aligned-MMD adds the MMD term between
    the batch's source and target image rows, stacked in ``batch.image``,
    after both are anchor-aligned (``mmd.mmd2_biased_grad``), at
    ``median_heuristic`` of the pooled aligned rows. The stacked rows go
    through one encode, one alignment and one backward pass. Terms with zero
    weight are skipped; without the MMD term only the source rows are read.

    The MMD gradient holds the median heuristic's bandwidth constant: an
    optimiser that could move it would be rewarded for inflating it, so, as
    is common practice, it is left out of the differentiation. On the
    desk ``ood`` batch the derivative of the computed value in one random
    direction is -0.111 against an analytic -0.045; with the bandwidth fixed
    at the same value they agree to 5e-9.

    ``grad``'s previous contents are never read: each block is written
    once, and the baseline's text block is zeroed.

    The arguments are checked where they enter, by ``train.train`` (which
    calls ``check_terms``): float64 rows of the adapter's dimension,
    index-paired image and text rows, and labels in range of the anchor
    sets. This checks only that each term and the gradient are finite.
    """
    tau = cfg.temperature
    mode = cfg.mode
    labels = batch.labels
    b = labels.shape[0]
    static_term = stochastic_term = mmd_term = 0.0

    aligned = mode is not Mode.BASELINE_CE  # gates the text encode, terms and backward
    with_mmd = mode is Mode.ALIGNED_MMD and cfg.w_mmd != 0.0
    x = batch.image if with_mmd else batch.image[:b]
    u, r_img = encode_with_cache(adapter.w_img, adapter.b_img, x)
    g_u = np.zeros(u.shape)
    u_src, g_src = u[:b], g_u[:b]  # the source rows, which the other terms read
    if aligned:
        y = batch.text
        v, r_txt = encode_with_cache(adapter.w_txt, adapter.b_txt, y)
        g_v = np.zeros(v.shape)
    if cfg.w_static != 0.0 or with_mmd:
        phi_u = anchor_align(u, static_text_anchors, tau)  # read by both terms
    if cfg.w_static != 0.0:
        static_term, g_img = _anchor_ce(phi_u[:b], labels, static_text_anchors, tau)
        if aligned:
            txt_term, g_txt = _anchor_ce(anchor_align(v, static_image_anchors, tau), labels,
                                         static_image_anchors, tau)
            static_term += txt_term
            g_v += cfg.w_static * g_txt
        _require_finite(static_term, "static alignment term")
        g_src += cfg.w_static * g_img
    if aligned and cfg.w_stochastic != 0.0:
        stochastic_term, g_img, g_txt = _contrastive(u_src, v, tau)
        _require_finite(stochastic_term, "stochastic alignment term")
        g_src += cfg.w_stochastic * g_img
        g_v += cfg.w_stochastic * g_txt
    if with_mmd:
        mmd_term, g_phi = mmd2_biased_grad(phi_u, b)
        _require_finite(mmd_term, "domain MMD term")
        g_u += cfg.w_mmd * tau * g_phi @ static_text_anchors.vectors
    if aligned:
        _norm_backward(g_v, v, r_txt, y, grad.w_txt, grad.b_txt)
    else:  # no term reads the text adapter
        grad.w_txt.fill(0.0)
        grad.b_txt.fill(0.0)

    total = cfg.w_static * static_term + cfg.w_stochastic * stochastic_term \
        + cfg.w_mmd * mmd_term
    report = LossReport(total=_require_finite(total, "total loss"),
                        static_term=static_term, stochastic_term=stochastic_term,
                        mmd_term=mmd_term)
    _norm_backward(g_u, u, r_img, x, grad.w_img, grad.b_img)
    if not np.isfinite(grad.params).all():
        raise NumericError("gradient is non-finite")
    return report, grad.params
