"""The training objective: one private function per loss term, composed by
:func:`loss_and_gradient` into the mode's total and its exact analytic
gradient with respect to the adapter parameters (including the
output-normalization Jacobian).

The terms are the anchor cross-entropy (image half against the static text
anchors, text half against the static image anchors; the baseline text
cross-entropy is the image half), the in-batch contrastive term, and biased
MMD^2 over anchor-aligned features. All values are batch means, so their
scale is batch-size invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .adapter import Adapter, encode_with_cache
from .anchors import AnchorSet
from .core import AnchorError, LabelError, NumericError, ShapeError, softmax_rows
from .mmd import KernelSpec, anchor_align, median_heuristic, mmd2_biased_grad

if TYPE_CHECKING:  # train imports this module
    from .train import TrainConfig


class Mode(Enum):
    """Training objectives: plain text cross-entropy, the aligned losses,
    aligned plus domain matching, and the labeled-target oracle."""

    BASELINE_CE = "baseline"
    ALIGNED = "aligned"
    ALIGNED_MMD = "aligned-mmd"
    ORACLE = "oracle"


@dataclass
class LossReport:
    total: float
    static_term: float
    stochastic_term: float
    mmd_term: float
    bandwidth: float | None = None  # kernel bandwidth the MMD term used


@dataclass
class LossBatch:
    """Index-paired base embeddings sharing labels, plus an optional
    unlabeled target image batch for the MMD term."""

    image: np.ndarray  # (B, H) unit rows
    text: np.ndarray | None  # (B, H) unit rows; the baseline reads none
    labels: np.ndarray  # (B,)
    target_image: np.ndarray | None = None  # (Bt, H)


# ---------------------------------------------------------------------------
# Loss terms. Each returns its unweighted value and its gradient with respect
# to the encoded features it reads; loss_and_gradient applies the weights.
# They check nothing: their arguments are checked where data enters.


def _anchor_ce(feats: np.ndarray, labels: np.ndarray, anchors: AnchorSet,
               temperature: float) -> tuple[float, np.ndarray]:
    """Batch mean of -log softmax(tau <feat, anchor_k>)[label]."""
    b = feats.shape[0]
    rows = np.arange(b)
    p, log_p = softmax_rows(anchor_align(feats, anchors, temperature))
    value = float((-log_p[rows, labels]).mean())
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
    value = 0.5 * float((-log_p_img[diag, diag]).mean() + (-log_p_txt[diag, diag]).mean())
    d_sims = p_img + p_txt.T
    d_sims[diag, diag] -= 2.0
    d_sims *= 1.0 / (2.0 * b)
    return value, temperature * d_sims @ v, temperature * d_sims.T @ u


def _anchor_mmd(u_src: np.ndarray, u_tgt: np.ndarray, anchors: AnchorSet,
                temperature: float, kernel: KernelSpec | None
                ) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Biased MMD^2 between anchor-aligned source and target features, its
    gradients for both batches, and the bandwidth used: the kernel's, or
    without one the median heuristic over both batches' aligned rows.

    The gradients hold the bandwidth constant, the median heuristic's too:
    an optimiser that could move it would be rewarded for inflating it, so,
    as is common practice, it is left out of the differentiation. On the
    desk ``ood`` batch the derivative of the computed value in one random
    direction is -0.111 against an analytic -0.045; with the bandwidth
    fixed at the same value they agree to 5e-9."""
    phi_src = anchor_align(u_src, anchors, temperature)
    phi_tgt = anchor_align(u_tgt, anchors, temperature)
    if kernel is None:
        kernel = KernelSpec(median_heuristic(np.concatenate([phi_src, phi_tgt])))
    value, g_src, g_tgt = mmd2_biased_grad(phi_src, phi_tgt, kernel)
    return (value, temperature * g_src @ anchors.vectors,
            temperature * g_tgt @ anchors.vectors, kernel.bandwidth)


# ---------------------------------------------------------------------------
# Checks


def check_terms(dim: int, labels: np.ndarray, static_text_anchors: AnchorSet,
                static_image_anchors: AnchorSet | None, cfg: TrainConfig) -> None:
    """Check what the mode's terms read besides the batch arrays: each
    anchor set non-empty and of the adapter's dimension ``dim``. When the
    mode scores ``labels`` against the anchors (the anchor cross-entropy),
    every label must be in range of each set."""
    scored = cfg.mode is Mode.BASELINE_CE or cfg.w_static != 0.0
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
    if not np.isfinite(value):
        raise NumericError(f"{term} is non-finite")
    return value


def _norm_backward(g: np.ndarray, u: np.ndarray, r: np.ndarray, base: np.ndarray,
                   weight_grad: np.ndarray, bias_grad: np.ndarray) -> None:
    """Backpropagate g = dL/du through u = z / ||z||, z = base + W base + b,
    adding into the weight and bias gradient blocks."""
    g_z = (g - (g * u).sum(axis=1, keepdims=True) * u) / r[:, None]
    weight_grad += g_z.T @ base
    bias_grad += g_z.sum(axis=0)


def loss_and_gradient(adapter: Adapter, batch: LossBatch, static_text_anchors: AnchorSet,
                      static_image_anchors: AnchorSet | None, cfg: TrainConfig,
                      kernel: KernelSpec | None, grad: Adapter
                      ) -> tuple[LossReport, np.ndarray]:
    """Mode-specific loss of one batch and its exact gradient, written into
    ``grad`` and laid out like ``adapter.params``.

    Baseline: the image half of the anchor cross-entropy. Aligned and oracle:
    both halves plus the contrastive term. Aligned-MMD adds the MMD term over
    ``batch.target_image`` with ``kernel``, or without one the median
    heuristic of the batch. Terms with zero weight are skipped.

    The arguments are checked where they enter, by ``train.train`` (which
    calls ``check_terms``): float64 rows of the adapter's dimension,
    index-paired image and text rows, and labels in range of the anchor
    sets. This checks only that each term and the gradient are finite.
    """
    tau = cfg.temperature
    mode = cfg.mode
    x, labels = batch.image, batch.labels
    grad.params.fill(0.0)
    static_term = stochastic_term = mmd_term = 0.0
    bandwidth = None

    u, r_img = encode_with_cache(adapter.w_img, adapter.b_img, x)
    g_u = np.zeros_like(u)
    if mode is Mode.BASELINE_CE:
        static_term, g = _anchor_ce(u, labels, static_text_anchors, tau)
        _require_finite(static_term, "baseline cross-entropy term")
        g_u += cfg.w_static * g
    else:
        y = batch.text
        v, r_txt = encode_with_cache(adapter.w_txt, adapter.b_txt, y)
        g_v = np.zeros_like(v)
        if cfg.w_static != 0.0:
            img_term, g_img = _anchor_ce(u, labels, static_text_anchors, tau)
            txt_term, g_txt = _anchor_ce(v, labels, static_image_anchors, tau)
            static_term = _require_finite(img_term + txt_term, "static alignment term")
            g_u += cfg.w_static * g_img
            g_v += cfg.w_static * g_txt
        if cfg.w_stochastic != 0.0:
            stochastic_term, g_img, g_txt = _contrastive(u, v, tau)
            _require_finite(stochastic_term, "stochastic alignment term")
            g_u += cfg.w_stochastic * g_img
            g_v += cfg.w_stochastic * g_txt
        if mode is Mode.ALIGNED_MMD and cfg.w_mmd != 0.0:
            x_tgt = batch.target_image
            u_tgt, r_tgt = encode_with_cache(adapter.w_img, adapter.b_img, x_tgt)
            mmd_term, g_src, g_tgt, bandwidth = _anchor_mmd(
                u, u_tgt, static_text_anchors, tau, kernel)
            _require_finite(mmd_term, "domain MMD term")
            g_u += cfg.w_mmd * g_src
            _norm_backward(cfg.w_mmd * g_tgt, u_tgt, r_tgt, x_tgt, grad.w_img, grad.b_img)
        _norm_backward(g_v, v, r_txt, y, grad.w_txt, grad.b_txt)

    total = cfg.w_static * static_term + cfg.w_stochastic * stochastic_term \
        + cfg.w_mmd * mmd_term
    report = LossReport(total=_require_finite(total, "total loss"),
                        static_term=static_term, stochastic_term=stochastic_term,
                        mmd_term=mmd_term, bandwidth=bandwidth)
    _norm_backward(g_u, u, r_img, x, grad.w_img, grad.b_img)
    if not np.all(np.isfinite(grad.params)):
        raise NumericError("gradient is non-finite")
    return report, grad.params
