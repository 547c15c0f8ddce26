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

import numpy as np

from .adapter import Adapter, encode_with_cache
from .anchors import AnchorSet
from .core import (AnchorError, ConfigError, LabelError, NumericError,
                   ShapeError, softmax_rows)
from .mmd import KernelSpec, anchor_align, median_heuristic, mmd2_biased_grad


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
    batch_size: int
    bandwidth: float | None = None  # kernel bandwidth the MMD term used


@dataclass
class LossBatch:
    """Index-paired base embeddings sharing labels, plus an optional
    unlabeled target image batch for the MMD term."""

    image: np.ndarray  # (B, H) unit rows
    text: np.ndarray | None  # (B, H) unit rows; the baseline reads none
    labels: np.ndarray  # (B,)
    target_image: np.ndarray | None = None  # (Bt, H)


@dataclass
class LossConfig:
    mode: Mode = Mode.ALIGNED
    temperature: float = 1.0
    w_static: float = 1.0
    w_stochastic: float = 1.0
    w_mmd: float = 1.0
    kernel: KernelSpec | None = None  # None: median heuristic per batch

    def validate(self) -> None:
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")


# ---------------------------------------------------------------------------
# Loss terms. Each returns its unweighted value and its gradient with respect
# to the encoded features it reads; _loss_step applies the weights. They
# check nothing: their arguments are checked where data enters.


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
    without one the median heuristic over both batches' aligned rows."""
    phi_src = anchor_align(u_src, anchors, temperature)
    phi_tgt = anchor_align(u_tgt, anchors, temperature)
    if kernel is None:
        kernel = KernelSpec(median_heuristic(np.concatenate([phi_src, phi_tgt])))
    value, g_src, g_tgt = mmd2_biased_grad(phi_src, phi_tgt, kernel)
    return (value, temperature * g_src @ anchors.vectors,
            temperature * g_tgt @ anchors.vectors, kernel.bandwidth)


# ---------------------------------------------------------------------------
# Checks


def _check_terms(adapter: Adapter, labels: np.ndarray, static_text_anchors: AnchorSet,
                 static_image_anchors: AnchorSet | None, cfg: LossConfig) -> None:
    """Check what the mode's terms read besides the batch arrays: finite
    adapter parameters, and each anchor set non-empty and of the adapter's
    dimension. When the mode scores ``labels`` against the anchors (the
    anchor cross-entropy), every label must be in range of each set."""
    if not np.all(np.isfinite(adapter.params)):
        raise NumericError("adapter parameters are not finite")
    scored = cfg.mode is Mode.BASELINE_CE or cfg.w_static != 0.0
    anchor_sets = [static_text_anchors]
    if scored and cfg.mode is not Mode.BASELINE_CE:
        if static_image_anchors is None:
            raise AnchorError("static image anchors required for the static alignment term")
        anchor_sets.append(static_image_anchors)
    for anchors in anchor_sets:
        if len(anchors) == 0:
            raise AnchorError("empty anchor set")
        if anchors.dim != adapter.dim:
            raise ShapeError(f"anchor dim {anchors.dim} != adapter dim {adapter.dim}")
        if scored and labels.size and (labels.min() < 0 or labels.max() >= len(anchors)):
            raise LabelError(f"label out of range [0, {len(anchors)})")


def _batch_rows(a: np.ndarray, dim: int, what: str) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if a.shape[1] != dim:
        raise ShapeError(f"{what} dim {a.shape[1]} != adapter dim {dim}")
    return a


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
                      static_image_anchors: AnchorSet | None, cfg: LossConfig
                      ) -> tuple[LossReport, np.ndarray]:
    """Mode-specific loss of one batch and its exact gradient, laid out like
    ``adapter.params``.

    Baseline: the image half of the anchor cross-entropy. Aligned and oracle:
    both halves plus the contrastive term. Aligned-MMD adds the MMD term over
    ``batch.target_image``. Terms with zero weight are skipped.

    Checks every argument, then runs ``_loss_step``.
    """
    cfg.validate()
    x = _batch_rows(batch.image, adapter.dim, "batch")
    if x.shape[0] < 1:
        raise ShapeError("empty batch")
    labels = np.asarray(batch.labels, dtype=np.int64)
    if labels.shape != (x.shape[0],):
        raise ShapeError(f"{labels.shape[0] if labels.ndim else 0} labels for {x.shape[0]} samples")
    _check_terms(adapter, labels, static_text_anchors, static_image_anchors, cfg)
    y = x_tgt = None
    if cfg.mode is not Mode.BASELINE_CE:
        y = np.atleast_2d(np.asarray(batch.text, dtype=np.float64))
        if y.shape != x.shape:
            raise ShapeError(f"unpaired batches: {x.shape} vs {y.shape}")
        if cfg.mode is Mode.ALIGNED_MMD and cfg.w_mmd != 0.0:
            if batch.target_image is None:
                raise ConfigError(f"mode {cfg.mode.value} requires a target image batch")
            x_tgt = _batch_rows(batch.target_image, adapter.dim, "target batch")
    return _loss_step(adapter, LossBatch(x, y, labels, x_tgt), static_text_anchors,
                      static_image_anchors, cfg, Adapter.zeros(adapter.dim))


def _loss_step(adapter: Adapter, batch: LossBatch, static_text_anchors: AnchorSet,
               static_image_anchors: AnchorSet | None, cfg: LossConfig, grad: Adapter
               ) -> tuple[LossReport, np.ndarray]:
    """``loss_and_gradient`` of a batch whose arguments are already checked,
    with the gradient written into ``grad``. It checks only that each term
    and the gradient are finite."""
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
                u, u_tgt, static_text_anchors, tau, cfg.kernel)
            _require_finite(mmd_term, "domain MMD term")
            g_u += cfg.w_mmd * g_src
            _norm_backward(cfg.w_mmd * g_tgt, u_tgt, r_tgt, x_tgt, grad.w_img, grad.b_img)
        _norm_backward(g_v, v, r_txt, y, grad.w_txt, grad.b_txt)

    total = cfg.w_static * static_term + cfg.w_stochastic * stochastic_term \
        + cfg.w_mmd * mmd_term
    report = LossReport(total=_require_finite(total, "total loss"),
                        static_term=static_term, stochastic_term=stochastic_term,
                        mmd_term=mmd_term, batch_size=x.shape[0], bandwidth=bandwidth)
    _norm_backward(g_u, u, r_img, x, grad.w_img, grad.b_img)
    if not np.all(np.isfinite(grad.params)):
        raise NumericError("gradient is non-finite")
    return report, grad.params
