"""SGD training over paired dual-modality batches: cosine-annealed learning
rate, seeded shuffling and pairing, and per-mode loss composition."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .adapter import Adapter
from .anchors import AnchorSet
from .core import ConfigError, NumericError, ScheduleError, ShapeError, make_rng
from .dataio import EmbeddingSet, Modality
from .evaluation import hit_rate, predict_batch
from .losses import LossBatch, Mode, check_terms, loss_and_gradient
from .mmd import KernelSpec

# Appendix-style defaults: lr is tied to batch size unless set explicitly.
DEFAULT_LEARNING_RATES = {4: 0.0025, 128: 0.01}


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 4
    learning_rate: float | None = None
    temperature: float = 30.0
    w_static: float = 1.0
    w_stochastic: float = 1.0
    w_mmd: float = 1.0
    shots: int = 16
    seed: int = 0
    mode: Mode = Mode.ALIGNED
    bandwidth: float | None = None  # None: median heuristic at each evaluation
    freeze_bandwidth: bool = False  # capture the heuristic once, on the first batch

    def resolved_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        try:
            return DEFAULT_LEARNING_RATES[self.batch_size]
        except KeyError:
            raise ConfigError(
                f"no default learning rate for batch_size {self.batch_size}; set learning_rate"
            ) from None

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.resolved_learning_rate() <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.temperature <= 0:
            raise ConfigError("temperature must be > 0")
        if self.shots < 1:
            raise ConfigError("shots must be >= 1")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ConfigError("bandwidth must be > 0")


@dataclass
class EpochRecord:
    epoch: int
    learning_rate: float
    total: float
    static_term: float
    stochastic_term: float
    mmd_term: float
    train_accuracy: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def to_jsonl(self, path: str | Path) -> None:
        lines = [json.dumps(r.to_dict(), sort_keys=True) for r in self.records]
        Path(path).write_text("\n".join(lines) + "\n")


def cosine_lr(epoch: int, total_epochs: int, base_lr: float) -> float:
    """Cosine annealing: base_lr at epoch 0, zero at epoch total_epochs."""
    if total_epochs < 1:
        raise ScheduleError("total_epochs must be >= 1")
    if epoch < 0 or epoch > total_epochs:
        raise ScheduleError(f"epoch {epoch} outside [0, {total_epochs}]")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


def sgd_step(adapter: Adapter, gradient: np.ndarray, lr: float) -> Adapter:
    """One plain SGD update, in place: ``adapter.params`` becomes
    ``params - lr * gradient``, bitwise. ``gradient`` is consumed: it is
    scaled by ``lr`` in place on the way. Returns ``adapter``."""
    if gradient.shape != adapter.params.shape:
        raise ShapeError(f"gradient shape {gradient.shape} does not match "
                         f"the adapter's parameters {adapter.params.shape}")
    gradient *= lr
    adapter.params -= gradient
    return adapter


def _pooled_records(source: EmbeddingSet, target: EmbeddingSet | None, mode: Mode
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Labeled image and text training pools; the oracle mode pools the target."""
    sets = [source]
    if mode is Mode.ORACLE:
        sets.append(target)
    img_vecs, img_labels, txt_vecs, txt_labels = [], [], [], []
    for s in sets:
        img = s.modality_mask(Modality.IMAGE)
        txt = s.modality_mask(Modality.TEXT)
        img_vecs.append(s.vectors[img])
        img_labels.append(s.class_ids[img])
        txt_vecs.append(s.vectors[txt])
        txt_labels.append(s.class_ids[txt])
    return (np.concatenate(img_vecs), np.concatenate(img_labels),
            np.concatenate(txt_vecs), np.concatenate(txt_labels))


@np.errstate(over="ignore", invalid="ignore")
def train(source: EmbeddingSet, target: EmbeddingSet | None,
          static_text_anchors: AnchorSet, static_image_anchors: AnchorSet,
          cfg: TrainConfig) -> tuple[Adapter, TrainHistory]:
    """Train a zero-initialized adapter on paired image/text batches.

    Per epoch: seeded shuffle of the image pool, each image paired with a
    same-class text record, mode-specific loss, SGD step at the epoch's
    cosine-annealed rate. Target batches for the MMD term come from an
    independent substream of the seed. Each epoch's train accuracy is
    ``evaluation.accuracy`` over the source, bitwise, taken from the
    source images at the head of the pool.

    Every argument is checked here, before the first step, so this is where
    the loss's arguments enter. A step, ``losses.loss_and_gradient``,
    checks only that the features, each loss term and the gradient are
    finite. A NumericError raised while training names the epoch and the
    step, both counted from 0. Since every non-finite value ends in such an
    error, numpy's overflow and invalid-value warnings are silenced.
    """
    cfg.validate()
    if cfg.mode in (Mode.ALIGNED_MMD, Mode.ORACLE):
        if target is None:
            raise ConfigError(f"mode {cfg.mode.value} requires a target set")
        if target.dim != source.dim:
            raise ShapeError(f"target dim {target.dim} != source dim {source.dim}")

    img_vecs, img_labels, txt_vecs, txt_labels = _pooled_records(source, target, cfg.mode)
    n = img_vecs.shape[0]
    # the pool starts with the source's images, which the train accuracy scores
    n_source = int(np.count_nonzero(source.modality_mask(Modality.IMAGE)))
    if n_source == 0:
        raise ConfigError("source set has no image records to train on")
    source_imgs, source_labels = img_vecs[:n_source], img_labels[:n_source]
    # the same-class text records of image i are text_order[first[i]:first[i] + count[i]]
    text_order = np.argsort(txt_labels, kind="stable")
    sorted_labels = txt_labels[text_order]
    first = np.searchsorted(sorted_labels, img_labels, side="left")
    count = np.searchsorted(sorted_labels, img_labels, side="right") - first
    missing = np.unique(img_labels[count == 0]).tolist()
    if missing:
        raise ConfigError(f"classes {missing} have image records but no text records")

    target_imgs = None
    if cfg.mode is Mode.ALIGNED_MMD:
        target_imgs = target.image_vectors()
        if target_imgs.shape[0] == 0:
            raise ConfigError("target set has no image records")

    check_terms(source.dim, img_labels, static_text_anchors, static_image_anchors, cfg)
    # None: the median heuristic of each batch, until freeze_bandwidth fixes it
    kernel = KernelSpec(cfg.bandwidth) if cfg.bandwidth is not None else None

    adapter = Adapter.zeros(source.dim)
    rng = make_rng(cfg.seed, 0)
    rng_target = make_rng(cfg.seed, 1)
    lr0 = cfg.resolved_learning_rate()
    grad = Adapter.zeros(source.dim)  # every step's gradient, overwritten
    size = cfg.batch_size
    history = TrainHistory()
    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg.epochs, lr0)
        perm = rng.permutation(n)
        labels = img_labels[perm]
        # one draw per image, from the same stream as one call per image
        paired = text_order[first[perm] + rng.integers(count[perm])]
        total = static_term = stochastic_term = mmd_term = 0.0
        try:
            for step, start in enumerate(range(0, n, size)):
                sel = perm[start:start + size]
                batch = LossBatch(image=img_vecs[sel], text=txt_vecs[paired[start:start + size]],
                                  labels=labels[start:start + size])
                if target_imgs is not None:
                    take = min(len(sel), target_imgs.shape[0])
                    batch.target_image = target_imgs[rng_target.choice(target_imgs.shape[0],
                                                                       size=take, replace=False)]
                report, g = loss_and_gradient(adapter, batch, static_text_anchors,
                                              static_image_anchors, cfg, kernel, grad)
                if cfg.freeze_bandwidth and kernel is None and report.bandwidth is not None:
                    kernel = KernelSpec(report.bandwidth)
                sgd_step(adapter, g, lr)
                total += report.total
                static_term += report.static_term
                stochastic_term += report.stochastic_term
                mmd_term += report.mmd_term
            preds = predict_batch(adapter.encode_image(source_imgs), static_text_anchors)
        except NumericError as exc:
            raise type(exc)(f"{exc} (epoch {epoch}, step {step})") from None
        steps = step + 1
        history.records.append(EpochRecord(
            epoch=epoch, learning_rate=lr, total=total / steps,
            static_term=static_term / steps, stochastic_term=stochastic_term / steps,
            mmd_term=mmd_term / steps, train_accuracy=hit_rate(source_labels, preds)))
    return adapter, history
