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
from .core import ConfigError, NumericError, ShapeError, make_rng
from .dataio import EmbeddingSet, Modality
from .evaluation import accuracy, predict_batch
from .losses import LossBatch, Mode, check_terms, loss_and_gradient

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
        # anchor-aligned rows, tau times unit rows against K < 2^32 unit anchors
        # (a CEMB header's u32), square to at most 4 K tau^2 <= 4 * 2^32 * 1e200, finite
        if not 0 < self.temperature <= 1e100:
            raise ConfigError(f"train.temperature must be in (0, 1e+100], got {self.temperature}")
        if self.shots < 1:
            raise ConfigError("shots must be >= 1")
        # the kernel divides by 2 sigma^2, which may neither underflow to 0 nor
        # overflow (Python's float power raises OverflowError beyond 1.3e154)
        if self.bandwidth is not None and not 1e-100 <= self.bandwidth <= 1e100:
            raise ConfigError(f"train.bandwidth must be null or in [1e-100, 1e+100], "
                              f"got {self.bandwidth}")


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
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


def sgd_step(adapter: Adapter, gradient: np.ndarray, lr: float) -> Adapter:
    """One plain SGD update, in place: ``adapter.params`` becomes
    ``params - lr * gradient``, bitwise. ``gradient`` is consumed: it is
    scaled by ``lr`` in place on the way. Returns ``adapter``."""
    gradient *= lr
    adapter.params -= gradient
    return adapter


@np.errstate(over="ignore", invalid="ignore")
def train(source: EmbeddingSet, target: EmbeddingSet | None,
          static_text_anchors: AnchorSet, static_image_anchors: AnchorSet,
          cfg: TrainConfig) -> tuple[Adapter, TrainHistory]:
    """Train a zero-initialized adapter on paired image/text batches.

    Per epoch: seeded shuffle of the image pool, each image paired with a
    same-class text record, mode-specific loss, SGD step at the epoch's
    cosine-annealed rate. Target batches for the MMD term come from an
    independent substream of the seed. A step's image rows are its source
    rows, then its target rows, taken into one buffer, so the loss encodes,
    aligns and backpropagates them as one batch; with ``cfg.bandwidth``
    None each step's sigma is ``median_heuristic`` of the pooled aligned
    rows (see ``mmd.mmd2_biased_grad``). Each epoch's train accuracy is
    ``evaluation.accuracy`` of the predictions of ``evaluation.score`` on
    the source, bitwise, so the image pool is held; each step's text and
    target rows are read by index from the sets' vectors, never copied whole.

    Every argument is checked here, before the first step, so this is where
    the loss's arguments enter. A step, ``losses.loss_and_gradient``,
    checks only that the features, each loss term and the gradient are
    finite. A NumericError raised while training names the epoch and the
    step, both counted from 0. Since every non-finite value ends in such an
    error, numpy's overflow and invalid-value warnings are silenced.
    """
    cfg.validate()
    target_rows = None
    if cfg.mode is Mode.ALIGNED_MMD:
        if target is None:
            raise ConfigError(f"mode {cfg.mode.value} requires a target set")
        if target.dim != source.dim:
            raise ShapeError(f"target dim {target.dim} != source dim {source.dim}")
        target_rows = np.flatnonzero(target.modality_mask(Modality.IMAGE))
        if target_rows.size == 0:
            raise ConfigError("target set has no image records")

    img = source.modality_mask(Modality.IMAGE)
    txt_rows = np.flatnonzero(source.modality_mask(Modality.TEXT))
    img_vecs, img_labels = source.vectors[img], source.class_ids[img]
    txt_labels = source.class_ids[txt_rows]
    n = img_vecs.shape[0]
    if n == 0:
        raise ConfigError("source set has no image records to train on")
    # the records of the same-class texts of image i are text_order[first[i]:first[i] + count[i]]
    by_label = np.argsort(txt_labels, kind="stable")
    text_order = txt_rows[by_label]
    sorted_labels = txt_labels[by_label]
    first = np.searchsorted(sorted_labels, img_labels, side="left")
    count = np.searchsorted(sorted_labels, img_labels, side="right") - first
    missing = np.unique(img_labels[count == 0]).tolist()
    if missing:
        raise ConfigError(f"classes {missing} have image records but no text records")

    check_terms(source.dim, img_labels, static_text_anchors, static_image_anchors, cfg)

    adapter = Adapter.zeros(source.dim)
    rng = make_rng(cfg.seed, 0)
    rng_target = make_rng(cfg.seed, 1)
    lr0 = cfg.resolved_learning_rate()
    grad = Adapter.zeros(source.dim)  # every step's gradient, overwritten
    size = cfg.batch_size
    # every step's image rows, overwritten: its source rows, then its target rows
    images = np.empty((2 * min(size, n), source.dim))
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
                rows = len(sel)
                # the indices are in range by construction; "clip" writes
                # straight into out, where "raise" would go through a buffer
                np.take(img_vecs, sel, axis=0, out=images[:rows], mode="clip")
                if target_rows is not None:
                    take = min(rows, target_rows.size)
                    np.take(target.vectors, target_rows[rng_target.choice(
                        target_rows.size, size=take, replace=False)], axis=0,
                        out=images[rows:rows + take], mode="clip")
                    rows += take
                batch = LossBatch(image=images[:rows],
                                  text=source.vectors[paired[start:start + size]],
                                  labels=labels[start:start + size])
                report, g = loss_and_gradient(adapter, batch, static_text_anchors,
                                              static_image_anchors, cfg, grad)
                sgd_step(adapter, g, lr)
                total += report.total
                static_term += report.static_term
                stochastic_term += report.stochastic_term
                mmd_term += report.mmd_term
            preds = predict_batch(adapter.encode_image(img_vecs), static_text_anchors)
        except NumericError as exc:
            raise type(exc)(f"{exc} (epoch {epoch}, step {step})") from None
        steps = step + 1
        history.records.append(EpochRecord(
            epoch=epoch, learning_rate=lr, total=total / steps,
            static_term=static_term / steps, stochastic_term=stochastic_term / steps,
            mmd_term=mmd_term / steps, train_accuracy=accuracy(img_labels, preds)))
    return adapter, history
