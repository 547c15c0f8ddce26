"""Prediction rule and the three evaluation harnesses (base-to-novel, group
robustness, out-of-distribution), plus confusion matrices and feature dumps.

Rendered metrics are percentage points at one decimal; internal values stay
full precision.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .adapter import Adapter
from .anchors import AnchorSet
from .core import EvalError, SplitError
from .dataio import EmbeddingSet, Modality, write_embeddings
from .mmd import anchor_align


@dataclass
class GroupReport:
    per_group_accuracy: dict[int, float]
    worst_group: float
    average: float
    gap: float


@dataclass
class OODReport:
    source_accuracy: float
    target_accuracies: list[float]
    target_average: float


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (K, K), rows true, columns predicted
    class_names: list[str]

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / float(self.counts.sum())


def format_pct(value: float) -> str:
    """Fraction -> one-decimal percentage string, as in reported tables."""
    return f"{100.0 * value:.1f}"


# ---------------------------------------------------------------------------
# Prediction


def predict_batch(features: np.ndarray, static_text_anchors: AnchorSet,
                  temperature: float = 1.0) -> np.ndarray:
    """Most probable class of each feature row: the argmax of its anchor
    logits; ties go to the lowest id."""
    return np.argmax(anchor_align(features, static_text_anchors, temperature), axis=1)


def _image_predictions(adapter: Adapter, emb_set: EmbeddingSet,
                       static_text_anchors: AnchorSet, temperature: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(true labels, predictions, image-record mask) over the set's images."""
    mask = emb_set.modality_mask(Modality.IMAGE)
    if not mask.any():
        raise EvalError("set has no image records to evaluate")
    feats = adapter.encode_image(emb_set.vectors[mask])
    preds = predict_batch(feats, static_text_anchors, temperature)
    return emb_set.class_ids[mask], preds, mask


def accuracy(adapter: Adapter, emb_set: EmbeddingSet, static_text_anchors: AnchorSet,
             temperature: float = 1.0) -> float:
    labels, preds, _ = _image_predictions(adapter, emb_set, static_text_anchors, temperature)
    return float(np.mean(labels == preds))


def confusion(adapter: Adapter, emb_set: EmbeddingSet, static_text_anchors: AnchorSet,
              temperature: float = 1.0) -> ConfusionMatrix:
    labels, preds, _ = _image_predictions(adapter, emb_set, static_text_anchors, temperature)
    k = len(static_text_anchors)
    if labels.max() >= k:
        raise EvalError(f"set labels exceed the {k} anchor classes")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (labels, preds), 1)
    names = static_text_anchors.class_names or [str(i) for i in range(k)]
    return ConfusionMatrix(counts=counts, class_names=list(names))


# ---------------------------------------------------------------------------
# Harnesses

def base_to_novel(adapter: Adapter, base_set: EmbeddingSet, novel_set: EmbeddingSet,
                  base_anchors: AnchorSet, novel_anchors: AnchorSet,
                  temperature: float = 1.0) -> dict[str, float]:
    """Accuracy on held-out base classes and on disjoint novel classes, each
    against its own split's text anchors (see ``experiments.eval_text_anchors``)."""
    overlap = set(base_set.class_names) & set(novel_set.class_names)
    if overlap:
        raise SplitError(f"base and novel share classes: {sorted(overlap)[:3]}")
    return {
        "base_accuracy": accuracy(adapter, base_set, base_anchors, temperature),
        "novel_accuracy": accuracy(adapter, novel_set, novel_anchors, temperature),
    }


def group_metrics(per_group_correct: Mapping[int, int],
                  per_group_total: Mapping[int, int]) -> GroupReport:
    """Worst-group and (unweighted) average-group accuracy with their gap."""
    if not per_group_total:
        raise EvalError("no groups")
    if set(per_group_correct) - set(per_group_total):
        raise EvalError("correct counts reference unknown groups")
    per_group = {}
    for group in sorted(per_group_total):
        total = per_group_total[group]
        if total <= 0:
            raise EvalError(f"group {group} has no samples")
        per_group[int(group)] = per_group_correct.get(group, 0) / total
    values = np.array(list(per_group.values()))
    worst = float(values.min())
    avg = float(values.mean())
    return GroupReport(per_group_accuracy=per_group, worst_group=worst,
                       average=avg, gap=avg - worst)


def group_accuracy_report(adapter: Adapter, emb_set: EmbeddingSet,
                          static_text_anchors: AnchorSet,
                          temperature: float = 1.0) -> GroupReport:
    """Group robustness over (class, spurious-alignment) cells: group key
    is class_id * 2 + group_id."""
    labels, preds, mask = _image_predictions(adapter, emb_set, static_text_anchors, temperature)
    keys = labels * 2 + emb_set.group_ids[mask]
    correct: dict[int, int] = {}
    total: dict[int, int] = {}
    for key, hit in zip(keys.tolist(), (labels == preds).tolist()):
        total[key] = total.get(key, 0) + 1
        correct[key] = correct.get(key, 0) + int(hit)
    return group_metrics(correct, total)


def ood_report(source_accuracy: float, target_accuracies: Sequence[float]) -> OODReport:
    """Assemble the OOD summary; the average covers targets only."""
    if not target_accuracies:
        raise EvalError("need at least one target accuracy")
    targets = [float(a) for a in target_accuracies]
    return OODReport(source_accuracy=float(source_accuracy),
                     target_accuracies=targets,
                     target_average=float(np.mean(targets)))


def ood_suite(adapter: Adapter, source_test: EmbeddingSet,
              target_tests: Sequence[EmbeddingSet], static_text_anchors: AnchorSet,
              temperature: float = 1.0) -> OODReport:
    """Source accuracy plus per-target accuracies over sets sharing the
    source class vocabulary."""
    if not target_tests:
        raise EvalError("need at least one target set")
    for i, t in enumerate(target_tests):
        if t.class_names != source_test.class_names:
            raise EvalError(f"target set {i} does not share the source class vocabulary")
    return ood_report(
        accuracy(adapter, source_test, static_text_anchors, temperature),
        [accuracy(adapter, t, static_text_anchors, temperature) for t in target_tests])


def dump_features(adapter: Adapter, emb_set: EmbeddingSet, path: str | Path) -> None:
    """Write adapter-encoded features (labels and tags preserved) in CEMB
    format for external visualization."""
    img_mask = emb_set.modality_mask(Modality.IMAGE)
    encoded = emb_set.vectors.copy()
    if img_mask.any():
        encoded[img_mask] = adapter.encode_image(emb_set.vectors[img_mask])
    if (~img_mask).any():
        encoded[~img_mask] = adapter.encode_text(emb_set.vectors[~img_mask])
    out = EmbeddingSet(encoded, emb_set.class_ids, emb_set.modalities, emb_set.domains,
                       emb_set.group_ids, list(emb_set.class_names))
    write_embeddings(out, path)


# ---------------------------------------------------------------------------
# Rendering


def confusion_csv(matrix: ConfusionMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["true\\predicted", *matrix.class_names])
    for name, row in zip(matrix.class_names, matrix.counts):
        writer.writerow([name, *row.tolist()])
    return buf.getvalue()
