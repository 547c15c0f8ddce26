"""Prediction rule and the three evaluation harnesses (base-to-novel, group
robustness, out-of-distribution), plus confusion matrices.

A prediction is the argmax of a feature's anchor similarities. The training
temperature scales those logits by a positive factor, which moves no argmax,
so no function here takes it. Rendered metrics are percentage points at one
decimal; internal values stay full precision.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .adapter import Adapter
from .anchors import AnchorSet
from .core import EvalError, SplitError
from .dataio import EmbeddingSet, Modality
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


def format_pct(value: float) -> str:
    """Fraction -> one-decimal percentage string, as in reported tables."""
    return f"{100.0 * value:.1f}"


# ---------------------------------------------------------------------------
# Prediction


def predict_batch(features: np.ndarray, static_text_anchors: AnchorSet) -> np.ndarray:
    """Most probable class of each feature row: the argmax of its anchor
    similarities; ties go to the lowest id."""
    return np.argmax(anchor_align(features, static_text_anchors), axis=1)


def _image_predictions(adapter: Adapter, emb_set: EmbeddingSet, static_text_anchors: AnchorSet
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(true labels, predictions) over the set's images."""
    mask = emb_set.modality_mask(Modality.IMAGE)
    if not mask.any():
        raise EvalError("set has no image records to evaluate")
    feats = adapter.encode_image(emb_set.vectors[mask])
    preds = predict_batch(feats, static_text_anchors)
    return emb_set.class_ids[mask], preds


def hit_rate(labels: np.ndarray, preds: np.ndarray) -> float:
    """Share of ``preds`` equal to ``labels``, as the count over the size:
    bitwise ``np.mean(labels == preds)``, a sum of exact ones and one
    correctly rounded division."""
    return np.count_nonzero(labels == preds) / labels.size


def accuracy(adapter: Adapter, emb_set: EmbeddingSet, static_text_anchors: AnchorSet) -> float:
    """``hit_rate`` of the predictions for the set's images; a set with no
    image record is an EvalError."""
    return hit_rate(*_image_predictions(adapter, emb_set, static_text_anchors))


def confusion(adapter: Adapter, emb_set: EmbeddingSet, static_text_anchors: AnchorSet
              ) -> ConfusionMatrix:
    labels, preds = _image_predictions(adapter, emb_set, static_text_anchors)
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
                  base_anchors: AnchorSet, novel_anchors: AnchorSet) -> dict[str, float]:
    """Accuracy on held-out base classes and on disjoint novel classes, each
    against its own split's text anchors (see ``experiments.eval_text_anchors``)."""
    overlap = set(base_set.class_names) & set(novel_set.class_names)
    if overlap:
        raise SplitError(f"base and novel share classes: {sorted(overlap)[:3]}")
    return {
        "base_accuracy": accuracy(adapter, base_set, base_anchors),
        "novel_accuracy": accuracy(adapter, novel_set, novel_anchors),
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
                          static_text_anchors: AnchorSet) -> GroupReport:
    """Group robustness over (class, spurious-alignment) cells: group key
    is class_id * 2 + group_id, so every image record's group id must be 0
    or 1; any other value is an EvalError naming the first such record."""
    images = np.flatnonzero(emb_set.modality_mask(Modality.IMAGE))
    groups = emb_set.group_ids[images]
    bad = np.flatnonzero((groups < 0) | (groups > 1))
    if bad.size:
        record = int(images[bad[0]])
        raise EvalError(f"image record {record} of the evaluated set "
                        f"({emb_set.class_names[emb_set.class_ids[record]]}) has group id "
                        f"{groups[bad[0]]}; group ids must be 0 or 1")
    labels, preds = _image_predictions(adapter, emb_set, static_text_anchors)
    keys = labels * 2 + groups
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
              target_tests: Sequence[EmbeddingSet], static_text_anchors: AnchorSet
              ) -> OODReport:
    """Source accuracy plus per-target accuracies over sets sharing the
    source class vocabulary."""
    if not target_tests:
        raise EvalError("need at least one target set")
    for i, t in enumerate(target_tests):
        if t.class_names != source_test.class_names:
            raise EvalError(f"target set {i} does not share the source class vocabulary")
    return ood_report(
        accuracy(adapter, source_test, static_text_anchors),
        [accuracy(adapter, t, static_text_anchors) for t in target_tests])


# ---------------------------------------------------------------------------
# Rendering


def confusion_csv(matrix: ConfusionMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["true\\predicted", *matrix.class_names])
    for name, row in zip(matrix.class_names, matrix.counts):
        writer.writerow([name, *row.tolist()])
    return buf.getvalue()
