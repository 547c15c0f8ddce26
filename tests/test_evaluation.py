import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craft.adapter import Adapter
from craft.anchors import build_static_text_anchors
from craft.core import EvalError, ShapeError, SplitError, l2_normalize
from craft.dataio import Modality, SyntheticConfig, generate_synthetic, split_base_novel
from craft.evaluation import (accuracy, base_to_novel, confusion, confusion_csv, format_pct,
                              group_accuracy_report, group_metrics, hit_rate, ood_report,
                              ood_suite, predict_batch)

from conftest import orthonormal_anchors, random_anchors, toy_embedding_set, unit_rows


def separable_set():
    """Images exactly on orthonormal anchor directions: perfectly classifiable."""
    vectors = np.concatenate([np.eye(4), np.eye(4)])
    class_ids = np.concatenate([np.arange(4), np.arange(4)])
    modalities = [0] * 4 + [1] * 4
    return toy_embedding_set(vectors, class_ids, modalities)


# ---------------------------------------------------------------------------
# predict / accuracy


def test_predict_matches_anchor():
    anchors = orthonormal_anchors(3, 3)
    np.testing.assert_array_equal(predict_batch(anchors.vectors, anchors), [0, 1, 2])
    assert predict_batch(anchors.vectors[2], anchors).tolist() == [2]
    with pytest.raises(ShapeError):
        predict_batch(np.zeros((2, 4)), anchors)


def test_predict_single_class(rng):
    anchors = random_anchors(rng, 1, 4)
    np.testing.assert_array_equal(predict_batch(unit_rows(rng, 5, 4), anchors), 0)


def test_predict_tie_breaks_low():
    anchors = orthonormal_anchors(3, 3)
    queries = l2_normalize(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]))
    np.testing.assert_array_equal(predict_batch(queries, anchors), [0, 1, 0])


def test_accuracy_perfect_and_permuted():
    emb = separable_set()
    anchors = orthonormal_anchors(4, 4)
    adapter = Adapter.zeros(4)
    assert accuracy(adapter, emb, anchors) == 1.0
    permuted = orthonormal_anchors(4, 4)
    permuted.vectors = permuted.vectors[[1, 2, 3, 0]]
    assert accuracy(adapter, emb, permuted) == 0.0


def test_accuracy_zero_adapter_equals_zero_shot(rng):
    source, _ = generate_synthetic(SyntheticConfig(
        num_classes=3, dim=6, samples_per_class_per_modality=8,
        cluster_spread=0.2, cross_modal_noise=0.2, seed=2))
    anchors = build_static_text_anchors(source)
    adapter = Adapter.zeros(6)
    img = source.modality_mask(Modality.IMAGE)
    preds = predict_batch(source.vectors[img], anchors)
    expected = float(np.mean(preds == source.class_ids[img]))
    assert accuracy(adapter, source, anchors) == expected


def test_accuracy_no_images():
    emb = toy_embedding_set(np.eye(2), [0, 1], [1, 1])
    with pytest.raises(EvalError):
        accuracy(Adapter.zeros(2), emb, orthonormal_anchors(2, 2))


@given(st.integers(0, 2**32 - 1), st.integers(1, 20_000), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_hit_rate_is_the_mean_of_hits_bitwise(seed, n, k):
    rng = np.random.default_rng(seed)
    labels, preds = rng.integers(0, k, n), rng.integers(0, k, n)
    assert hit_rate(labels, preds).hex() == float(np.mean(labels == preds)).hex()


# ---------------------------------------------------------------------------
# base-to-novel


def test_base_to_novel_untrained_equals_zero_shot():
    source, _ = generate_synthetic(SyntheticConfig(
        num_classes=6, dim=8, samples_per_class_per_modality=8,
        cluster_spread=0.2, cross_modal_noise=0.3, seed=5))
    base, novel = split_base_novel(source, 0.5)
    untrained = Adapter.zeros(8)
    result = base_to_novel(untrained, base, novel,
                           build_static_text_anchors(base, untrained.encode_text),
                           build_static_text_anchors(novel, untrained.encode_text))
    for split in (base, novel):
        anchors = build_static_text_anchors(split)
        expected = accuracy(Adapter.zeros(8), split, anchors)
        key = "base_accuracy" if split is base else "novel_accuracy"
        assert result[key] == expected


def test_base_to_novel_overlap_rejected():
    emb = separable_set()
    anchors = orthonormal_anchors(4, 4)
    with pytest.raises(SplitError):
        base_to_novel(Adapter.zeros(4), emb, emb, anchors, anchors)


# ---------------------------------------------------------------------------
# group metrics


def test_group_metrics_reported_row():
    # worst group 78.5, average-group 89.6 -> gap 11.1 at one-decimal rendering
    correct = {0: 785, 1: 890, 2: 954, 3: 955}
    totals = {0: 1000, 1: 1000, 2: 1000, 3: 1000}
    report = group_metrics(correct, totals)
    assert format_pct(report["worst_group"]) == "78.5"
    assert format_pct(report["average"]) == "89.6"
    assert format_pct(report["gap"]) == "11.1"


def test_group_metrics_equal_groups():
    report = group_metrics({0: 3, 1: 3}, {0: 4, 1: 4})
    assert report["gap"] == 0.0
    assert report["worst_group"] == report["average"] == 0.75


def test_group_metrics_two_extremes():
    report = group_metrics({0: 5, 1: 0}, {0: 5, 1: 5})
    assert report["worst_group"] == 0.0
    assert report["average"] == 0.5
    assert report["gap"] == 0.5


def test_group_metrics_gap_nonnegative(rng):
    for _ in range(30):
        n = int(rng.integers(1, 6))
        totals = {g: int(rng.integers(1, 50)) for g in range(n)}
        correct = {g: int(rng.integers(0, totals[g] + 1)) for g in range(n)}
        report = group_metrics(correct, totals)
        assert report["gap"] >= 0.0
        assert report["worst_group"] == min(report["per_group_accuracy"].values())


def test_group_accuracy_report_on_spurious_data():
    source, _ = generate_synthetic(SyntheticConfig(
        num_classes=4, dim=8, samples_per_class_per_modality=32,
        cluster_spread=0.3, cross_modal_noise=0.3,
        group_spurious_strength=0.6, majority_fraction=0.85, seed=9))
    anchors = build_static_text_anchors(source)
    report = group_accuracy_report(Adapter.zeros(8), source, anchors)
    assert 0.0 <= report["worst_group"] <= report["average"] <= 1.0
    assert set(report["per_group_accuracy"]) <= {str(c * 2 + g) for c in range(4) for g in (0, 1)}


def test_group_accuracy_report_refuses_group_ids_above_one():
    # class 0 in groups 0 and 2, class 1 in groups 0 and 1: the key
    # class_id * 2 + group_id would merge class 0/group 2 into class 1/group 0
    vectors = np.concatenate([np.eye(4)[[0, 0, 1, 1]], np.eye(4)[[0, 1]]])
    emb = toy_embedding_set(vectors, [0, 0, 1, 1, 0, 1], [0, 0, 0, 0, 1, 1],
                            group_ids=np.array([0, 2, 0, 1, 0, 0]))
    anchors = orthonormal_anchors(2, 4)
    with pytest.raises(EvalError, match=r"^image record 1 of the evaluated set \(class_000\) "
                                        r"has group id 2; group ids must be 0 or 1$"):
        group_accuracy_report(Adapter.zeros(4), emb, anchors)


# ---------------------------------------------------------------------------
# OOD suite


def test_ood_report_published_row():
    report = ood_report(0.712, [0.641, 0.490, 0.507, 0.767])
    assert format_pct(report["target_average"]) == "60.1"


def test_ood_single_target():
    report = ood_report(0.5, [0.4321])
    assert report["target_average"] == 0.4321


def test_ood_suite_zero_shift_close_accuracies():
    source, target = generate_synthetic(SyntheticConfig(
        num_classes=4, dim=8, samples_per_class_per_modality=32,
        cluster_spread=0.2, cross_modal_noise=0.2,
        domain_shift_magnitude=0.0, seed=12))
    anchors = build_static_text_anchors(source)
    report = ood_suite(Adapter.zeros(8), source, [target], anchors)
    assert abs(report["source_accuracy"] - report["target_accuracies"][0]) < 0.02


def test_ood_suite_average_matches_mean_oracle(rng):
    source, target = generate_synthetic(SyntheticConfig(
        num_classes=3, dim=6, samples_per_class_per_modality=8,
        cluster_spread=0.2, cross_modal_noise=0.2, seed=3))
    anchors = build_static_text_anchors(source)
    report = ood_suite(Adapter.zeros(6), source, [target, target], anchors)
    naive = sum(report["target_accuracies"]) / len(report["target_accuracies"])
    assert abs(report["target_average"] - naive) < 1e-12


def test_ood_suite_vocabulary_mismatch():
    source, _ = generate_synthetic(SyntheticConfig(
        num_classes=3, dim=6, samples_per_class_per_modality=4,
        cluster_spread=0.2, cross_modal_noise=0.2, seed=3))
    other, _ = generate_synthetic(SyntheticConfig(
        num_classes=4, dim=6, samples_per_class_per_modality=4,
        cluster_spread=0.2, cross_modal_noise=0.2, seed=3))
    anchors = build_static_text_anchors(source)
    with pytest.raises(EvalError):
        ood_suite(Adapter.zeros(6), source, [other], anchors)


# ---------------------------------------------------------------------------
# confusion


def test_confusion_perfect_diagonal():
    emb = separable_set()
    counts = confusion(Adapter.zeros(4), emb, orthonormal_anchors(4, 4))
    np.testing.assert_array_equal(counts, np.eye(4, dtype=np.int64))


def test_confusion_trace_equals_accuracy(rng):
    source, _ = generate_synthetic(SyntheticConfig(
        num_classes=5, dim=8, samples_per_class_per_modality=16,
        cluster_spread=0.4, cross_modal_noise=0.4, seed=4))
    anchors = build_static_text_anchors(source)
    adapter = Adapter.zeros(8)
    counts = confusion(adapter, source, anchors)
    assert np.trace(counts) / counts.sum() == accuracy(adapter, source, anchors)
    img_count = int(source.modality_mask(Modality.IMAGE).sum())
    assert counts.sum() == img_count
    np.testing.assert_array_equal(
        counts.sum(axis=1),
        np.bincount(source.class_ids[source.modality_mask(Modality.IMAGE)], minlength=5))


def test_confusion_anchor_swap_swaps_columns():
    source, _ = generate_synthetic(SyntheticConfig(
        num_classes=4, dim=8, samples_per_class_per_modality=16,
        cluster_spread=0.4, cross_modal_noise=0.4, seed=6))
    anchors = build_static_text_anchors(source)
    adapter = Adapter.zeros(8)
    base = confusion(adapter, source, anchors)
    swapped_anchors = build_static_text_anchors(source)
    swapped_anchors.vectors = swapped_anchors.vectors[[1, 0, 2, 3]]
    swapped = confusion(adapter, source, swapped_anchors)
    np.testing.assert_array_equal(swapped[:, [1, 0, 2, 3]], base)


def test_confusion_csv_shape():
    emb = separable_set()
    anchors = orthonormal_anchors(4, 4)
    counts = confusion(Adapter.zeros(4), emb, anchors)
    lines = confusion_csv(counts, anchors.class_names).strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("true\\predicted")


def test_format_pct():
    assert format_pct(0.785) == "78.5"
    assert format_pct(1.0) == "100.0"
    assert format_pct(0.0) == "0.0"
