"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its runtime (run with ``pytest -s`` to see them inline).

Reference-benchmark expectations (criteria 6 and 7) are frozen values from
the pinned-seed run of the bundled reference config.
"""

import dataclasses
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from craft.adapter import Adapter, read_checkpoint, write_checkpoint
from craft.anchors import kmeans
from craft.config import Mode, override
from craft.core import l2_normalize, make_rng
from craft.dataio import SyntheticConfig, generate_synthetic, read_embeddings, write_embeddings
from craft.evaluation import format_pct, group_metrics, ood_report
from craft.experiments import reference_config, run_experiment
from craft.losses import LossBatch
from craft.mmd import median_heuristic, mmd2_biased, mmd2_unbiased, permutation_test

from conftest import random_anchors, unit_rows
from test_losses import (anchor_ce, baseline_and_static_only, engine, finite_difference,
                         fixed_bandwidth, random_case)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s (budget {budget_seconds}s)"
    print(f"ACCEPTANCE {number:02d} PASS  ({elapsed:.1f}s)  {description}")


def test_criterion_01_subsumption_identity():
    with criterion(1, "text cross-entropy subsumed by the static aligned loss", 5):
        rng = make_rng(101)
        from craft.dataio import Modality
        for _ in range(50):
            h = int(rng.integers(3, 10))
            b = int(rng.integers(2, 8))
            k = int(rng.integers(2, 6))
            img, txt = unit_rows(rng, b, h), unit_rows(rng, b, h)
            labels = rng.integers(0, k, b)
            ta = random_anchors(rng, k, h)
            ia = random_anchors(rng, k, h, Modality.IMAGE)
            tau = float(rng.uniform(0.5, 30))
            adapter = Adapter(0.1 * rng.standard_normal(2 * (h * h + h)))
            batch = LossBatch(img, txt, labels)
            (r_ce, g_ce), (r_st, g_st) = baseline_and_static_only(adapter, batch, ta, ia, tau)
            img_half = anchor_ce(adapter.encode_image(img), labels, ta, tau)
            txt_half = anchor_ce(adapter.encode_text(txt), labels, ia, tau)
            assert abs(r_ce.total - img_half) <= 1e-12
            assert abs(r_st.static_term - (r_ce.static_term + txt_half)) <= 1e-12
            g_ce, g_st = Adapter(g_ce), Adapter(g_st)
            assert np.max(np.abs(g_ce.w_img - g_st.w_img)) <= 1e-12
            assert np.max(np.abs(g_ce.b_img - g_st.b_img)) <= 1e-12
            assert np.max(np.abs(g_ce.w_txt)) == 0.0


def test_criterion_02_gradient_correctness():
    with criterion(2, "analytic gradients match central finite differences", 60):
        rng = make_rng(202)
        modes = list(Mode)
        worst = 0.0
        for i in range(100):
            adapter, batch, ta, ia, cfg, sigma = random_case(rng, modes[i % len(modes)])
            with fixed_bandwidth(sigma):
                _, grad = engine(adapter, batch, ta, ia, cfg)
                fd = finite_difference(adapter, batch, ta, ia, cfg, step=1e-5)
            rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-8)
            worst = max(worst, rel)
        assert worst < 1e-4, f"worst relative error {worst:.3e}"


def test_criterion_03_mmd_estimator_suite():
    with criterion(3, "MMD estimator identities and two-sample power", 180):
        rng = make_rng(303)
        sigma = 1.0
        for _ in range(100):
            x = rng.standard_normal((int(rng.integers(1, 20)), int(rng.integers(1, 6))))
            y = rng.standard_normal((int(rng.integers(1, 20)), x.shape[1]))
            assert abs(mmd2_biased(x, x, sigma)) <= 1e-12
            assert mmd2_biased(x, y, sigma) == mmd2_biased(y, x, sigma)

        x = np.zeros((1, 4))
        y = np.zeros((1, 4))
        y[0, 0] = 1.0
        assert mmd2_biased(x, y, sigma) == pytest.approx(2.0 - 2.0 * math.exp(-0.5), abs=1e-9)

        values = [mmd2_unbiased(make_rng(seed, 31).standard_normal((25, 3)),
                                make_rng(seed, 32).standard_normal((25, 3)), sigma)
                  for seed in range(200)]
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
        assert abs(mean) <= 3 * se, f"unbiased mean {mean:.2e} vs 3*SE {3 * se:.2e}"

        null_accepts = 0
        for seed in range(100):
            r = make_rng(seed, 45)
            x, y = r.standard_normal((50, 3)), r.standard_normal((50, 3))
            k = median_heuristic(np.concatenate([x, y]))
            null_accepts += permutation_test(x, y, k, 200, make_rng(seed, 46)) > 0.05
        assert null_accepts >= 95, f"null acceptance {null_accepts}/100"

        separated_rejects = 0
        for seed in range(100):
            r = make_rng(seed, 35)
            x = r.standard_normal((50, 3))
            y = r.standard_normal((50, 3)) + np.array([10.0, 0.0, 0.0])
            k = median_heuristic(np.concatenate([x, y]))
            separated_rejects += permutation_test(x, y, k, 200, make_rng(seed, 36)) <= 0.01
        assert separated_rejects >= 99, f"separated rejection {separated_rejects}/100"


def test_criterion_04_similarity_contraction_bound():
    with criterion(4, "unit-anchor similarity differences bounded by feature distance", 5):
        rng = make_rng(404)
        n = 100_000
        dim = 8
        u = rng.standard_normal((n, dim))
        v = rng.standard_normal((n, dim))
        a = l2_normalize(rng.standard_normal((n, dim)))
        lhs = np.abs(np.sum(a * u, axis=1) - np.sum(a * v, axis=1))
        rhs = np.linalg.norm(u - v, axis=1)
        violations = int(np.sum(lhs > rhs + 1e-12))
        assert violations == 0, f"{violations} violations"


def test_criterion_05_reported_table_arithmetic():
    with criterion(5, "group and OOD report arithmetic reproduces published rows", 1):
        report = group_metrics({0: 785, 1: 890, 2: 954, 3: 955},
                               {0: 1000, 1: 1000, 2: 1000, 3: 1000})
        assert format_pct(report["worst_group"]) == "78.5"
        assert format_pct(report["average"]) == "89.6"
        assert format_pct(report["gap"]) == "11.1"

        ood = ood_report(0.712, [0.641, 0.490, 0.507, 0.767])
        assert format_pct(ood["target_average"]) == "60.1"


# Frozen pinned-seed results of the bundled reference benchmark.
REFERENCE_BASE_TO_NOVEL = {
    "baseline": {"base_accuracy": 0.64453125, "novel_accuracy": 0.6744791666666666},
    "static-only": {"base_accuracy": 0.66015625, "novel_accuracy": 0.7109375},
    "stochastic-only": {"base_accuracy": 0.671875, "novel_accuracy": 0.7083333333333334},
    "aligned": {"base_accuracy": 0.6953125, "novel_accuracy": 0.7057291666666666},
}
REFERENCE_OOD = {
    "aligned": {"target_average": 0.23567708333333334, "adapted_mmd2": 0.04207973527938613},
    "aligned-mmd": {"target_average": 0.23828125, "adapted_mmd2": 0.015689641747673067},
}


def test_criterion_06_base_to_novel_ablation():
    with criterion(6, "aligned losses beat baseline CE on novel classes (pinned seed)", 120):
        cfg = reference_config()
        runs = {
            "baseline": (Mode.BASELINE_CE, {}),
            "static-only": (Mode.ALIGNED, {"w_stochastic": 0.0}),
            "stochastic-only": (Mode.ALIGNED, {"w_static": 0.0}),
            "aligned": (Mode.ALIGNED, {}),
        }
        got = {}
        for tag, (mode, weights) in runs.items():
            c = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, mode=mode, **weights))
            got[tag] = run_experiment(c)["report"]
        baseline_novel = got["baseline"]["novel_accuracy"]
        assert got["aligned"]["novel_accuracy"] >= baseline_novel + 0.02
        assert got["static-only"]["novel_accuracy"] > baseline_novel
        assert got["stochastic-only"]["novel_accuracy"] > baseline_novel
        for tag, expected in REFERENCE_BASE_TO_NOVEL.items():
            for key, value in expected.items():
                assert got[tag][key] == pytest.approx(value, rel=1e-6), (tag, key)


def test_criterion_07_ood_ablation():
    with criterion(7, "MMD matching halves domain MMD^2 without losing target accuracy", 120):
        cfg = reference_config()
        ood_cfg = dataclasses.replace(
            cfg, kind="ood",
            synthetic=dataclasses.replace(cfg.synthetic, domain_shift_magnitude=1.0))
        got = {}
        for mode in (Mode.ALIGNED, Mode.ALIGNED_MMD):
            report = run_experiment(override(ood_cfg, train={"mode": mode}))["report"]
            got[mode.value] = {"target_average": report["ood"]["target_average"],
                               "adapted_mmd2": report["domain_mmd2"]["adapted_mmd2"]}
        assert got["aligned-mmd"]["adapted_mmd2"] <= 0.5 * got["aligned"]["adapted_mmd2"]
        assert got["aligned-mmd"]["target_average"] >= got["aligned"]["target_average"]
        for tag, expected in REFERENCE_OOD.items():
            for key, value in expected.items():
                assert got[tag][key] == pytest.approx(value, rel=1e-6), (tag, key)


def test_criterion_08_end_to_end_determinism(tmp_path):
    with criterion(8, "two full CLI runs produce identical artifacts", 240):
        reference_path = Path(__file__).resolve().parent.parent / "src" / "craft" / "reference.json"
        outputs = []
        for tag in ("one", "two"):
            root = tmp_path / tag
            data = root / "data"
            ckpt = root / "adapter.cadp"
            report = root / "report.json"
            for args in (("gen", "--config", str(reference_path), "--out", str(data)),
                         ("train", "--config", str(reference_path), "--data", str(data),
                          "--out", str(ckpt)),
                         ("eval", "--config", str(reference_path), "--checkpoint", str(ckpt),
                          "--data", str(data), "--out", str(report))):
                result = subprocess.run([sys.executable, "-m", "craft", *args],
                                        capture_output=True, text=True)
                assert result.returncode == 0, result.stderr
            doc = json.loads(report.read_text())
            doc.pop("timestamp")
            outputs.append((ckpt.read_bytes(),
                            ckpt.with_suffix(".cadp.history.jsonl").read_bytes(),
                            json.dumps(doc, sort_keys=True)))
        assert outputs[0] == outputs[1]


def test_criterion_09_kmeans_objective_and_recovery():
    with criterion(9, "k-means objective monotone; two-blob recovery", 10):
        rng = make_rng(909)
        for trial in range(100):
            points = rng.standard_normal((int(rng.integers(5, 40)), int(rng.integers(2, 6))))
            m = int(rng.integers(1, min(5, points.shape[0]) + 1))
            result = kmeans(points, m, make_rng(trial, 90), max_iter=60)
            assert np.all(np.diff(result.objective_history) <= 1e-9)

        blob_rng = make_rng(910)
        blob_a = np.array([5.0, 0.0]) + 0.1 * blob_rng.standard_normal((50, 2))
        blob_b = np.array([-5.0, 0.0]) + 0.1 * blob_rng.standard_normal((50, 2))
        result = kmeans(np.concatenate([blob_a, blob_b]), 2, make_rng(911))
        got = sorted(map(tuple, result.centroids))
        assert np.linalg.norm(np.array(got[0]) - [-5.0, 0.0]) < 0.1
        assert np.linalg.norm(np.array(got[1]) - [5.0, 0.0]) < 0.1


def test_criterion_10_format_roundtrips(tmp_path):
    with criterion(10, "CEMB and checkpoint files round-trip bitwise", 10):
        rng = make_rng(1010)
        for i in range(20):
            cfg = SyntheticConfig(
                num_classes=int(rng.integers(2, 7)), dim=int(rng.integers(2, 12)),
                samples_per_class_per_modality=int(rng.integers(1, 9)),
                cluster_spread=float(rng.uniform(0.05, 0.5)),
                cross_modal_noise=float(rng.uniform(0.0, 0.5)),
                domain_shift_magnitude=float(rng.uniform(0.0, 1.0)),
                group_spurious_strength=float(rng.uniform(0.0, 0.9)),
                majority_fraction=float(rng.uniform(0.5, 0.95)),
                seed=int(rng.integers(0, 2**31)))
            emb, _ = generate_synthetic(cfg)
            path = tmp_path / f"set_{i}.cemb"
            write_embeddings(emb, path)
            back = read_embeddings(path)
            assert np.array_equal(back.vectors, emb.vectors.astype(np.float32).astype(np.float64))
            assert np.array_equal(back.class_ids, emb.class_ids)
            assert np.array_equal(back.modalities, emb.modalities)
            assert np.array_equal(back.domains, emb.domains)
            assert np.array_equal(back.group_ids, emb.group_ids)
            assert back.class_names == emb.class_names
            # second write is byte-identical: f32 projection is idempotent
            path2 = tmp_path / f"set_{i}_again.cemb"
            write_embeddings(back, path2)
            assert path.read_bytes() == path2.read_bytes()

            h = int(rng.integers(2, 10))
            adapter = Adapter(rng.standard_normal(2 * (h * h + h)))
            ckpt = tmp_path / f"adapter_{i}.cadp"
            write_checkpoint(adapter, ckpt)
            assert np.array_equal(read_checkpoint(ckpt).params, adapter.params)
