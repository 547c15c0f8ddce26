"""The four benchmark workloads: inputs made from a seed, one timed operation,
and the checks of each operation's outputs.

Every workload is a closed loop with one client: the loop in ``run.py``
starts an operation only when the previous one has finished. Outputs are
pinned at the default seed and full scale; at any other seed or scale the
checks are invariants (finite, in range, deterministic, exact round trips).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from clock import SpeedLog, Stopwatch

# Library functions are called through their modules, so that the traced
# run's wrappers see these calls too.
from craft import anchors, cli, dataio, experiments
from craft.evaluation import format_pct
from craft.losses import Mode

DEFAULT_SEED = 7  # the seed of the bundled reference.json
CHILD_TIMEOUT_S = 120


@dataclasses.dataclass
class Metric:
    """One end-to-end figure as the workload reports it, with its sample count."""

    value: float
    unit: str
    n: int


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def stages_total(parts: list[dict]) -> float:
    """Sum over an operation's stages of each stage's median time: the time of
    one operation, with a noisy stage in one operation filtered out."""
    if not parts:
        return 0.0
    return sum(median([p["stages"][stage] for p in parts]) for stage in parts[0]["stages"])


def override(cfg, *, kind=None, seed=None, synthetic=None, train=None):
    """A copy of a run config with some fields replaced."""
    if synthetic:
        cfg = dataclasses.replace(cfg, synthetic=dataclasses.replace(cfg.synthetic, **synthetic))
    if train:
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, **train))
    if kind:
        cfg = dataclasses.replace(cfg, kind=kind)
    if seed is not None:
        cfg = dataclasses.replace(
            cfg, seed=seed, synthetic=dataclasses.replace(cfg.synthetic, seed=seed),
            train=dataclasses.replace(cfg.train, seed=seed))
    return cfg


def _finite_in(value, low: float, high: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and low <= value <= high


class Workload:
    """Set-up, one operation and its checks; subclasses fill these in."""

    name = ""
    probes = 0  # untimed operations run once after the loop

    def __init__(self, seed: int, scale: str, workdir: Path, in_process: bool,
                 speed_log: SpeedLog) -> None:
        self.seed = seed
        self.speed_log = speed_log
        self.scale = scale
        self.workdir = workdir
        self.in_process = in_process
        self.pinned = seed == DEFAULT_SEED and scale == "full"
        self.checks_run = 0

    def build_inputs(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        pass

    def op(self, index: int) -> tuple[dict, object]:
        """Run one operation; returns its parts, whose "stages" entry maps
        each stage to its wall seconds (a ``Stopwatch``'s), and the outputs
        to check."""
        raise NotImplementedError

    def check(self, index: int, outputs) -> list[str]:
        raise NotImplementedError

    def probe(self) -> tuple[dict[str, Metric], list[str], list[str]]:
        """Untimed operations run once after the loop: their metrics, the
        errors they raised and the reasons their outputs were wrong."""
        return {}, [], []

    def summarize(self, parts: list[dict]) -> dict[str, Metric]:
        raise NotImplementedError

    def expect(self, failures: list[str], ok: bool, reason: str) -> None:
        self.checks_run += 1
        if not ok:
            failures.append(reason)


# ---------------------------------------------------------------------------
# desk-tables: the nine protocol runs behind the reference ablation tables.

# Table cells at the default seed, as the reference tables print them.
DESK_PINS = {
    "base-to-novel/baseline CE": ("64.5", "67.4"),
    "base-to-novel/static only": ("66.0", "71.1"),
    "base-to-novel/stochastic only": ("67.2", "70.8"),
    "base-to-novel/aligned (both)": ("69.5", "70.6"),
    "group-robustness/baseline CE": ("70.0", "82.7", "12.7"),
    "group-robustness/aligned": ("70.0", "84.2", "14.2"),
    "ood/baseline CE": ("56.1", "23.0", "0.04417"),
    "ood/aligned": ("58.4", "23.6", "0.04208"),
    "ood/aligned + mmd": ("56.1", "23.8", "0.01569"),
}
DESK_FROZEN_MMD2 = "0.04689"


def desk_runs(seed: int, scale: str) -> list[tuple[str, object]]:
    """The nine (row, config) pairs of the reference ablation tables."""
    cfg = override(experiments.reference_config(), seed=seed)
    if scale == "tiny":
        cfg = override(cfg, train=dict(epochs=1))
    group = override(cfg, kind="group-robustness",
                     synthetic=dict(num_classes=2, samples_per_class_per_modality=160,
                                    cluster_spread=0.5, group_spurious_strength=0.8,
                                    majority_fraction=0.9),
                     train=dict(shots=64))
    ood = override(cfg, kind="ood", synthetic=dict(domain_shift_magnitude=1.0))
    return [
        ("base-to-novel/baseline CE", override(cfg, train=dict(mode=Mode.BASELINE_CE))),
        ("base-to-novel/static only",
         override(cfg, train=dict(mode=Mode.ALIGNED, w_stochastic=0.0))),
        ("base-to-novel/stochastic only",
         override(cfg, train=dict(mode=Mode.ALIGNED, w_static=0.0))),
        ("base-to-novel/aligned (both)", override(cfg, train=dict(mode=Mode.ALIGNED))),
        ("group-robustness/baseline CE", override(group, train=dict(mode=Mode.BASELINE_CE))),
        ("group-robustness/aligned", override(group, train=dict(mode=Mode.ALIGNED))),
        ("ood/baseline CE", override(ood, train=dict(mode=Mode.BASELINE_CE))),
        ("ood/aligned", override(ood, train=dict(mode=Mode.ALIGNED))),
        ("ood/aligned + mmd", override(ood, train=dict(mode=Mode.ALIGNED_MMD))),
    ]


def table_cells(report: dict) -> tuple[str, ...]:
    if "base_accuracy" in report:
        return format_pct(report["base_accuracy"]), format_pct(report["novel_accuracy"])
    if "group" in report:
        g = report["group"]
        return format_pct(g["worst_group"]), format_pct(g["average"]), format_pct(g["gap"])
    return (format_pct(report["ood"]["source_accuracy"]),
            format_pct(report["ood"]["target_average"]),
            f"{report['domain_mmd2']['adapted_mmd2']:.5f}")


def _image_records(emb_set) -> int:
    return int(emb_set.image_vectors().shape[0])


class DeskTables(Workload):
    """One operation is a full pass of the nine runs, each run staged as
    generate -> prepare -> train_prepared -> evaluate_prepared, which is
    exactly what ``experiments.run_experiment`` does."""

    name = "desk-tables"

    def build_inputs(self) -> None:
        self.runs = desk_runs(self.seed, self.scale)
        self.first: list | None = None

    def warmup(self) -> None:
        for _, cfg in self.runs:
            self._run(override(cfg, train=dict(epochs=1)))

    @staticmethod
    def _run(cfg, watch: Stopwatch | None = None, row: str = "") -> tuple[dict, dict]:
        lap = (lambda stage: watch.lap(f"{row}: {stage}")) if watch else (lambda stage: 0.0)
        source, target = dataio.generate_synthetic(cfg.synthetic)
        prepared = experiments.prepare(cfg, source, target)
        lap("prep_s")
        adapter, history = experiments.train_prepared(cfg, prepared)
        train_s = lap("train_s")
        report = experiments.evaluate_prepared(cfg, prepared, adapter)
        eval_s = lap("eval_s")
        report["final_train_accuracy"] = history.records[-1].train_accuracy
        return report, {
            "train_s": train_s, "eval_s": eval_s,
            "train_samples": cfg.train.epochs * _image_records(prepared.train_set),
            "eval_records": sum(_image_records(s) for s in prepared.eval_sets.values()),
        }

    def op(self, index: int) -> tuple[dict, object]:
        reports, watch = [], Stopwatch(self.speed_log)
        totals = {"train_s": 0.0, "eval_s": 0.0, "train_samples": 0, "eval_records": 0}
        for row, cfg in self.runs:
            report, parts = self._run(cfg, watch, row)
            reports.append(report)
            for key in totals:
                totals[key] += parts[key]
        return {"stages": watch.wall, **totals}, reports

    def check(self, index: int, outputs) -> list[str]:
        failures: list[str] = []
        for (row, _), report in zip(self.runs, outputs):
            values = [report["final_train_accuracy"]]
            if "base_accuracy" in report:
                values += [report["base_accuracy"], report["novel_accuracy"]]
            elif "group" in report:
                values += [report["group"]["worst_group"], report["group"]["average"],
                           *report["group"]["per_group_accuracy"].values()]
            else:
                values += [report["ood"]["source_accuracy"], report["ood"]["target_average"]]
                mmd = report["domain_mmd2"]
                self.expect(failures, _finite_in(mmd["bandwidth"], 1e-300, math.inf),
                            f"{row}: bandwidth {mmd['bandwidth']} is not finite and > 0")
                for key in ("frozen_mmd2", "adapted_mmd2"):
                    self.expect(failures, _finite_in(mmd[key], -1e-12, 2.0),
                                f"{row}: {key} {mmd[key]} outside [0, 2]")
            self.expect(failures, all(_finite_in(v, 0.0, 1.0) for v in values),
                        f"{row}: an accuracy is outside [0, 1]: {values}")
            if self.pinned:
                cells = table_cells(report)
                self.expect(failures, cells == DESK_PINS[row],
                            f"{row}: table cells {cells} != pinned {DESK_PINS[row]}")
        if self.pinned:
            frozen = f"{outputs[-1]['domain_mmd2']['frozen_mmd2']:.5f}"
            self.expect(failures, frozen == DESK_FROZEN_MMD2,
                        f"frozen-encoder MMD^2 {frozen} != pinned {DESK_FROZEN_MMD2}")
        if self.first is None:
            self.first = outputs
        self.expect(failures, outputs == self.first,
                    f"pass {index} reports differ from the first pass (not deterministic)")
        return failures

    def summarize(self, parts: list[dict]) -> dict[str, Metric]:
        n = len(parts)
        return {
            "tables_s": Metric(stages_total(parts), "s", n),
            "train_samples_per_s": Metric(
                median([p["train_samples"] / p["train_s"] for p in parts]), "samples/s", n),
            "eval_records_per_s": Metric(
                median([p["eval_records"] / p["eval_s"] for p in parts]), "records/s", n),
        }


# ---------------------------------------------------------------------------
# clip-ood-mmd: the clip scale, one training epoch per operation.

CLIP_PINNED_TRAIN_ACCURACY = 0.04


class ClipOodMmd(Workload):
    """K=100, H=512, 20 samples/class/modality, ood (shift 1.0), aligned-mmd,
    batch 128. One operation is ``train_prepared`` for one epoch; the
    evaluation of the trained adapter is attempted once, after the loop."""

    name = "clip-ood-mmd"
    probes = 1

    def build_inputs(self) -> None:
        tiny = self.scale == "tiny"
        self.cfg = override(
            experiments.reference_config(), kind="ood", seed=self.seed,
            synthetic=dict(num_classes=10 if tiny else 100, dim=32 if tiny else 512,
                           samples_per_class_per_modality=20, domain_shift_magnitude=1.0),
            train=dict(mode=Mode.ALIGNED_MMD, batch_size=128, epochs=1))
        source, target = dataio.generate_synthetic(self.cfg.synthetic)
        self.prepared = experiments.prepare(self.cfg, source, target)
        self.samples = self.cfg.train.epochs * _image_records(self.prepared.train_set)
        self.first = None
        self.adapter = None

    def warmup(self) -> None:
        experiments.train_prepared(self.cfg, self.prepared)

    def op(self, index: int) -> tuple[dict, object]:
        watch = Stopwatch(self.speed_log)
        self.adapter, history = experiments.train_prepared(self.cfg, self.prepared)
        watch.lap("train_s")
        return ({"stages": watch.wall},
                [r.to_dict() for r in history.records])

    def check(self, index: int, outputs) -> list[str]:
        failures: list[str] = []
        final = outputs[-1]
        self.expect(failures, all(math.isfinite(v) for r in outputs for v in r.values()),
                    "training history holds a non-finite value")
        self.expect(failures, _finite_in(final["train_accuracy"], 0.0, 1.0),
                    f"final train accuracy {final['train_accuracy']} outside [0, 1]")
        self.expect(failures, _finite_in(final["mmd_term"], -1e-12, 2.0),
                    f"mmd term {final['mmd_term']} outside [0, 2]")
        if self.pinned:
            self.expect(failures, final["train_accuracy"] == CLIP_PINNED_TRAIN_ACCURACY,
                        f"final train accuracy {final['train_accuracy']} != pinned "
                        f"{CLIP_PINNED_TRAIN_ACCURACY}")
        if self.first is None:
            self.first = outputs
        self.expect(failures, outputs == self.first,
                    f"epoch {index} history differs from the first (not deterministic)")
        return failures

    def probe(self) -> tuple[dict[str, Metric], list[str], list[str]]:
        records = sum(_image_records(s) for s in self.prepared.eval_sets.values())
        t0 = time.perf_counter()
        try:
            report = experiments.evaluate_prepared(self.cfg, self.prepared, self.adapter)
        except MemoryError as exc:
            return ({"eval_records_per_s": Metric(0.0, "records/s", 1)},
                    [f"evaluate_prepared: MemoryError: {exc}"], [])
        elapsed = time.perf_counter() - t0
        failures: list[str] = []
        values = [report["ood"]["source_accuracy"], report["ood"]["target_average"]]
        self.expect(failures, all(_finite_in(v, 0.0, 1.0) for v in values),
                    f"evaluate_prepared: an accuracy is outside [0, 1]: {values}")
        self.expect(failures, _finite_in(report["domain_mmd2"]["adapted_mmd2"], -1e-12, 2.0),
                    "evaluate_prepared: adapted MMD^2 outside [0, 2]")
        return {"eval_records_per_s": Metric(records / elapsed, "records/s", 1)}, [], failures

    def summarize(self, parts: list[dict]) -> dict[str, Metric]:
        return {"train_samples_per_s": Metric(self.samples / stages_total(parts), "samples/s",
                                              len(parts))}


# ---------------------------------------------------------------------------
# cli-two-sample: craft gen -> craft anchors -> craft mmd, one child process each.

N_PERMS = 100  # the fewest craft mmd accepts
CLI_PINNED_MMD = {"bandwidth": 0.9735494171112179, "mmd2_biased": 0.030577049619991303,
                  "mmd2_unbiased": 0.028973791135047278, "n_perms": N_PERMS,
                  "p_value": 1 / (1 + N_PERMS)}


class CliTwoSample(Workload):
    """The on-disk CLI at desk scale on ``ood`` data. One operation runs the
    three commands one after another, each as a child process (in-process
    through ``craft.cli.main`` in the traced run, so the spans see them)."""

    name = "cli-two-sample"

    def build_inputs(self) -> None:
        doc = json.loads((Path(cli.__file__).parent / "reference.json").read_text())
        doc["kind"] = "ood"
        doc["synthetic"]["domain_shift_magnitude"] = 1.0
        if self.scale == "tiny":
            doc["synthetic"]["samples_per_class_per_modality"] = 12
        self.dir = self.workdir / f"cli-s{self.seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(doc, indent=2))
        src = Path(cli.__file__).resolve().parent.parent
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.first = None

    def _commands(self) -> list[tuple[str, list[str]]]:
        d, seed = self.dir, str(self.seed)
        return [
            ("gen_s", ["gen", "--config", str(self.config), "--out", str(d), "--seed", seed]),
            ("anchors_s", ["anchors", "--data", str(d / "source.cemb"),
                           "--out", str(d / "anchors.cemb"), "--seed", seed]),
            ("mmd_s", ["mmd", "--a", str(d / "source.cemb"), "--b", str(d / "target.cemb"),
                       "--anchors", str(d / "anchors.cemb"), "--n-perms", str(N_PERMS),
                       "--seed", seed]),
        ]

    def _craft(self, argv: list[str]) -> tuple[int, str, str]:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        done = subprocess.run([sys.executable, "-m", "craft", *argv], env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        return done.returncode, done.stdout, done.stderr

    def warmup(self) -> None:
        for _, argv in self._commands():
            self._craft(argv)

    def op(self, index: int) -> tuple[dict, object]:
        watch, outputs = Stopwatch(self.speed_log), {}
        for key, argv in self._commands():
            code, out, err = self._craft(argv)
            watch.lap(key)
            if code != 0:
                raise RuntimeError(f"craft {argv[0]} exited {code}: {err.strip()[-300:]}")
            outputs[argv[0]] = json.loads(out.strip().splitlines()[-1])
        outputs["files"] = {name: hashlib.sha256((self.dir / name).read_bytes()).hexdigest()
                            for name in ("source.cemb", "target.cemb", "anchors.cemb")}
        return {"stages": watch.wall}, outputs

    def check(self, index: int, outputs) -> list[str]:
        failures: list[str] = []
        result = outputs["mmd"]
        self.expect(failures, _finite_in(result["bandwidth"], 1e-300, math.inf),
                    f"bandwidth {result['bandwidth']} is not finite and > 0")
        self.expect(failures, _finite_in(result["mmd2_biased"], -1e-12, 2.0),
                    f"biased MMD^2 {result['mmd2_biased']} outside [0, 2]")
        self.expect(failures, _finite_in(result["mmd2_unbiased"], -2.0, 2.0),
                    f"unbiased MMD^2 {result['mmd2_unbiased']} outside [-2, 2]")
        self.expect(failures, _finite_in(result["p_value"], 1 / (1 + N_PERMS), 1.0)
                    and result["n_perms"] == N_PERMS,
                    f"p-value {result['p_value']} or n_perms {result['n_perms']} out of range")
        self.expect(failures, outputs["anchors"]["classes"] == outputs["gen"]["num_classes"],
                    "anchor file class count differs from the generated set")
        if self.pinned:
            for key, pin in CLI_PINNED_MMD.items():
                self.expect(failures, math.isclose(result[key], pin, rel_tol=1e-9, abs_tol=0.0),
                            f"craft mmd {key} {result[key]} != pinned {pin}")
        if self.first is None:
            self.first = outputs
        self.expect(failures, outputs == self.first,
                    f"run {index}: files or craft mmd JSON differ from the first run")
        return failures

    def summarize(self, parts: list[dict]) -> dict[str, Metric]:
        n = len(parts)
        return {
            "mmd_test_s": Metric(median([p["stages"]["mmd_s"] for p in parts]), "s", n),
            "cli_prep_s": Metric(median([p["stages"]["gen_s"] for p in parts])
                                 + median([p["stages"]["anchors_s"] for p in parts]), "s", n),
        }


# ---------------------------------------------------------------------------
# bulk-ingest: CEMB write/read and multi-centroid anchors over 50,000 records.

BULK_CENTROIDS = 4


class BulkIngest(Workload):
    """50,000 records x 512 dims (K=100, 250 samples/class/modality). One
    operation is write_embeddings -> read_embeddings ->
    build_training_anchors(4 centroids/class) -> write_anchors -> read_anchors."""

    name = "bulk-ingest"

    def build_inputs(self) -> None:
        tiny = self.scale == "tiny"
        cfg = override(experiments.reference_config(), seed=self.seed,
                       synthetic=dict(num_classes=10 if tiny else 100, dim=32 if tiny else 512,
                                      samples_per_class_per_modality=20 if tiny else 250))
        self.records, _ = dataio.generate_synthetic(cfg.synthetic)
        self.dir = self.workdir / f"bulk-s{self.seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.first = None

    def op(self, index: int) -> tuple[dict, object]:
        cemb, anchor_file = self.dir / "records.cemb", self.dir / "anchors.cemb"
        watch = Stopwatch(self.speed_log)
        dataio.write_embeddings(self.records, cemb)
        watch.lap("write_s")
        loaded = dataio.read_embeddings(cemb)
        watch.lap("read_s")
        text, image = experiments.build_training_anchors(loaded, self.seed,
                                                         centroids_per_class=BULK_CENTROIDS)
        watch.lap("anchors_s")
        anchors.write_anchors(anchor_file, text, image)
        text_read, image_read = anchors.read_anchors(anchor_file)
        watch.lap("anchor_io_s")
        parts = {"stages": watch.wall,
                 "mb": cemb.stat().st_size / 1e6}
        return parts, (loaded, cemb.stat().st_size, text, image, text_read, image_read)

    def check(self, index: int, outputs) -> list[str]:
        failures: list[str] = []
        loaded, size, text, image, text_read, image_read = outputs
        rec = self.records
        self.expect(failures, np.array_equal(loaded.vectors,
                                             rec.vectors.astype(np.float32).astype(np.float64)),
                    "read vectors are not the float32 rounding of the written ones")
        for field in ("class_ids", "modalities", "domains", "group_ids"):
            self.expect(failures, np.array_equal(getattr(loaded, field), getattr(rec, field)),
                        f"{field} changed in the CEMB round trip")
        self.expect(failures, loaded.class_names == rec.class_names,
                    "class names changed in the CEMB round trip")
        header = 20 + sum(2 + len(n.encode("utf-8")) for n in rec.class_names)
        expected = header + len(rec) * (8 + 4 * rec.dim)
        self.expect(failures, size == expected, f"CEMB file is {size} bytes, expected {expected}")
        shape = (rec.num_classes, rec.dim)
        for label, anchor_set in (("text", text), ("image", image),
                                  ("read text", text_read), ("read image", image_read)):
            vectors = anchor_set.vectors
            self.expect(failures, vectors.shape == shape,
                        f"{label} anchors have shape {vectors.shape}, expected {shape}")
            self.expect(failures, bool(np.all(np.isfinite(vectors)))
                        and np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-9),
                        f"{label} anchors are not finite unit vectors")
        for label, written, read in (("text", text, text_read), ("image", image, image_read)):
            self.expect(failures, np.allclose(written.vectors, read.vectors, atol=1e-6),
                        f"{label} anchors changed in the anchor-file round trip")
        built = (text.vectors, image.vectors)
        if self.first is None:
            self.first = built
        self.expect(failures, all(np.array_equal(a, b) for a, b in zip(built, self.first)),
                    f"cycle {index}: anchors differ from the first cycle (not deterministic)")
        return failures

    def summarize(self, parts: list[dict]) -> dict[str, Metric]:
        n = len(parts)
        return {
            "cemb_write_mb_per_s": Metric(
                median([p["mb"] / p["stages"]["write_s"] for p in parts]), "MB/s", n),
            "cemb_read_mb_per_s": Metric(
                median([p["mb"] / p["stages"]["read_s"] for p in parts]), "MB/s", n),
            "anchors_s": Metric(median([p["stages"]["anchors_s"] for p in parts]), "s", n),
        }


WORKLOADS = {w.name: w for w in (DeskTables, ClipOodMmd, CliTwoSample, BulkIngest)}
