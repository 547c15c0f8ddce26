"""Run configuration (JSON, strictly validated) and the three experiment
protocols wired end to end: data prep, anchors, training, evaluation."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import reprlib
import types
import typing
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .adapter import Adapter
from .anchors import AnchorSet, build_static_image_anchors, build_static_text_anchors
from .core import ConfigError, make_rng
from .dataio import (EmbeddingSet, SyntheticConfig, few_shot_split, generate_synthetic,
                     open_for_reading, split_base_novel)
from .evaluation import base_to_novel, group_accuracy_report, ood_suite
from .losses import Mode
from .mmd import KernelSpec, anchor_align, median_heuristic, mmd2_biased
from .train import TrainConfig, TrainHistory, train

EXPERIMENT_KINDS = ("base-to-novel", "group-robustness", "ood")

# Substream keys deriving the run's independent rng streams from one seed.
_STREAM_FEW_SHOT = 2
_STREAM_ANCHORS = 3


@dataclass
class SplitSpec:
    base_fraction: float = 0.5


@dataclass
class RunConfig:
    kind: str
    seed: int
    synthetic: SyntheticConfig
    train: TrainConfig
    split: SplitSpec

    def validate(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; expected one of {EXPERIMENT_KINDS}")
        self.synthetic.validate()
        self.train.validate()
        if not 0.0 < self.split.base_fraction < 1.0:
            raise ConfigError("split.base_fraction must be in (0, 1)")


_JSON_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
                    type(None): "null"}


def _fits(value, hint) -> bool:
    """Whether the JSON value fits the field annotation ``hint``: an int
    field takes an integer but no boolean, a float field an integer or a
    finite float, and a ``| None`` field null as well."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if hint is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            return False
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, hint)


def _coerce(doc: dict, cls, context: str, defaults: dict) -> object:
    """Build a dataclass from a JSON object, rejecting unknown keys and
    values of the wrong type by name."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config section {context!r} must be an object")
    hints = typing.get_type_hints(cls)  # one per dataclass field
    for key, value in doc.items():
        if key not in hints:
            raise ConfigError(f"unknown config key {context}.{key}")
        if not _fits(value, hints[key]):
            expected = " or ".join(_JSON_TYPE_NAMES[h] for h in typing.get_args(hints[key])
                                   or (hints[key],))
            raise ConfigError(f"config key {context}.{key} must be {expected}, "
                              f"got {reprlib.repr(value)}")
    values = dict(defaults)
    values.update(doc)
    try:
        return cls(**values)
    except TypeError as exc:
        raise ConfigError(f"config section {context!r}: {exc}") from None


def run_config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    allowed = {"kind", "seed", "synthetic", "train", "split"}
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key}")
    for key in ("kind", "seed", "synthetic", "train"):
        if key not in doc:
            raise ConfigError(f"missing config key {key}")
    seed = doc["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("config key seed must be a non-negative integer")

    synthetic = _coerce(doc["synthetic"], SyntheticConfig, "synthetic", {"seed": seed})
    if not isinstance(doc["train"], dict):
        raise ConfigError("config section 'train' must be an object")
    train_doc = dict(doc["train"])
    mode_name = train_doc.pop("mode", Mode.ALIGNED.value)
    try:
        mode = Mode(mode_name)
    except ValueError:
        raise ConfigError(f"unknown config value train.mode={mode_name!r}; "
                          f"expected one of {[m.value for m in Mode]}") from None
    train_cfg = _coerce(train_doc, TrainConfig, "train", {"seed": seed, "mode": mode})
    split = _coerce(doc.get("split", {}), SplitSpec, "split", {})
    cfg = RunConfig(kind=doc["kind"], seed=seed, synthetic=synthetic,
                    train=train_cfg, split=split)
    cfg.validate()
    return cfg


def load_run_config(path: str | Path) -> RunConfig:
    """The validated config of the JSON file at ``path``. A FIFO or pipe is
    read to its end once opened; one that no process writes to reads as
    empty, so as invalid JSON, instead of waiting for a writer."""
    with open_for_reading(path) as f:
        os.set_blocking(f.fileno(), True)
        raw = f.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, an integer of over 4,300 digits, or too deep a nesting
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return run_config_from_dict(doc)


def reference_config() -> RunConfig:
    """The bundled desk-scale benchmark configuration."""
    doc = json.loads(resources.files("craft").joinpath("reference.json").read_text())
    return run_config_from_dict(doc)


def override(cfg: RunConfig, *, kind: str | None = None, seed: int | None = None,
             synthetic: dict | None = None, train: dict | None = None) -> RunConfig:
    """A validated copy of ``cfg`` with fields replaced: ``seed`` replaces
    every seed in the config, ``synthetic`` and ``train`` map field names of
    those sections to new values."""
    if synthetic:
        cfg = dataclasses.replace(cfg, synthetic=dataclasses.replace(cfg.synthetic, **synthetic))
    if train:
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, **train))
    if kind:
        cfg = dataclasses.replace(cfg, kind=kind)
    if seed is not None:
        cfg = dataclasses.replace(
            cfg, seed=seed,
            synthetic=dataclasses.replace(cfg.synthetic, seed=seed),
            train=dataclasses.replace(cfg.train, seed=seed))
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Protocol preparation. Training and evaluation must see the same deterministic
# prep, so both CLI commands route through prepare().


@dataclass
class PreparedExperiment:
    train_set: EmbeddingSet
    train_target: EmbeddingSet | None
    text_anchors: AnchorSet
    image_anchors: AnchorSet
    eval_sets: dict[str, EmbeddingSet]


def build_training_anchors(train_set: EmbeddingSet, seed: int,
                           centroids_per_class: int = 1) -> tuple[AnchorSet, AnchorSet]:
    """Static anchors from the frozen training embeddings (identity encoder)."""
    text_anchors = build_static_text_anchors(train_set)
    image_anchors = build_static_image_anchors(
        train_set, make_rng(seed, _STREAM_ANCHORS), centroids_per_class)
    return text_anchors, image_anchors


def prepare(cfg: RunConfig, source: EmbeddingSet, target: EmbeddingSet | None
            ) -> PreparedExperiment:
    if cfg.kind == "ood" and target is None:
        raise ConfigError("experiment kind 'ood' needs a target set")
    few_shot_rng = make_rng(cfg.seed, _STREAM_FEW_SHOT)
    if cfg.kind == "base-to-novel":
        base, novel = split_base_novel(source, cfg.split.base_fraction)
        train_set, base_heldout = few_shot_split(base, cfg.train.shots, few_shot_rng)
        eval_sets = {"base": base_heldout, "novel": novel}
        train_target = None
    elif cfg.kind == "group-robustness":
        train_set, heldout = few_shot_split(source, cfg.train.shots, few_shot_rng)
        eval_sets = {"heldout": heldout}
        train_target = None
    else:  # ood
        train_set, source_heldout = few_shot_split(source, cfg.train.shots, few_shot_rng)
        eval_sets = {"source": source_heldout, "target": target}
        train_target = target
    text_anchors, image_anchors = build_training_anchors(train_set, cfg.seed)
    return PreparedExperiment(train_set=train_set, train_target=train_target,
                              text_anchors=text_anchors, image_anchors=image_anchors,
                              eval_sets=eval_sets)


def train_prepared(cfg: RunConfig, prepared: PreparedExperiment
                   ) -> tuple[Adapter, TrainHistory]:
    target = prepared.train_target
    if cfg.train.mode is Mode.ALIGNED_MMD and target is None:
        raise ConfigError(f"experiment kind {cfg.kind!r} provides no target set "
                          f"required by mode {cfg.train.mode.value!r}")
    return train(prepared.train_set, target, prepared.text_anchors,
                 prepared.image_anchors, cfg.train)


def _domain_mmd_diagnostics(adapter: Adapter, source_test: EmbeddingSet,
                            target_test: EmbeddingSet, text_anchors: AnchorSet,
                            temperature: float) -> dict:
    """Biased MMD^2 between anchor-aligned source/target image features, under
    the frozen encoder and under the adapter, at one shared bandwidth taken
    from the frozen pooled features (a model-independent measuring stick)."""
    src = source_test.image_vectors()
    tgt = target_test.image_vectors()
    frozen_src = anchor_align(src, text_anchors, temperature)
    frozen_tgt = anchor_align(tgt, text_anchors, temperature)
    kernel = KernelSpec(median_heuristic(np.concatenate([frozen_src, frozen_tgt])))
    adapted_src = anchor_align(adapter.encode_image(src), text_anchors, temperature)
    adapted_tgt = anchor_align(adapter.encode_image(tgt), text_anchors, temperature)
    return {
        "bandwidth": kernel.bandwidth,
        "frozen_mmd2": mmd2_biased(frozen_src, frozen_tgt, kernel),
        "adapted_mmd2": mmd2_biased(adapted_src, adapted_tgt, kernel),
    }


def eval_text_anchors(cfg: RunConfig, prepared: PreparedExperiment, adapter: Adapter
                      ) -> dict[str, AnchorSet]:
    """The text anchors that score each eval set, by name. Base-to-novel:
    each split's own frozen text records through the trained text adapter,
    so novel classes get anchors. Other kinds: the training text anchors."""
    if cfg.kind == "base-to-novel":
        return {name: build_static_text_anchors(emb_set, adapter.encode_text)
                for name, emb_set in prepared.eval_sets.items()}
    return {name: prepared.text_anchors for name in prepared.eval_sets}


def evaluate_prepared(cfg: RunConfig, prepared: PreparedExperiment, adapter: Adapter
                      ) -> dict:
    """Kind-specific report as a JSON-ready dict."""
    sets = prepared.eval_sets
    anchors = eval_text_anchors(cfg, prepared, adapter)
    report: dict = {"kind": cfg.kind, "mode": cfg.train.mode.value, "seed": cfg.seed}
    if cfg.kind == "base-to-novel":
        report.update(base_to_novel(adapter, sets["base"], sets["novel"],
                                    anchors["base"], anchors["novel"]))
    elif cfg.kind == "group-robustness":
        report["group"] = group_accuracy_report(adapter, sets["heldout"], anchors["heldout"])
    else:
        report["ood"] = ood_suite(adapter, sets["source"], [sets["target"]], anchors["source"])
        report["domain_mmd2"] = _domain_mmd_diagnostics(
            adapter, sets["source"], sets["target"], prepared.text_anchors, cfg.train.temperature)
    return report


def run_experiment(cfg: RunConfig) -> dict:
    """Generate, prepare, train, and evaluate in memory; returns the report
    plus the trained adapter and history under non-JSON keys."""
    cfg.validate()
    source, target = generate_synthetic(cfg.synthetic)
    prepared = prepare(cfg, source, target)
    adapter, history = train_prepared(cfg, prepared)
    report = evaluate_prepared(cfg, prepared, adapter)
    report["final_train_accuracy"] = history.records[-1].train_accuracy
    return {"report": report, "adapter": adapter, "history": history,
            "prepared": prepared}
