"""The three experiment protocols wired end to end: data prep, anchors,
training, evaluation."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .adapter import Adapter
from .anchors import AnchorSet, build_static_text_anchors, build_training_anchors
from .config import RunConfig, run_config_from_dict
from .core import ConfigError, make_rng
from .dataio import EmbeddingSet, few_shot_split, generate_synthetic, split_base_novel
from .evaluation import ScoredSet, base_to_novel, group_accuracy_report, ood_suite, score
from .mmd import anchor_align, median_heuristic, mmd2_biased
from .train import TrainHistory, train

# Substream key deriving the run's few-shot rng stream from its seed.
_STREAM_FEW_SHOT = 2


def reference_config() -> RunConfig:
    """The bundled desk-scale benchmark configuration."""
    doc = json.loads(resources.files("craft").joinpath("reference.json").read_text())
    return run_config_from_dict(doc)


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
    return train(prepared.train_set, prepared.train_target, prepared.text_anchors,
                 prepared.image_anchors, cfg.train)


def _domain_mmd_diagnostics(source: ScoredSet, target: ScoredSet, temperature: float) -> dict:
    """Biased MMD^2 between source/target image rows aligned to the source's
    anchors, frozen and as scored, at one shared bandwidth taken from the
    frozen pooled rows (a model-independent measuring stick)."""
    frozen_src = anchor_align(source.emb_set.image_vectors(), source.anchors, temperature)
    frozen_tgt = anchor_align(target.emb_set.image_vectors(), source.anchors, temperature)
    sigma = median_heuristic(np.concatenate([frozen_src, frozen_tgt]))
    adapted_src = anchor_align(source.features, source.anchors, temperature)
    adapted_tgt = anchor_align(target.features, source.anchors, temperature)
    return {"bandwidth": sigma, "frozen_mmd2": mmd2_biased(frozen_src, frozen_tgt, sigma),
            "adapted_mmd2": mmd2_biased(adapted_src, adapted_tgt, sigma)}


def eval_text_anchors(cfg: RunConfig, prepared: PreparedExperiment, adapter: Adapter
                      ) -> dict[str, AnchorSet]:
    """The text anchors that score each eval set, by name. Base-to-novel:
    each split's own frozen text records through the trained text adapter,
    so novel classes get anchors. Other kinds: the training text anchors."""
    if cfg.kind == "base-to-novel":
        return {name: build_static_text_anchors(emb_set, adapter.encode_text)
                for name, emb_set in prepared.eval_sets.items()}
    return {name: prepared.text_anchors for name in prepared.eval_sets}


def score_prepared(cfg: RunConfig, prepared: PreparedExperiment, adapter: Adapter
                   ) -> dict[str, ScoredSet]:
    """Each eval set, by name, scored once against its ``eval_text_anchors``."""
    anchors = eval_text_anchors(cfg, prepared, adapter)
    return {name: score(adapter, emb_set, anchors[name])
            for name, emb_set in prepared.eval_sets.items()}


def report_scored(cfg: RunConfig, scored: dict[str, ScoredSet]) -> dict:
    """Kind-specific report of ``score_prepared``'s sets as a JSON-ready dict."""
    report: dict = {"kind": cfg.kind, "mode": cfg.train.mode.value, "seed": cfg.seed}
    if cfg.kind == "base-to-novel":
        report.update(base_to_novel(scored["base"], scored["novel"]))
    elif cfg.kind == "group-robustness":
        report["group"] = group_accuracy_report(scored["heldout"])
    else:
        report["ood"] = ood_suite(scored["source"], [scored["target"]])
        report["domain_mmd2"] = _domain_mmd_diagnostics(scored["source"], scored["target"],
                                                        cfg.train.temperature)
    return report


def evaluate_prepared(cfg: RunConfig, prepared: PreparedExperiment, adapter: Adapter) -> dict:
    """Kind-specific report as a JSON-ready dict."""
    return report_scored(cfg, score_prepared(cfg, prepared, adapter))


def run_experiment(cfg: RunConfig) -> dict:
    """Generate, prepare, train, and evaluate in memory; returns the report
    plus the trained adapter and history under non-JSON keys."""
    cfg.validate()
    source, target = generate_synthetic(cfg.synthetic)
    prepared = prepare(cfg, source, target)
    adapter, history = train_prepared(cfg, prepared)
    report = evaluate_prepared(cfg, prepared, adapter)
    report["final_train_accuracy"] = history.records[-1].train_accuracy
    return {"report": report, "adapter": adapter, "history": history}
