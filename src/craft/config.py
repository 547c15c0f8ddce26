"""Run configuration: the config types, the experiment kinds and the strict
JSON loader. It imports only ``core`` and ``dataio``, so a command that reads
a config loads no training or evaluation code."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import reprlib
import types
import typing
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .core import ConfigError
from .dataio import SyntheticConfig, open_for_reading

EXPERIMENT_KINDS = ("base-to-novel", "group-robustness", "ood")


class Mode(Enum):
    """Training objectives: plain text cross-entropy, the aligned losses,
    and aligned plus domain matching."""

    BASELINE_CE = "baseline"
    ALIGNED = "aligned"
    ALIGNED_MMD = "aligned-mmd"


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
