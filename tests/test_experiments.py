import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from craft.adapter import Adapter
from craft.anchors import build_static_text_anchors
from craft.core import ConfigError, make_rng
from craft.dataio import SyntheticConfig, generate_synthetic
from craft.config import (Mode, RunConfig, TrainConfig, load_run_config, override,
                          run_config_from_dict)
from craft.experiments import eval_text_anchors, prepare, reference_config, run_experiment

from conftest import apply_edits, byte_edits


def reference_doc(**overrides):
    doc = {
        "kind": "base-to-novel",
        "seed": 3,
        "synthetic": {"num_classes": 4, "dim": 8, "samples_per_class_per_modality": 12,
                      "cluster_spread": 0.2, "cross_modal_noise": 0.4},
        "train": {"epochs": 2, "batch_size": 4, "temperature": 8.0, "shots": 4},
        "split": {"base_fraction": 0.5},
    }
    doc.update(overrides)
    return doc


def test_reference_config_loads():
    cfg = reference_config()
    assert cfg.kind == "base-to-novel"
    assert cfg.seed == 7
    assert cfg.train.mode is Mode.ALIGNED
    cfg.validate()


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="mystery"):
        run_config_from_dict(reference_doc(mystery=1))
    with pytest.raises(ConfigError, match="unknown config key workdir"):
        run_config_from_dict(reference_doc(workdir="runs"))


def test_unknown_nested_key():
    doc = reference_doc()
    doc["synthetic"]["blups"] = 3
    with pytest.raises(ConfigError, match="synthetic.blups"):
        run_config_from_dict(doc)


def test_missing_required_key():
    doc = reference_doc()
    del doc["synthetic"]
    with pytest.raises(ConfigError, match="synthetic"):
        run_config_from_dict(doc)


def test_bad_kind():
    with pytest.raises(ConfigError, match="kind"):
        run_config_from_dict(reference_doc(kind="sideways"))


def test_bad_seed_type():
    with pytest.raises(ConfigError, match="seed"):
        run_config_from_dict(reference_doc(seed="seven"))


def test_seed_propagates_to_sections():
    cfg = run_config_from_dict(reference_doc(seed=55))
    assert cfg.synthetic.seed == 55 and cfg.train.seed == 55
    doc = reference_doc(seed=55)
    doc["train"]["seed"] = 9
    cfg = run_config_from_dict(doc)
    assert cfg.train.seed == 9 and cfg.synthetic.seed == 55


_CONFIG_PATHS = ([(key,) for key in ("kind", "seed", "synthetic", "train", "split")]
                 + [("synthetic", f.name) for f in dataclasses.fields(SyntheticConfig)]
                 + [("train", f.name) for f in dataclasses.fields(TrainConfig)]
                 + [("split", "base_fraction")])
_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                          st.text(max_size=4))


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


@given(st.lists(st.tuples(st.sampled_from(_CONFIG_PATHS), _json_scalars), min_size=1, max_size=3))
@example([(("train", "epochs"), 2.5)])
@example([(("train", "temperature"), float("nan"))])
@example([(("synthetic", "cluster_spread"), 10**400)])
@example([(("train", "batch_size"), True)])
@example([(("train",), 7)])
@settings(max_examples=200, deadline=None)
def test_fuzzed_config_is_loaded_or_refused(config_dir, replacements):
    doc = reference_doc()
    for path, value in replacements:
        target = doc[path[0]] if len(path) == 2 else doc
        if isinstance(target, dict):  # not a section an earlier scalar replaced
            target[path[-1]] = value
    path = config_dir / "fuzzed.json"
    path.write_text(json.dumps(doc))
    try:
        cfg = load_run_config(path)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    for section in (cfg.synthetic, cfg.train, cfg.split):
        for f in dataclasses.fields(section):
            value = getattr(section, f.name)
            if f.type == "int":
                assert type(value) is int
            elif f.type in ("float", "float | None") and value is not None:
                assert type(value) in (int, float) and math.isfinite(value)


_RAW_CONFIG = json.dumps(reference_doc()).encode()
_DIM_DIGIT = _RAW_CONFIG.index(b'"dim": 8') + len(b'"dim": ')


@given(byte_edits(len(_RAW_CONFIG)))
@example([("overwrite", _DIM_DIGIT, b"0")])
@example([("overwrite", _DIM_DIGIT, b"9e9")])
@example([("overwrite", _DIM_DIGIT, b"\xff")])
@example([("truncate", len(_RAW_CONFIG) - 1), ("extend", b"}}")])
@settings(max_examples=150, deadline=None)
def test_fuzzed_config_bytes_are_loaded_or_refused(config_dir, edits):
    # raw bytes, not field values: any edit gives a RunConfig or a ConfigError
    path = config_dir / "raw.json"
    path.write_bytes(apply_edits(_RAW_CONFIG, edits))
    try:
        cfg = load_run_config(path)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


@pytest.mark.parametrize("raw", [b"[" * 100_000, b'{"seed": ' + b"1" * 5000 + b"}",
                                 b'{"kind": "\xff"}'])
def test_unparseable_config_is_config_error(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(path)


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_run_config(path)


def test_prepare_base_to_novel_shapes():
    cfg = run_config_from_dict(reference_doc())
    source, target = generate_synthetic(cfg.synthetic)
    prep = prepare(cfg, source, target)
    assert set(prep.eval_sets) == {"base", "novel"}
    assert prep.train_target is None
    # 4 shots per class and modality in the training split
    train = prep.train_set
    assert len(train) == train.num_classes * 2 * 4
    assert len(prep.text_anchors) == train.num_classes


def test_prepare_ood_carries_target():
    cfg = run_config_from_dict(reference_doc(kind="ood"))
    source, target = generate_synthetic(cfg.synthetic)
    prep = prepare(cfg, source, target)
    assert set(prep.eval_sets) == {"source", "target"}
    assert prep.train_target is target


def test_eval_text_anchors_rule():
    adapter = Adapter.zeros(8)
    adapter.params[:] = 0.1 * make_rng(4).standard_normal(adapter.params.size)
    cfg = run_config_from_dict(reference_doc())
    prep = prepare(cfg, *generate_synthetic(cfg.synthetic))
    anchors = eval_text_anchors(cfg, prep, adapter)
    # base-to-novel: each split's own text records through the text adapter
    assert set(anchors) == {"base", "novel"}
    for name, emb_set in prep.eval_sets.items():
        expected = build_static_text_anchors(emb_set, adapter.encode_text)
        np.testing.assert_array_equal(anchors[name].vectors, expected.vectors)
        assert anchors[name].class_names == expected.class_names
    # other kinds: the training text anchors for every set
    for kind in ("ood", "group-robustness"):
        cfg = run_config_from_dict(reference_doc(kind=kind))
        prep = prepare(cfg, *generate_synthetic(cfg.synthetic))
        anchors = eval_text_anchors(cfg, prep, adapter)
        assert set(anchors) == set(prep.eval_sets)
        assert all(a is prep.text_anchors for a in anchors.values())


def test_run_experiment_group_robustness():
    doc = reference_doc(kind="group-robustness")
    doc["synthetic"].update({"group_spurious_strength": 0.5, "majority_fraction": 0.8,
                             "samples_per_class_per_modality": 24})
    doc["train"]["shots"] = 8
    cfg = run_config_from_dict(doc)
    out = run_experiment(cfg)
    group = out["report"]["group"]
    assert 0.0 <= group["worst_group"] <= group["average"] <= 1.0
    assert group["gap"] == pytest.approx(group["average"] - group["worst_group"], abs=1e-12)


def test_run_experiment_ood_report_fields():
    doc = reference_doc(kind="ood")
    doc["synthetic"]["domain_shift_magnitude"] = 0.8
    cfg = override(run_config_from_dict(doc), train={"mode": Mode.ALIGNED_MMD})
    out = run_experiment(cfg)
    report = out["report"]
    assert report["mode"] == "aligned-mmd"
    assert report["domain_mmd2"]["frozen_mmd2"] > 0.0
    assert len(report["ood"]["target_accuracies"]) == 1


def test_base_to_novel_kind_rejects_target_modes():
    cfg = override(run_config_from_dict(reference_doc()), train={"mode": Mode.ALIGNED_MMD})
    with pytest.raises(ConfigError, match="target"):
        run_experiment(cfg)


def test_run_experiment_deterministic():
    cfg = run_config_from_dict(reference_doc())
    a = run_experiment(cfg)["report"]
    b = run_experiment(cfg)["report"]
    assert a == b


# Writes, for each of the nine runs of scripts/run_reference.py at the
# reference config, the checkpoint, history JSONL and report JSON that the
# CLI would write, into the directory argv[1].
DESK_RUNS_CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[2])
from run_reference import reference_runs
from craft.adapter import write_checkpoint
from craft.experiments import reference_config, run_experiment
out = Path(sys.argv[1])
for i, (_, _, cfg) in enumerate(reference_runs(reference_config())):
    run = run_experiment(cfg)
    write_checkpoint(run["adapter"], out / f"{i}.cadp")
    run["history"].to_jsonl(out / f"{i}.history.jsonl")
    (out / f"{i}.report.json").write_text(json.dumps(run["report"], sort_keys=True, indent=2))
"""


def test_desk_runs_thread_invariant(tmp_path):
    """The reference tables' artifacts are the same bytes at 1 and 2 BLAS
    threads, so they do not depend on the host's core count."""
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    files = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", DESK_RUNS_CHILD, str(out), str(scripts)],
                       env=env, check=True)
        files.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert len(files[0]) == 27
    assert files[0] == files[1]
