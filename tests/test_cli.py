import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import resource

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from craft import adapter as adapter_module
from craft import cli, experiments
from craft.adapter import Adapter, write_checkpoint
from craft.anchors import ANCHOR_NAME_PREFIX, AnchorSet, write_anchors
from craft.core import AnchorError, make_rng
from craft.dataio import (Modality, few_shot_split, generate_synthetic, make_embedding_set,
                          read_embeddings, write_embeddings)
from craft.evaluation import format_pct

from conftest import apply_edits, byte_edits

REFERENCE = Path(__file__).resolve().parent.parent / "src" / "craft" / "reference.json"


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def run_cli(*args, env=None, unset=(), preexec_fn=None, timeout=None, input=None):
    """Run ``python -m craft`` in a child that inherits this environment.

    ``env`` entries are merged onto ``os.environ`` and the names in ``unset``
    are removed, so the child still finds ``craft`` the way this process did
    (``PYTHONPATH`` or an installed package). ``preexec_fn`` runs in the
    child before it starts, e.g. to set its resource limits. A child still
    running after ``timeout`` seconds is killed and the test fails. ``input``
    is written to the child's stdin, a pipe.
    """
    child_env = {k: v for k, v in os.environ.items() if k not in unset}
    child_env.update(env or {})
    return subprocess.run([sys.executable, "-m", "craft", *args],
                          capture_output=True, text=True, env=child_env,
                          preexec_fn=preexec_fn, timeout=timeout, input=input)


def small_config(tmp_path, **overrides):
    doc = json.loads(REFERENCE.read_text())
    doc["synthetic"].update({"num_classes": 4, "samples_per_class_per_modality": 12,
                             "dim": 8})
    doc["train"].update({"epochs": 2, "shots": 4})
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One gen+train+eval run shared by the cheap assertions below."""
    tmp_path = tmp_path_factory.mktemp("cli")
    config = small_config(tmp_path)
    data = tmp_path / "data"
    ckpt = tmp_path / "adapter.cadp"
    report = tmp_path / "report.json"
    steps = [
        run_cli("gen", "--config", str(config), "--out", str(data)),
        run_cli("anchors", "--data", str(data / "source.cemb"),
                "--out", str(tmp_path / "anchors.cemb"), "--seed", "3"),
        run_cli("train", "--config", str(config), "--data", str(data),
                "--out", str(ckpt)),
        run_cli("eval", "--config", str(config), "--checkpoint", str(ckpt),
                "--data", str(data), "--out", str(report)),
        run_cli("mmd", "--a", str(data / "source.cemb"), "--b", str(data / "target.cemb"),
                "--anchors", str(tmp_path / "anchors.cemb"), "--n-perms", "100", "--seed", "0"),
    ]
    return tmp_path, config, data, ckpt, report, steps


def test_pipeline_succeeds(pipeline):
    *_, steps = pipeline
    for step in steps:
        assert step.returncode == 0, step.stderr
        json.loads(step.stdout)  # every command prints machine-readable JSON


def test_pipeline_artifacts(pipeline):
    tmp_path, config, data, ckpt, report, _ = pipeline
    assert (data / "source.cemb").exists() and (data / "target.cemb").exists()
    assert ckpt.exists()
    assert ckpt.with_suffix(".cadp.history.jsonl").exists()
    doc = json.loads(report.read_text())
    assert doc["kind"] == "base-to-novel"
    assert "base_accuracy" in doc and "timestamp" in doc
    assert report.with_suffix(".txt").exists()
    assert (report.parent / "report_confusion_base.csv").exists()
    assert (report.parent / "report_confusion_novel.csv").exists()


def confusion_accuracy(path: Path) -> float:
    """trace / total of a confusion CSV."""
    rows = [[int(v) for v in row[1:]] for row in list(csv.reader(path.open()))[1:]]
    return sum(row[i] for i, row in enumerate(rows)) / sum(map(sum, rows))


def test_confusion_csvs_match_report(pipeline):
    # each set's confusion matrix is scored against the anchors its report
    # accuracy used: per-split adapter anchors for base-to-novel, the
    # training anchors for ood
    tmp_path, config, data, ckpt, report, _ = pipeline
    doc = json.loads(report.read_text())
    for name in ("base", "novel"):
        csv_path = report.parent / f"report_confusion_{name}.csv"
        assert confusion_accuracy(csv_path) == doc[f"{name}_accuracy"]
    ood_ckpt, ood_report = tmp_path / "ood.cadp", tmp_path / "ood" / "report.json"
    for args in (("train", "--config", str(config), "--data", str(data), "--out", str(ood_ckpt)),
                 ("eval", "--config", str(config), "--checkpoint", str(ood_ckpt),
                  "--data", str(data), "--out", str(ood_report))):
        result = run_cli(*args, "--kind", "ood")
        assert result.returncode == 0, result.stderr
    doc = json.loads(ood_report.read_text())
    expected = {"source": doc["ood"]["source_accuracy"],
                "target": doc["ood"]["target_accuracies"][0]}
    for name, accuracy in expected.items():
        assert confusion_accuracy(ood_report.parent / f"report_confusion_{name}.csv") == accuracy


def test_mmd_output_fields(pipeline):
    *_, steps = pipeline
    doc = json.loads(steps[-1].stdout)
    assert {"bandwidth", "mmd2_biased", "mmd2_unbiased", "p_value", "n_perms"} <= doc.keys()
    assert 0.0 < doc["p_value"] <= 1.0


def test_mmd_refuses_n_perms_numpy_cannot_hold(pipeline):
    # 1 + n_perms float64 statistics need more bytes than numpy's largest array
    tmp_path, _, data, *_ = pipeline
    code, out, err = run_main(["mmd", "--a", str(data / "source.cemb"),
                               "--b", str(data / "target.cemb"),
                               "--anchors", str(tmp_path / "anchors.cemb"),
                               "--n-perms", "99999999999999999999"])
    assert code == 2 and out == ""
    error = json.loads(err)  # exactly one JSON object
    assert error["error"] == "ConfigError" and error["command"] == "mmd"
    assert "largest array" in error["message"]


@pytest.mark.parametrize("n_perms", ["50", "99999999999999999999"])
def test_mmd_refuses_n_perms_before_reading_files(tmp_path, n_perms):
    missing = str(tmp_path / "missing.cemb")
    code, out, err = run_main(["mmd", "--a", missing, "--b", missing, "--anchors", missing,
                               "--n-perms", n_perms])
    assert code == 2 and out == ""
    error = json.loads(err)  # exactly one JSON object
    assert error["error"] == "ConfigError" and error["command"] == "mmd"


def test_help_lists_flags():
    result = run_cli("--help")
    assert result.returncode == 0
    for sub in ("gen", "anchors", "train", "eval", "mmd"):
        assert sub in result.stdout
    result = run_cli("eval", "--help")
    for flag in ("--config", "--checkpoint", "--data", "--kind", "--mode", "--seed", "--out"):
        assert flag in result.stdout


def test_unknown_config_key_names_key(tmp_path):
    doc = json.loads(REFERENCE.read_text())
    doc["train"]["learning_rrate"] = 0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = run_cli("gen", "--config", str(path), "--out", str(tmp_path / "d"))
    assert result.returncode == 2
    err = json.loads(result.stderr)
    assert err["error"] == "ConfigError"
    assert "learning_rrate" in err["message"]


def test_invalid_mode_value(tmp_path):
    # "oracle", a deleted mode, is refused like any unknown name
    for mode in ("warp-drive", "oracle"):
        doc = json.loads(REFERENCE.read_text())
        doc["train"]["mode"] = mode
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(doc))
        result = run_cli("gen", "--config", str(path), "--out", str(tmp_path / "d"))
        assert result.returncode == 2
        assert mode in json.loads(result.stderr)["message"]


@pytest.mark.parametrize("section, key, value", [
    ("train", "epochs", 2.5),
    ("train", "shots", "abc"),
    ("synthetic", "dim", "16"),
    ("train", "temperature", float("nan")),
    ("train", "learning_rate", float("nan")),
    ("train", "batch_size", True),
])
def test_config_value_of_wrong_type_is_config_error(pipeline, tmp_path, section, key, value):
    _, config, data, *_ = pipeline
    doc = json.loads(config.read_text())
    doc[section][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = run_cli("train", "--config", str(path), "--data", str(data),
                     "--out", str(tmp_path / "a.cadp"))
    assert result.returncode == 2, result.stderr
    error = json.loads(result.stderr)
    assert error["error"] == "ConfigError" and f"{section}.{key}" in error["message"]
    assert not (tmp_path / "a.cadp").exists()


@pytest.mark.parametrize("command, section", [
    ("gen", None), ("anchors", None), ("train", None), ("eval", None), ("mmd", None),
    ("gen", "synthetic"), ("train", "train"),
])
def test_negative_seed_is_config_error(pipeline, tmp_path, command, section):
    # --seed -1 on each command, or seed -4 in one config section
    pipeline_dir, config, data, ckpt, *_ = pipeline
    if section is None:
        seed, value = ["--seed", "-1"], -1
    else:
        doc = json.loads(config.read_text())
        doc[section]["seed"] = -4
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        seed, value = [], -4
    args = {
        "gen": ["--config", str(config), "--out", str(tmp_path / "d")],
        "anchors": ["--data", str(data / "source.cemb"), "--out", str(tmp_path / "a.cemb")],
        "train": ["--config", str(config), "--data", str(data), "--out", str(tmp_path / "a.cadp")],
        "eval": ["--config", str(config), "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(tmp_path / "r.json")],
        "mmd": ["--a", str(data / "source.cemb"), "--b", str(data / "target.cemb"),
                "--anchors", str(pipeline_dir / "anchors.cemb")],
    }[command]
    result = run_cli(command, *args, *seed)
    assert result.returncode == 2, result.stderr
    assert json.loads(result.stderr) == {  # exactly one JSON object
        "command": command, "error": "ConfigError",
        "message": f"seeds must be non-negative integers, got {value}"}


def test_checkpoint_dimension_mismatch_is_data_error(tmp_path):
    config = small_config(tmp_path)
    data = tmp_path / "data"
    assert run_cli("gen", "--config", str(config), "--out", str(data)).returncode == 0
    ckpt = tmp_path / "wrong.cadp"
    from craft.adapter import Adapter, write_checkpoint
    write_checkpoint(Adapter.zeros(5), ckpt)  # data dim is 8
    result = run_cli("eval", "--config", str(config), "--checkpoint", str(ckpt),
                     "--data", str(data), "--out", str(tmp_path / "r.json"))
    assert result.returncode == 3
    assert json.loads(result.stderr)["error"] == "ShapeError"


def test_nonfinite_checkpoint_is_format_error(tmp_path):
    import struct
    config = small_config(tmp_path)
    data = tmp_path / "data"
    assert run_cli("gen", "--config", str(config), "--out", str(data)).returncode == 0
    ckpt = tmp_path / "nan.cadp"
    values = np.zeros(2 * (8 * 8 + 8))
    values[5] = np.nan  # the file's only non-finite value, 12 + 8 * 5 bytes in
    ckpt.write_bytes(struct.pack("<4sII", b"CADP", 1, 8) + values.astype("<f8").tobytes())
    result = run_cli("eval", "--config", str(config), "--checkpoint", str(ckpt),
                     "--data", str(data), "--out", str(tmp_path / "r.json"))
    assert result.returncode == 3
    error = json.loads(result.stderr)
    assert error["error"] == "FormatError" and error["message"].endswith("at offset 52")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_writerless_fifo_is_format_error(pipeline, tmp_path):
    # a plain open of a FIFO that no process writes to waits forever
    tmp, config, data, _, _, _ = pipeline
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    cases = [
        (("mmd", "--a", str(fifo), "--b", str(data / "target.cemb"),
          "--anchors", str(tmp / "anchors.cemb"), "--n-perms", "100"),
         "truncated file: need 20 bytes for header at offset 0"),
        (("eval", "--config", str(config), "--checkpoint", str(fifo), "--data", str(data),
          "--out", str(tmp_path / "r.json")),
         "truncated checkpoint: 0 bytes"),
    ]
    for args, message in cases:
        result = run_cli(*args, timeout=60)
        assert result.returncode == 3
        assert json.loads(result.stderr) == {"command": args[0], "error": "FormatError",
                                             "message": message}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_writerless_fifo_config_is_config_error(tmp_path):
    # a plain open of a FIFO that no process writes to waits forever
    fifo = tmp_path / "config.json"
    os.mkfifo(fifo)
    result = run_cli("gen", "--config", str(fifo), "--out", str(tmp_path / "data"), timeout=60)
    assert result.returncode == 2
    assert json.loads(result.stderr) == {
        "command": "gen", "error": "ConfigError",
        "message": f"{fifo}: invalid JSON (Expecting value: line 1 column 1 (char 0))"}


def test_config_read_from_a_pipe(tmp_path):
    # a pipe with a writer, as /dev/stdin or a shell's <(...), is read to its end
    config = small_config(tmp_path)
    result = run_cli("gen", "--config", "/dev/stdin", "--out", str(tmp_path / "data"),
                     timeout=60, input=config.read_text())
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["records"] == 4 * 12 * 2


def test_ood_without_target_is_config_error(tmp_path):
    config = small_config(tmp_path, kind="ood")
    data = tmp_path / "data"
    ckpt = tmp_path / "adapter.cadp"
    assert run_cli("gen", "--config", str(config), "--out", str(data)).returncode == 0
    assert run_cli("train", "--config", str(config), "--data", str(data),
                   "--out", str(ckpt)).returncode == 0
    (data / "target.cemb").unlink()
    for command, paths in (("train", ["--out", str(tmp_path / "b.cadp")]),
                           ("eval", ["--checkpoint", str(ckpt), "--out", str(tmp_path / "r.json")])):
        result = run_cli(command, "--config", str(config), "--data", str(data), *paths)
        assert result.returncode == 2, result.stderr
        error = json.loads(result.stderr)  # exactly one JSON object
        assert error == {"command": command, "error": "ConfigError",
                         "message": "experiment kind 'ood' needs a target set"}


def _config_with(config: Path, tmp_path: Path, edit) -> Path:
    """The JSON document ``edit(doc)`` of the config ``doc`` at ``config``,
    written to a new file."""
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(edit(json.loads(config.read_text()))))
    return path


def _set(section, key, value):
    return lambda doc: {**doc, section: {**doc[section], key: value}}


def _huge_temperature(doc):
    # at tau = 1e200 the anchor-aligned rows square to inf, and their
    # distances to inf - inf, in the eval's median heuristic and the step's
    return {**doc, "kind": "ood",
            "train": {**doc["train"], "temperature": 1e200, "learning_rate": 1e-300}}


@pytest.mark.parametrize("edit, commands, message", [
    (lambda doc: [doc], ("gen",), "run config must be a JSON object"),
    (lambda doc: {**doc, "synthetic": {k: v for k, v in doc["synthetic"].items()
                                       if k != "num_classes"}}, ("gen",),
     # Python 3.10 names no class in the TypeError
     re.compile(r"config section 'synthetic': (SyntheticConfig\.)?__init__\(\) missing 1 "
                r"required positional argument: 'num_classes'")),
    (lambda doc: {**doc, "workdir": "x"}, ("gen",), "unknown config key workdir"),
    (lambda doc: {k: v for k, v in doc.items() if k != "train"}, ("gen",),
     "missing config key train"),
    (_set("synthetic", "num_classes", 1), ("gen",), "num_classes must be >= 2"),
    (_set("synthetic", "cluster_spread", 0.0), ("gen",), "cluster_spread must be > 0"),
    (_set("synthetic", "cross_modal_noise", -0.5), ("gen",),
     "noise and shift magnitudes must be >= 0"),
    (_set("synthetic", "group_spurious_strength", 1.5), ("gen",),
     "group_spurious_strength must be in [0, 1]"),
    (_set("synthetic", "samples_per_class_per_modality", 0), ("gen",),
     "samples_per_class_per_modality must be >= 1"),
    (_set("train", "epochs", 0), ("gen",), "epochs must be >= 1"),
    (_set("train", "batch_size", 0), ("gen",), "batch_size must be >= 1"),
    (_set("train", "learning_rate", -1.0), ("gen",), "learning_rate must be > 0"),
    (_set("train", "shots", 0), ("gen", "train"), "shots must be >= 1"),
    (_set("train", "bandwidth", -1.0), ("gen", "train"),
     "train.bandwidth must be null or in [1e-100, 1e+100], got -1.0"),
    (_set("train", "bandwidth", 1e-200), ("train",),
     "train.bandwidth must be null or in [1e-100, 1e+100], got 1e-200"),
    (_set("train", "bandwidth", 1e200), ("train",),
     "train.bandwidth must be null or in [1e-100, 1e+100], got 1e+200"),
    (_huge_temperature, ("train", "eval"),
     "train.temperature must be in (0, 1e+100], got 1e+200"),
], ids=["array", "no-num-classes", "unknown-key", "missing-section", "one-class",
        "zero-spread", "negative-noise", "spurious-above-one", "zero-samples", "zero-epochs",
        "zero-batch", "negative-learning-rate", "zero-shots", "negative-bandwidth",
        "underflowing-bandwidth", "overflowing-bandwidth", "huge-temperature"])
def test_config_values_refused_where_the_config_enters(pipeline, tmp_path, edit, commands,
                                                       message):
    # each a ConfigError, exit 2, before any file is read or written
    _, config, data, ckpt, *_ = pipeline
    path = _config_with(config, tmp_path, edit)
    args = {"gen": ["--out", str(tmp_path / "d")],
            "train": ["--data", str(data), "--out", str(tmp_path / "a.cadp"),
                      "--mode", "aligned-mmd"],
            "eval": ["--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "r.json")]}
    for command in commands:
        code, out, err = run_main([command, "--config", str(path), *args[command]])
        assert code == 2 and out == ""
        error = json.loads(err)  # exactly one JSON object
        got = error.pop("message")
        assert message.fullmatch(got) if isinstance(message, re.Pattern) else got == message
        assert error == {"command": command, "error": "ConfigError"}
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("train", [{"temperature": 1e100, "learning_rate": 1e-300},
                                   {"bandwidth": 1e-100}, {"bandwidth": 1e100}],
                         ids=["temperature", "least-bandwidth", "largest-bandwidth"])
def test_config_bounds_run_clean(tmp_path, train):
    # each bound itself trains in aligned-mmd mode and evaluates, to one
    # JSON line each and nothing on stderr
    config = small_config(tmp_path, kind="ood")
    data, ckpt = tmp_path / "data", tmp_path / "adapter.cadp"
    assert run_main(["gen", "--config", str(config), "--out", str(data)])[0] == 0
    config = _config_with(config, tmp_path, lambda doc: {
        **doc, "train": {**doc["train"], **train, "epochs": 1}})
    for args in (("train", "--config", str(config), "--data", str(data), "--out", str(ckpt),
                  "--mode", "aligned-mmd"),
                 ("eval", "--config", str(config), "--checkpoint", str(ckpt),
                  "--data", str(data), "--out", str(tmp_path / "report.json"))):
        code, out, err = run_main(list(args))
        assert code == 0 and err == "", err
        json.loads(out)
    assert math.isfinite(json.loads((tmp_path / "report.json").read_text())
                         ["domain_mmd2"]["bandwidth"])


def test_aligned_mmd_on_a_target_without_images_is_config_error(tmp_path):
    config = small_config(tmp_path, kind="ood")
    data = tmp_path / "data"
    assert run_main(["gen", "--config", str(config), "--out", str(data)])[0] == 0
    target = read_embeddings(data / "target.cemb")
    write_embeddings(target.subset(target.modality_mask(Modality.TEXT)), data / "target.cemb")
    code, out, err = run_main(["train", "--config", str(config), "--data", str(data),
                               "--out", str(tmp_path / "a.cadp"), "--mode", "aligned-mmd"])
    assert code == 2 and out == ""
    assert json.loads(err) == {"command": "train", "error": "ConfigError",
                               "message": "target set has no image records"}
    assert not (tmp_path / "a.cadp").exists()


def _anchor_file(path: Path, class_ids, modalities) -> Path:
    """A CEMB anchor file over two classes, one unit record per entry."""
    n = len(class_ids)
    write_embeddings(make_embedding_set(
        np.tile([0.6, 0.8], (n, 1)), class_ids, modalities, np.zeros(n), np.zeros(n),
        [ANCHOR_NAME_PREFIX + "a", ANCHOR_NAME_PREFIX + "b"]), path)
    return path


@pytest.mark.parametrize("class_ids, modalities, message", [
    ([0, 1], [Modality.IMAGE] * 2, "{path} holds no text anchors"),
    ([0, 0], [Modality.TEXT] * 2, "{path}: expected exactly one text anchor per class"),
], ids=["image-only", "two-text-anchors-for-one-class"])
def test_mmd_refuses_an_anchor_file_without_one_text_anchor_per_class(
        pipeline, tmp_path, class_ids, modalities, message):
    _, _, data, *_ = pipeline
    path = _anchor_file(tmp_path / "anchors.cemb", class_ids, modalities)
    code, out, err = run_main(["mmd", "--a", str(data / "source.cemb"),
                               "--b", str(data / "target.cemb"), "--anchors", str(path),
                               "--n-perms", "100"])
    assert code == 3 and out == ""
    assert json.loads(err) == {"command": "mmd", "error": "AnchorError",
                               "message": message.format(path=path)}


@pytest.fixture(scope="module")
def bad_inputs(pipeline, tmp_path_factory):
    """Valid files that each command refuses: a source with an image-less
    class, a one-class source, a target of another class vocabulary, a
    text-only set, a set of one image record, text anchors of another
    dimension, a class name that the anchor prefix makes too long, and a
    class whose text records cancel."""
    _, _, data, *_ = pipeline
    root = tmp_path_factory.mktemp("bad")
    source, target = read_embeddings(data / "source.cemb"), read_embeddings(data / "target.cemb")
    images = source.modality_mask(Modality.IMAGE)
    for name, src, tgt in (
            ("imageless", source.subset(~(images & (source.class_ids == 1))), None),
            ("one-class", source.subset(source.class_ids == 0,
                                        class_names=source.class_names[:1]), None),
            ("vocabulary", source, target.subset(np.ones(len(target), dtype=bool),
                                                 class_names=[n + "x" for n in
                                                              target.class_names]))):
        (root / name).mkdir()
        write_embeddings(src, root / name / "source.cemb")
        if tgt is not None:
            write_embeddings(tgt, root / name / "target.cemb")
    write_embeddings(source.subset(~images), root / "text-only.cemb")
    write_embeddings(source.subset(np.arange(len(source)) == np.flatnonzero(images)[0]),
                     root / "one-image.cemb")
    write_embeddings(source.subset(np.ones(len(source), dtype=bool),
                                   class_names=["x" * 65530, *source.class_names[1:]]),
                     root / "long-name.cemb")
    cancelling = source.subset(np.ones(len(source), dtype=bool))
    texts = np.flatnonzero(~images & (source.class_ids == 0))  # 12: six pairs v, -v
    cancelling.vectors[texts[1::2]] = -cancelling.vectors[texts[0::2]]
    write_embeddings(cancelling, root / "cancelling.cemb")
    write_anchors(root / "dim6.cemb", AnchorSet(np.eye(source.num_classes, 6), Modality.TEXT,
                                                source.class_names))
    return root


@pytest.mark.parametrize("argv, code, error, message", [
    (["anchors", "--data", "{data}/source.cemb", "--out", "{tmp}/a.cemb",
      "--centroids-per-class", "13"], 3, "ClusterError", "need at least 13 points, got 12"),
    (["anchors", "--data", "{bad}/imageless/source.cemb", "--out", "{tmp}/a.cemb"],
     3, "ClusterError", "class class_001 has no image records"),
    (["train", "--config", "{config}", "--data", "{bad}/one-class", "--out", "{tmp}/x.cadp"],
     3, "SplitError", "need at least 2 classes to split"),
    (["eval", "--config", "{config}", "--checkpoint", "{ckpt}", "--data", "{bad}/vocabulary",
      "--out", "{tmp}/r.json", "--kind", "ood"],
     3, "EvalError", "target set 0 does not share the source class vocabulary"),
    (["mmd", "--a", "{data}/source.cemb", "--b", "{data}/target.cemb",
      "--anchors", "{bad}/dim6.cemb", "--n-perms", "100"],
     3, "ShapeError", "feature dim 8 != anchor dim 6"),
    (["mmd", "--a", "{data}/source.cemb", "--b", "{bad}/text-only.cemb",
      "--anchors", "{pipeline}/anchors.cemb", "--n-perms", "100"],
     3, "ShapeError", "need at least 2 samples per side, got 48 and 0"),
    (["mmd", "--a", "{bad}/one-image.cemb", "--b", "{bad}/text-only.cemb",
      "--anchors", "{pipeline}/anchors.cemb", "--n-perms", "100"],
     3, "ShapeError", "median heuristic needs at least 2 samples"),
    (["anchors", "--data", "{bad}/long-name.cemb", "--out", "{tmp}/a.cemb"],
     3, "FormatError", "class name too long (65537 bytes)"),
    (["anchors", "--data", "{bad}/cancelling.cemb", "--out", "{tmp}/a.cemb"],
     3, "AnchorError", "the text records of class class_000 average to a zero vector"),
], ids=["too-few-points", "imageless-class", "one-class", "target-vocabulary",
        "anchor-dim", "no-images", "one-image", "long-class-name", "cancelling-texts"])
def test_data_the_commands_refuse_is_one_json_error(pipeline, bad_inputs, tmp_path,
                                                    argv, code, error, message):
    pipeline_dir, config, data, ckpt, *_ = pipeline
    argv = [a.format(data=data, bad=bad_inputs, tmp=tmp_path, config=config, ckpt=ckpt,
                     pipeline=pipeline_dir) for a in argv]
    assert run_main(argv) == (code, "", json.dumps(
        {"command": argv[0], "error": error, "message": message}, sort_keys=True) + "\n")
    assert list(tmp_path.iterdir()) == []


def test_eval_without_held_out_images_is_eval_error(pipeline, tmp_path):
    # shots at the per-class sample count leave the held-out set no images
    _, config, data, ckpt, *_ = pipeline
    path = _config_with(config, tmp_path, lambda doc: {
        **doc, "kind": "group-robustness", "train": {**doc["train"], "shots": 12}})
    code, out, err = run_main(["eval", "--config", str(path), "--checkpoint", str(ckpt),
                               "--data", str(data), "--out", str(tmp_path / "r.json")])
    assert code == 3 and out == ""
    assert json.loads(err) == {"command": "eval", "error": "EvalError",
                               "message": "set has no image records to evaluate"}
    assert not (tmp_path / "r.json").exists()


def test_group_report_text_matches_report_json(pipeline, tmp_path):
    # report.txt's group branch: one line per group, then WG, Avg and Gap,
    # each format_pct of report.json's value
    _, config, data, ckpt, *_ = pipeline
    report = tmp_path / "report.json"
    code, _, err = run_main(["eval", "--config", str(config), "--checkpoint", str(ckpt),
                             "--data", str(data), "--out", str(report),
                             "--kind", "group-robustness"])
    assert code == 0, err
    doc = json.loads(report.read_text())
    group = doc["group"]
    assert len(group["per_group_accuracy"]) >= 2
    expected = [(f"group {key}", acc) for key, acc in group["per_group_accuracy"].items()]
    expected += [("WG", group["worst_group"]), ("Avg", group["average"]), ("Gap", group["gap"])]
    assert report.with_suffix(".txt").read_text().splitlines() == [
        f"kind: group-robustness  mode: aligned  seed: {doc['seed']}",
        *(f"{name:>10}  {format_pct(value):>6}" for name, value in expected)]


def test_text_less_class_fails_by_name(tmp_path):
    """A class without text records: ``few_shot_split`` samples none of its
    text and goes on; the training anchors then refuse the class by name,
    in the library and in ``craft train``."""
    config = small_config(tmp_path, kind="group-robustness")
    cfg = experiments.load_run_config(config)
    source, _ = generate_synthetic(cfg.synthetic)
    text = source.modality_mask(Modality.TEXT)
    source = source.subset(~(text & (source.class_ids == 2)))
    sampled, _ = few_shot_split(source, cfg.train.shots, make_rng(0))
    for modality, count in ((Modality.IMAGE, cfg.train.shots), (Modality.TEXT, 0)):
        assert np.count_nonzero(sampled.modality_mask(modality) & (sampled.class_ids == 2)) == count
    with pytest.raises(AnchorError, match="^class class_002 has no text records$"):
        experiments.prepare(cfg, source, None)
    data = tmp_path / "data"
    data.mkdir()
    write_embeddings(source, data / "source.cemb")
    result = run_cli("train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "adapter.cadp"))
    assert result.returncode == 3
    assert json.loads(result.stderr) == {"command": "train", "error": "AnchorError",
                                         "message": "class class_002 has no text records"}


def test_eval_refuses_group_id_above_one(tmp_path):
    config = small_config(tmp_path, kind="group-robustness")
    source, _ = generate_synthetic(experiments.load_run_config(config).synthetic)
    source.group_ids[source.class_ids == 1] = 2
    data = tmp_path / "data"
    data.mkdir()
    write_embeddings(source, data / "source.cemb")
    write_checkpoint(Adapter.zeros(source.dim), tmp_path / "adapter.cadp")
    result = run_cli("eval", "--config", str(config), "--checkpoint", str(tmp_path / "adapter.cadp"),
                     "--data", str(data), "--out", str(tmp_path / "report.json"))
    assert result.returncode == 3
    error = json.loads(result.stderr)  # exactly one JSON object
    assert error["command"] == "eval" and error["error"] == "EvalError"
    assert re.fullmatch(r"image record \d+ of the evaluated set \(class_001\) has group id 2; "
                        r"group ids must be 0 or 1", error["message"])
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("kind, calls", [("base-to-novel", 18), ("group-robustness", 1),
                                         ("ood", 2)])
def test_eval_encodes_each_eval_set_once(tmp_path, monkeypatch, kind, calls):
    # desk data (K=16): one encode of each eval set's images, plus, for
    # base-to-novel, one encode of each class's text records for its anchors
    config = tmp_path / "config.json"
    config.write_text(REFERENCE.read_text())
    data, ckpt = tmp_path / "data", tmp_path / "adapter.cadp"
    assert run_main(["gen", "--config", str(config), "--out", str(data)])[0] == 0
    write_checkpoint(Adapter.zeros(16), ckpt)
    cfg = experiments.override(experiments.load_run_config(config), kind=kind)
    prepared = experiments.prepare(cfg, read_embeddings(data / "source.cemb"),
                                   read_embeddings(data / "target.cemb"))
    modalities = (Modality.IMAGE, Modality.TEXT) if kind == "base-to-novel" else (Modality.IMAGE,)
    rows = sum(np.count_nonzero(emb_set.modality_mask(m))
               for emb_set in prepared.eval_sets.values() for m in modalities)
    encoded = []  # rows per encode_with_cache call

    def counted(weight, bias, base, encode=adapter_module.encode_with_cache):
        encoded.append(len(base))
        return encode(weight, bias, base)

    monkeypatch.setattr(adapter_module, "encode_with_cache", counted)
    code, _, err = run_main(["eval", "--config", str(config), "--checkpoint", str(ckpt),
                             "--data", str(data), "--kind", kind,
                             "--out", str(tmp_path / "report.json")])
    assert code == 0, err
    assert (len(encoded), sum(encoded)) == (calls, rows)


def test_diverging_training_is_numeric_error(tmp_path):
    config = small_config(tmp_path)
    data = tmp_path / "data"
    assert run_cli("gen", "--config", str(config), "--out", str(data)).returncode == 0
    doc = json.loads(config.read_text())
    doc["train"]["learning_rate"] = 1e308
    config.write_text(json.dumps(doc))
    result = run_cli("train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "adapter.cadp"))
    assert result.returncode == 4
    error = json.loads(result.stderr)  # exactly one JSON object, no warnings
    # one step per epoch here: its update overflows, and the epoch's
    # train-accuracy pass finds the parameters non-finite
    assert error == {"command": "train", "error": "NumericError",
                     "message": "adapter parameters are not finite (epoch 0, step 0)"}
    assert not (tmp_path / "adapter.cadp").exists()


def test_anchors_command_idempotent(tmp_path):
    config = small_config(tmp_path)
    data = tmp_path / "data"
    assert run_cli("gen", "--config", str(config), "--out", str(data)).returncode == 0
    a1, a2 = tmp_path / "a1.cemb", tmp_path / "a2.cemb"
    for out in (a1, a2):
        assert run_cli("anchors", "--data", str(data / "source.cemb"),
                       "--out", str(out), "--seed", "5").returncode == 0
    assert a1.read_bytes() == a2.read_bytes()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_anchors_centroids_below_one_is_config_error(tmp_path, count):
    # the data file does not exist: reading it first would exit 3
    out = tmp_path / "anchors.cemb"
    result = run_cli("anchors", "--data", str(tmp_path / "nope.cemb"), "--out", str(out),
                     "--centroids-per-class", count)
    assert result.returncode == 2, result.stderr
    error = json.loads(result.stderr)  # exactly one JSON object
    assert error["error"] == "ConfigError" and "--centroids-per-class" in error["message"]
    assert not out.exists()


def _cap_address_space():
    """In the child: cap its address space at 3 GiB, as the benchmark does."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def test_out_of_memory_is_one_json_error(tmp_path):
    # dim 20,000 asks for a 20,000^2 float64 matrix (3.2 GB), refused by the cap
    config = small_config(tmp_path)
    doc = json.loads(config.read_text())
    doc["synthetic"]["dim"] = 20_000
    config.write_text(json.dumps(doc))
    result = run_cli("gen", "--config", str(config), "--out", str(tmp_path / "d"),
                     preexec_fn=_cap_address_space)
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    error = json.loads(result.stderr)  # exactly one JSON object
    assert error["error"] == "MemoryError" and error["command"] == "gen"


@pytest.mark.parametrize("key, value", [
    ("num_classes", 2**70), ("samples_per_class_per_modality", 2**62)], ids=["K", "n"])
def test_gen_refuses_sizes_numpy_cannot_hold(tmp_path, key, value):
    # a set of 2·K·n records of dim H needs more bytes than numpy's largest array
    config = small_config(tmp_path)
    doc = json.loads(config.read_text())
    doc["synthetic"][key] = value
    config.write_text(json.dumps(doc))
    result = run_cli("gen", "--config", str(config), "--out", str(tmp_path / "d"))
    assert result.returncode == 2, result.stderr
    error = json.loads(result.stderr)  # exactly one JSON object
    assert error["error"] == "ConfigError" and "largest array" in error["message"]
    assert not (tmp_path / "d").exists()


def test_gen_refuses_sizes_beyond_physical_memory_before_allocating(tmp_path):
    # dim 200,000: a 320 GB rotation draw, within numpy's limit but beyond
    # any machine this runs on, is refused by the config check alone
    config = small_config(tmp_path)
    doc = json.loads(config.read_text())
    doc["synthetic"]["dim"] = 200_000
    config.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code, out, err = run_main(["gen", "--config", str(config), "--out", str(tmp_path / "d")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    error = json.loads(err)  # exactly one JSON object
    assert error["error"] == "ConfigError" and "physical memory" in error["message"]
    assert peak < 1 << 20
    assert not (tmp_path / "d").exists()


def test_missing_data_file_is_data_error(tmp_path):
    config = small_config(tmp_path)
    result = run_cli("train", "--config", str(config), "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "a.cadp"))
    assert result.returncode == 3


def test_corrupt_cemb_is_data_error(tmp_path):
    config = small_config(tmp_path)
    data = tmp_path / "data"
    data.mkdir()
    (data / "source.cemb").write_bytes(b"XXXX" + bytes(16))
    result = run_cli("train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "a.cadp"))
    assert result.returncode == 3
    assert json.loads(result.stderr)["error"] == "FormatError"


def test_nan_vector_is_data_error(tmp_path):
    import struct
    from craft.dataio import SyntheticConfig, generate_synthetic, write_embeddings
    source, _ = generate_synthetic(SyntheticConfig(
        num_classes=2, dim=4, samples_per_class_per_modality=3,
        cluster_spread=0.3, cross_modal_noise=0.3))
    path = tmp_path / "nan.cemb"
    write_embeddings(source, path)
    raw = bytearray(path.read_bytes())
    first_value = 20 + sum(2 + len(n.encode("utf-8")) for n in source.class_names) + 8
    raw[first_value:first_value + 4] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(raw))
    out = tmp_path / "anchors.cemb"
    result = run_cli("anchors", "--data", str(path), "--out", str(out))
    assert result.returncode == 3, result.stderr
    error = json.loads(result.stderr)  # exactly one JSON object
    assert error["error"] == "FormatError"
    assert "record 0 is not unit-normalized" in error["message"]
    assert not out.exists()


def _anchors_data_error(tmp_path, payload):
    """Run ``craft anchors`` on a CEMB ``payload``; return its one JSON error."""
    path = tmp_path / "bad.cemb"
    path.write_bytes(payload)
    out = tmp_path / "anchors.cemb"
    result = run_cli("anchors", "--data", str(path), "--out", str(out))
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr and "MemoryError" not in result.stderr
    error = json.loads(result.stderr)  # exactly one JSON object
    assert error["error"] == "FormatError"
    assert not out.exists()
    return error


def test_huge_record_count_header_is_data_error(tmp_path):
    # a header promising 2^32-1 records of dim 2^20 followed by no records
    payload = b"CEMB" + struct.pack("<IIII", 1, 0xFFFFFFFF, 1 << 20, 1)
    payload += struct.pack("<H", 1) + b"x"
    error = _anchors_data_error(tmp_path, payload)
    assert "truncated" in error["message"] and "offset 23" in error["message"]


def test_huge_dim_header_is_data_error(tmp_path):
    # dim 2^32-1: no record of it fits a numpy dtype, even when none follow
    for count, where in ((0, "offset 12"), (1, "offset 23")):
        payload = b"CEMB" + struct.pack("<IIII", 1, count, 0xFFFFFFFF, 1)
        payload += struct.pack("<H", 1) + b"x"
        error = _anchors_data_error(tmp_path, payload)
        assert where in error["message"]


def test_bad_utf8_class_name_is_data_error(tmp_path):
    payload = b"CEMB" + struct.pack("<IIII", 1, 1, 2, 1)
    payload += struct.pack("<H", 3) + b"a\xffb"
    payload += struct.pack("<IBBH", 0, 0, 0, 0) + struct.pack("<ff", 0.6, 0.8)
    error = _anchors_data_error(tmp_path, payload)
    assert "UTF-8" in error["message"] and "offset 23" in error["message"]


def test_seed_flag_overrides_config(tmp_path):
    config = small_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_cli("gen", "--config", str(config), "--out", str(out_a), "--seed", "100")
    run_cli("gen", "--config", str(config), "--out", str(out_b), "--seed", "101")
    assert (out_a / "source.cemb").read_bytes() != (out_b / "source.cemb").read_bytes()


def test_craft_threads_env_accepted(tmp_path):
    # The shim only fills thread variables that are unset, so drop inherited ones.
    config = small_config(tmp_path)
    out = tmp_path / "d"
    result = run_cli("gen", "--config", str(config), "--out", str(out),
                     env={"CRAFT_THREADS": "1"}, unset=THREAD_VARS)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    json.loads(result.stdout)
    assert (out / "source.cemb").is_file()
    assert (out / "target.cemb").is_file()


def test_importing_the_package_loads_no_numpy():
    # the CRAFT_THREADS shim in cli must run before numpy loads
    result = subprocess.run([sys.executable, "-c",
                             "import sys, craft; print('numpy' in sys.modules)"],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


@pytest.mark.parametrize("value", ["0", "abc", "-3"])
def test_craft_threads_must_be_positive_integer(tmp_path, value):
    anchors = tmp_path / "anchors.cemb"
    result = run_cli("mmd", "--a", "a.cemb", "--b", "b.cemb", "--anchors", str(anchors),
                     env={"CRAFT_THREADS": value}, unset=THREAD_VARS)
    assert result.returncode == 2, result.stderr
    error = json.loads(result.stderr)  # exactly one JSON object
    assert error["error"] == "ConfigError" and "CRAFT_THREADS" in error["message"]
    assert result.stdout == ""


def strip_timestamp(path: Path) -> str:
    doc = json.loads(path.read_text())
    doc.pop("timestamp", None)
    return json.dumps(doc, sort_keys=True)


def test_end_to_end_determinism(tmp_path):
    config = small_config(tmp_path)
    outputs = []
    for tag in ("one", "two"):
        root = tmp_path / tag
        data = root / "data"
        ckpt = root / "adapter.cadp"
        report = root / "report.json"
        for args in (("gen", "--config", str(config), "--out", str(data)),
                     ("train", "--config", str(config), "--data", str(data), "--out", str(ckpt)),
                     ("eval", "--config", str(config), "--checkpoint", str(ckpt),
                      "--data", str(data), "--out", str(report))):
            result = run_cli(*args)
            assert result.returncode == 0, result.stderr
        outputs.append((ckpt.with_suffix(".cadp.history.jsonl").read_bytes(),
                        strip_timestamp(report)))
    assert outputs[0] == outputs[1]


def run_main(argv):
    """``cli.main`` in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, message", [
    (["gen", "--config"], "craft gen: argument --config: expected one argument"),
    (["gen", "--config", "c.json", "--out", "d", "--bogus"],
     "craft: unrecognized arguments: --bogus"),
    (["gen", "--config", "c.json", "--out", "d", "--seed", "abc"],
     "craft gen: argument --seed: invalid int value: 'abc'"),
], ids=["missing", "unknown", "mistyped"])
def test_argument_error_is_one_json_config_error(argv, message):
    code, out, err = run_main(argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"command": None, "error": "ConfigError", "message": message}


def test_empty_config_path_is_config_error(tmp_path):
    # argparse takes "" as the value of the required --config
    assert run_main(["gen", "--config", "", "--out", str(tmp_path / "d")]) == (
        2, "", '{"command": "gen", "error": "ConfigError", "message": "--config is required"}\n')
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def cli_inputs(pipeline, tmp_path_factory):
    """A valid argv per subcommand, on copies of the pipeline's inputs, and
    good and bad paths to swap in; the fuzzed commands write only below
    ``out`` and the root."""
    pipeline_dir, config, data, ckpt, *_ = pipeline
    root = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(data, root / "data")
    for src in (config, ckpt, pipeline_dir / "anchors.cemb"):
        shutil.copy(src, root / src.name)
    (root / "text.txt").write_text("not a config, not a CEMB file\n")
    (root / "out").mkdir()
    cfg, src, tgt = root / "config.json", root / "data" / "source.cemb", root / "data" / "target.cemb"
    valid = {
        "gen": ["--config", cfg, "--out", root / "out" / "gen"],
        "anchors": ["--data", src, "--out", root / "out" / "a.cemb", "--seed", "3"],
        "train": ["--config", cfg, "--data", root / "data", "--out", root / "out" / "x.cadp"],
        "eval": ["--config", cfg, "--checkpoint", root / "adapter.cadp", "--data", root / "data",
                 "--out", root / "out" / "r.json"],
        "mmd": ["--a", src, "--b", tgt, "--anchors", root / "anchors.cemb", "--n-perms", "100"],
    }
    paths = [cfg, root / "data", src, tgt, root / "adapter.cadp", root / "anchors.cemb",
             root / "text.txt", root / "missing.json", REFERENCE]
    outputs = [root / "out", root / "out" / "y.cadp", root / "text.txt" / "below", root]
    return ({name: [str(a) for a in argv] for name, argv in valid.items()},
            [str(p) for p in paths], [str(p) for p in outputs])


FLAGS = ["--config", "--out", "--seed", "--data", "--centroids-per-class", "--checkpoint",
         "--kind", "--mode", "--a", "--b", "--anchors", "--n-perms", "--bogus"]
WORDS = ["-1", "0", "3", "100", "abc", "2.5", "", "99999999999999999999", "ood", "oracle",
         "aligned-mmd", "base-to-novel", "warp"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_argv_exits_with_a_code_and_one_json_error(cli_inputs, data):
    # a valid argv of one of the five subcommands with its flag pairs kept,
    # dropped or given another value, and extra flags (some without a value)
    # of good and bad values and paths, in process through cli.main
    valid, paths, outputs = cli_inputs
    command = data.draw(st.sampled_from(sorted(valid)))
    values = st.sampled_from(paths + outputs + WORDS)
    argv = [command]
    for flag, value in zip(valid[command][::2], valid[command][1::2]):
        action = data.draw(st.sampled_from(["keep", "keep", "keep", "drop", "swap"]))
        if action == "swap":
            value = data.draw(st.sampled_from(outputs) if flag == "--out" else values)
        argv += [flag, value] if action != "drop" else []
    for flag, value in data.draw(st.lists(st.tuples(st.sampled_from(FLAGS), st.none() | values),
                                          max_size=2)):
        if flag == "--out" and value in paths:
            value = outputs[0]  # never overwrite the shared inputs
        argv += [flag] if value is None else [flag, value]
    cwd = os.getcwd()
    os.chdir(outputs[0])  # where ``eval`` without ``--out`` writes its report
    try:
        code, _, err = run_main(argv)
    finally:
        os.chdir(cwd)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), (argv, err)
    if code:
        error = json.loads(err)  # exactly one JSON object
        assert isinstance(error, dict) and {"error", "message", "command"} <= error.keys()
    else:
        assert err == ""


def test_freeze_bandwidth_key_is_refused_as_unknown(tmp_path):
    # the option is gone: a fixed ``bandwidth`` is the one constant-sigma knob
    doc = json.loads(REFERENCE.read_text())
    doc["train"]["freeze_bandwidth"] = True
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_main(["gen", "--config", str(path), "--out", str(tmp_path / "d")])
    assert code == 2
    assert json.loads(err)["message"] == "unknown config key train.freeze_bandwidth"


@pytest.fixture(scope="module")
def edit_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("edits")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_edited_input_files_exit_with_a_code_and_one_json_error(pipeline, edit_dir, data):
    # byte edits of the CEMB file of ``craft anchors`` and of either file
    # ``craft mmd`` reads first (its --a set or its anchors), through cli.main
    pipeline_dir, _, source_dir, *_ = pipeline
    files = {"--a": source_dir / "source.cemb", "--b": source_dir / "target.cemb",
             "--anchors": pipeline_dir / "anchors.cemb"}
    command = data.draw(st.sampled_from(["anchors", "mmd"]))
    flag = "--a" if command == "anchors" else data.draw(st.sampled_from(["--a", "--anchors"]))
    raw = files[flag].read_bytes()
    edited = edit_dir / "edited.cemb"
    edited.write_bytes(apply_edits(raw, data.draw(byte_edits(len(raw)))))
    files[flag] = edited
    if command == "anchors":
        argv = ["anchors", "--data", str(edited), "--out", str(edit_dir / "a.cemb"), "--seed", "3"]
    else:
        argv = ["mmd", *(str(a) for pair in files.items() for a in pair), "--n-perms", "100"]
    code, _, err = run_main(argv)
    event(f"{command} exit {code}")
    assert code in (0, 2, 3, 4), (argv, err)
    if code:
        error = json.loads(err)  # exactly one JSON object
        assert isinstance(error, dict) and {"error", "message", "command"} <= error.keys()
