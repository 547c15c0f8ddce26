"""Spans around the public functions of every craft module, for the traced run.

The tracer wraps functions from outside the library. A function that other
modules bound with ``from .x import y`` is replaced under every name that
holds it, so calls through any binding are seen. Spans stay in memory and
are written as JSON lines when the run ends. A span's self time is its
duration minus the time covered by its child spans; time inside an
operation that no root span covers is reported as unattributed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

# (module, attribute) of each traced function; "Class.method" names a method.
TARGETS = (
    ("core", "pairwise_sq_dists"),
    ("mmd", "median_heuristic"),
    ("mmd", "mmd2_biased"),
    ("mmd", "mmd2_biased_grad"),
    ("mmd", "mmd2_unbiased"),
    ("mmd", "KernelSpec.matrix"),
    ("mmd", "anchor_align"),
    ("mmd", "permutation_test"),
    ("losses", "loss_and_gradient"),
    ("adapter", "encode_with_cache"),
    ("adapter", "Adapter.encode_image"),
    ("adapter", "Adapter.from_flat"),
    ("adapter", "Adapter.to_flat"),
    ("train", "sgd_step"),
    ("train", "train"),
    ("evaluation", "accuracy"),
    ("evaluation", "base_to_novel"),
    ("evaluation", "group_accuracy_report"),
    ("evaluation", "ood_suite"),
    ("experiments", "prepare"),
    ("experiments", "evaluate_prepared"),
    ("anchors", "kmeans"),
    ("anchors", "build_static_image_anchors"),
    ("anchors", "build_static_text_anchors"),
    ("dataio", "write_embeddings"),
    ("dataio", "read_embeddings"),
    ("dataio", "generate_synthetic"),
    ("cli", "cmd_gen"),
    ("cli", "cmd_anchors"),
    ("cli", "cmd_mmd"),
)

LOSS_MODES = ("baseline", "aligned", "aligned-mmd")

# Per-layer metrics of the traced run, in BENCHMARK.json order, with units.
# Counts and times are per traced operation.
_STATS = {"calls": "count", "self_s": "s", "total_s": "s"}


def _all_stats(name: str) -> list[tuple[str, str]]:
    return [(f"{name}.{stat}", unit) for stat, unit in _STATS.items()]


PER_LAYER_METRICS: list[tuple[str, str]] = [
    ("core.pairwise_sq_dists.calls", "count"),
    ("core.pairwise_sq_dists.self_s", "s"),
    ("core.pairwise_sq_dists.elems", "count"),
    ("core.pairwise_sq_dists.max_temp_mb", "MB"),
    *_all_stats("mmd.median_heuristic"),
    *_all_stats("mmd.mmd2_biased"),
    *_all_stats("mmd.mmd2_biased_grad"),
    *_all_stats("mmd.mmd2_unbiased"),
    *_all_stats("mmd.KernelSpec.matrix"),
    ("mmd.anchor_align.calls", "count"),
    ("mmd.permutation_test.self_s", "s"),
    ("mmd.permutation_test.perms_per_s", "1/s"),
    *[(f"losses.loss_and_gradient.{mode}.{stat}", unit)
      for mode in LOSS_MODES for stat, unit in (("calls", "count"), ("self_s", "s"))],
    *_all_stats("adapter.encode_with_cache"),
    ("adapter.Adapter.encode_image.calls", "count"),
    *_all_stats("adapter.Adapter.from_flat"),
    *_all_stats("adapter.Adapter.to_flat"),
    ("adapter.encodes_per_step", "ratio"),
    *_all_stats("train.sgd_step"),
    ("train.train.self_s", "s"),
    *_all_stats("evaluation.accuracy"),
    ("evaluation.base_to_novel.self_s", "s"),
    ("evaluation.group_accuracy_report.self_s", "s"),
    ("evaluation.ood_suite.self_s", "s"),
    ("experiments.prepare.self_s", "s"),
    ("experiments.evaluate_prepared.self_s", "s"),
    ("anchors.kmeans.calls", "count"),
    ("anchors.kmeans.self_s", "s"),
    ("anchors.kmeans.iterations", "count"),
    ("anchors.build_static_image_anchors.self_s", "s"),
    ("anchors.build_static_text_anchors.self_s", "s"),
    ("dataio.write_embeddings.self_s", "s"),
    ("dataio.write_embeddings.mb", "MB"),
    ("dataio.read_embeddings.self_s", "s"),
    ("dataio.read_embeddings.mb", "MB"),
    ("dataio.generate_synthetic.self_s", "s"),
    ("cli.cmd_gen.self_s", "s"),
    ("cli.cmd_anchors.self_s", "s"),
    ("cli.cmd_mmd.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """In-memory span recorder with per-name call, total and self time."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.op = -1
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.root_s = 0.0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [id, name, start, child_s]
        self._open: dict[str, int] = {}

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def peak(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, 0.0), value)

    def is_open(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def enter(self, name: str) -> list:
        frame = [len(self.spans) + len(self._stack), name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_s = frame
        self._open[name] -= 1
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.root_s += duration
        else:
            parent[3] += duration
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_s
        self.spans.append((span_id, name, start, end,
                           None if parent is None else parent[0], self.op))

    @contextlib.contextmanager
    def tracing(self, op: int):
        """Install the wrappers for the duration of one operation."""
        self.op = op
        restore = _install(self)
        try:
            yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span_id, name, start, end, parent, op in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                      "parent": parent, "run": self.run_id, "op": op}) + "\n")

    def per_layer(self, traced_ops: int, traced_wall_s: float,
                  overhead_frac: float) -> dict[str, float]:
        """Every per-layer metric, counts and times divided by the traced ops."""
        ops = max(traced_ops, 1)
        values: dict[str, float] = {}
        for name, (calls, total_s, self_s) in self.stats.items():
            values[f"{name}.calls"] = calls / ops
            values[f"{name}.total_s"] = total_s / ops
            values[f"{name}.self_s"] = self_s / ops
        for counter, value in self.counters.items():
            values[counter] = value if counter.endswith("max_temp_mb") else value / ops
        perms = self.counters.get("mmd.permutation_test.perms", 0.0)
        perm_s = self.stats.get("mmd.permutation_test", [0, 0.0, 0.0])[1]
        values["mmd.permutation_test.perms_per_s"] = perms / perm_s if perm_s else 0.0
        steps = self.stats.get("train.sgd_step", [0, 0.0, 0.0])[0]
        encodes = self.counters.get("adapter.train_encodes", 0.0)
        values["adapter.encodes_per_step"] = encodes / steps if steps else 0.0
        unattributed = max(traced_wall_s - self.root_s, 0.0)
        values["trace.unattributed_s"] = unattributed / ops
        values["trace.unattributed_frac"] = unattributed / traced_wall_s if traced_wall_s else 0.0
        values["trace.overhead_frac"] = overhead_frac
        values["trace.spans"] = len(self.spans) / ops
        return {name: values.get(name, 0.0) for name, _ in PER_LAYER_METRICS}


# ---------------------------------------------------------------------------
# Hooks that turn argument shapes and results into counters.


def _count_pairwise(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    x = np.shape(_arg(args, kwargs, 0, "x"))
    y = np.shape(_arg(args, kwargs, 1, "y"))
    m = x[0] if len(x) > 1 else 1
    n = y[0] if len(y) > 1 else 1
    elems = m * n * x[-1]
    tracer.add("core.pairwise_sq_dists.elems", elems)
    tracer.peak("core.pairwise_sq_dists.max_temp_mb", elems * 8 / 1e6)


def _count_perms(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    tracer.add("mmd.permutation_test.perms", _arg(args, kwargs, 3, "n_perms"))


def _count_train_encode(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    # encodes per SGD step: the training loop's own, not its per-epoch accuracy
    if tracer.is_open("train.train") and not tracer.is_open("evaluation.accuracy"):
        tracer.add("adapter.train_encodes", 1)


def _count_read_mb(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    tracer.add("dataio.read_embeddings.mb", os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6)


def _count_written_mb(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.add("dataio.write_embeddings.mb", os.path.getsize(_arg(args, kwargs, 1, "path")) / 1e6)


def _count_iterations(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.add("anchors.kmeans.iterations", result.iterations_run)


def _loss_span_name(args: tuple, kwargs: dict) -> str:
    return f"losses.loss_and_gradient.{_arg(args, kwargs, 4, 'cfg').mode.value}"


_BEFORE = {
    "core.pairwise_sq_dists": _count_pairwise,
    "mmd.permutation_test": _count_perms,
    "adapter.encode_with_cache": _count_train_encode,
    "dataio.read_embeddings": _count_read_mb,
}
_AFTER = {
    "dataio.write_embeddings": _count_written_mb,
    "anchors.kmeans": _count_iterations,
}
_NAMERS = {"losses.loss_and_gradient": _loss_span_name}


def _wrap(tracer: Tracer, name: str, fn):
    before, after, namer = _BEFORE.get(name), _AFTER.get(name), _NAMERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        frame = tracer.enter(namer(args, kwargs) if namer is not None else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _install(tracer: Tracer) -> list[tuple]:
    """Replace every traced function under each name bound to it; returns
    (owner, attribute, original) triples that undo the replacement."""
    for module_name in sorted({m for m, _ in TARGETS}):
        with contextlib.suppress(ImportError):
            importlib.import_module(f"craft.{module_name}")
    modules = [m for key, m in list(sys.modules.items())
               if key == "craft" or key.startswith("craft.")]
    restore: list[tuple] = []
    for module_name, attr in TARGETS:
        name = f"{module_name}.{attr}"
        module = sys.modules.get(f"craft.{module_name}")
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or method not in vars(owner):
            if name not in tracer.missing:
                tracer.missing.append(name)
            continue
        if owner_name:  # a method, replaced on its class
            raw = vars(owner)[method]
            if isinstance(raw, classmethod):
                replacement = classmethod(_wrap(tracer, name, raw.__func__))
            else:
                replacement = _wrap(tracer, name, raw)
            restore.append((owner, method, raw))
            setattr(owner, method, replacement)
            continue
        original = getattr(module, method)
        wrapper = _wrap(tracer, name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return restore
