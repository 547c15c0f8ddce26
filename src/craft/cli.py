"""Command-line front end: gen, anchors, train, eval, mmd.

Exit codes: 0 success, 2 config error, 3 data error (also a command that
runs out of memory), 4 numeric error. Errors are emitted as one JSON object
on stderr. CRAFT_THREADS, a positive integer, caps the numerical backend's
thread pool and must take effect before numpy loads, hence the env shim
ahead of the heavy imports; main() rejects any other value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path


def _valid_threads(value: str) -> bool:
    return value.isascii() and value.isdigit() and int(value) > 0


_threads = os.environ.get("CRAFT_THREADS", "")
if _valid_threads(_threads):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import numpy as np  # noqa: E402

from . import experiments  # noqa: E402
from .adapter import read_checkpoint, write_checkpoint  # noqa: E402
from .anchors import read_anchors, write_anchors  # noqa: E402
from .core import CraftError, ConfigError, AnchorError  # noqa: E402
from .dataio import generate_synthetic, read_embeddings, write_embeddings  # noqa: E402
from .evaluation import confusion, confusion_csv, format_pct  # noqa: E402
from .losses import Mode  # noqa: E402
from .mmd import (anchor_align, check_n_perms, median_heuristic, mmd2_both,  # noqa: E402
                  permutation_test)
from .core import make_rng  # noqa: E402

MODE_CHOICES = [m.value for m in Mode]


def _load_config(args) -> "experiments.RunConfig":
    if not args.config:
        raise ConfigError("--config is required")
    mode = getattr(args, "mode", None)
    return experiments.override(experiments.load_run_config(args.config),
                                kind=getattr(args, "kind", None), seed=getattr(args, "seed", None),
                                train={"mode": Mode(mode)} if mode else None)


def _data_files(data_dir: str) -> tuple[Path, Path]:
    root = Path(data_dir)
    return root / "source.cemb", root / "target.cemb"


def cmd_gen(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    source, target = generate_synthetic(cfg.synthetic)
    src_path, tgt_path = _data_files(out)
    write_embeddings(source, src_path)
    write_embeddings(target, tgt_path)
    print(json.dumps({"source": str(src_path), "target": str(tgt_path),
                      "records": len(source), "dim": source.dim,
                      "num_classes": source.num_classes}, sort_keys=True))
    return 0


def cmd_anchors(args) -> int:
    if args.centroids_per_class < 1:
        raise ConfigError(f"--centroids-per-class must be >= 1, got {args.centroids_per_class}")
    emb = read_embeddings(args.data)
    text_anchors, image_anchors = experiments.build_training_anchors(
        emb, args.seed if args.seed is not None else 0, args.centroids_per_class)
    write_anchors(args.out, text_anchors, image_anchors)
    print(json.dumps({"anchors": str(args.out), "classes": len(text_anchors)},
                     sort_keys=True))
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    src_path, tgt_path = _data_files(args.data)
    source = read_embeddings(src_path)
    target = read_embeddings(tgt_path) if tgt_path.exists() else None
    prepared = experiments.prepare(cfg, source, target)
    adapter, history = experiments.train_prepared(cfg, prepared)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_checkpoint(adapter, out)
    history_path = out.with_suffix(out.suffix + ".history.jsonl")
    history.to_jsonl(history_path)
    print(json.dumps({"checkpoint": str(out), "history": str(history_path),
                      "epochs": len(history),
                      "final_total_loss": history.records[-1].total,
                      "final_train_accuracy": history.records[-1].train_accuracy},
                     sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    adapter = read_checkpoint(args.checkpoint)
    src_path, tgt_path = _data_files(args.data)
    source = read_embeddings(src_path)
    target = read_embeddings(tgt_path) if tgt_path.exists() else None
    prepared = experiments.prepare(cfg, source, target)
    scored = experiments.score_prepared(cfg, prepared, adapter)
    report = experiments.report_scored(cfg, scored)
    report["timestamp"] = datetime.now(timezone.utc).isoformat()

    out = Path(args.out) if args.out else Path("report.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    out.with_suffix(".txt").write_text(_report_text(report) + "\n")
    for name, scored_set in scored.items():
        out.with_name(f"{out.stem}_confusion_{name}.csv").write_text(
            confusion_csv(confusion(scored_set), scored_set.anchors.class_names))
    print(json.dumps({"report": str(out)}, sort_keys=True))
    return 0


def _report_text(report: dict) -> str:
    lines = [f"kind: {report['kind']}  mode: {report['mode']}  seed: {report['seed']}"]
    if "base_accuracy" in report:
        lines.append(f"{'base':>10}  {format_pct(report['base_accuracy']):>6}")
        lines.append(f"{'novel':>10}  {format_pct(report['novel_accuracy']):>6}")
    if "group" in report:
        g = report["group"]
        for key, acc in g["per_group_accuracy"].items():
            lines.append(f"{'group ' + key:>10}  {format_pct(acc):>6}")
        lines.append(f"{'WG':>10}  {format_pct(g['worst_group']):>6}")
        lines.append(f"{'Avg':>10}  {format_pct(g['average']):>6}")
        lines.append(f"{'Gap':>10}  {format_pct(g['gap']):>6}")
    if "ood" in report:
        o = report["ood"]
        lines.append(f"{'source':>10}  {format_pct(o['source_accuracy']):>6}")
        for i, acc in enumerate(o["target_accuracies"]):
            lines.append(f"{f'target_{i}':>10}  {format_pct(acc):>6}")
        lines.append(f"{'target avg':>10}  {format_pct(o['target_average']):>6}")
        mmd_info = report["domain_mmd2"]
        lines.append(f"domain MMD^2 frozen {mmd_info['frozen_mmd2']:.6f} "
                     f"adapted {mmd_info['adapted_mmd2']:.6f} "
                     f"(bandwidth {mmd_info['bandwidth']:.4f})")
    return "\n".join(lines)


def cmd_mmd(args) -> int:
    check_n_perms(args.n_perms)
    rng = make_rng(args.seed if args.seed is not None else 0, 4)
    set_a = read_embeddings(args.a)
    set_b = read_embeddings(args.b)
    text_anchors, _ = read_anchors(args.anchors)
    if text_anchors is None:
        raise AnchorError(f"{args.anchors} holds no text anchors")
    rows_a = anchor_align(set_a.image_vectors(), text_anchors)
    rows_b = anchor_align(set_b.image_vectors(), text_anchors)
    sigma = median_heuristic(np.concatenate([rows_a, rows_b]))
    biased, unbiased = mmd2_both(rows_a, rows_b, sigma)
    result = {
        "bandwidth": sigma,
        "mmd2_biased": biased,
        "mmd2_unbiased": unbiased,
        "n_perms": args.n_perms,
        "p_value": permutation_test(rows_a, rows_b, sigma, args.n_perms, rng),
    }
    print(json.dumps(result, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises a missing, unknown or mistyped flag as
    a ConfigError, so that it leaves one JSON object like any other error;
    ``--help`` still prints and exits 0. Subparsers take this class too."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="craft",
        description="Anchor-based cross-modal alignment and MMD domain matching "
                    "over dual-modality embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate and write synthetic source/target sets")
    gen.add_argument("--config", required=True, help="run config JSON path")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, help="override every seed in the config")
    gen.set_defaults(func=cmd_gen)

    anc = sub.add_parser("anchors", help="build and serialize static anchors")
    anc.add_argument("--data", required=True, help="CEMB embedding file")
    anc.add_argument("--out", required=True, help="output anchor CEMB path")
    anc.add_argument("--centroids-per-class", type=int, default=1)
    anc.add_argument("--seed", type=int, help="k-means seeding")
    anc.set_defaults(func=cmd_anchors)

    tr = sub.add_parser("train", help="run training, write checkpoint and history")
    tr.add_argument("--config", required=True)
    tr.add_argument("--data", required=True, help="directory holding source.cemb/target.cemb")
    tr.add_argument("--out", required=True, help="checkpoint path (.cadp)")
    tr.add_argument("--kind", choices=list(experiments.EXPERIMENT_KINDS),
                    help="override the config's experiment kind")
    tr.add_argument("--mode", choices=MODE_CHOICES, help="override the config's training mode")
    tr.add_argument("--seed", type=int, help="override every seed in the config")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="run the matching harness and emit reports")
    ev.add_argument("--config", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--kind", choices=list(experiments.EXPERIMENT_KINDS),
                    help="override the config's experiment kind")
    ev.add_argument("--mode", choices=MODE_CHOICES)
    ev.add_argument("--seed", type=int)
    ev.add_argument("--out", help="report JSON path (default report.json)")
    ev.set_defaults(func=cmd_eval)

    mm = sub.add_parser("mmd", help="report MMD^2 estimates, bandwidth, and permutation p-value")
    mm.add_argument("--a", required=True, help="first CEMB set")
    mm.add_argument("--b", required=True, help="second CEMB set")
    mm.add_argument("--anchors", required=True, help="anchor CEMB file")
    mm.add_argument("--n-perms", type=int, default=200)
    mm.add_argument("--seed", type=int)
    mm.set_defaults(func=cmd_mmd)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = None  # until the arguments parse
    try:
        args = build_parser().parse_args(argv)
        threads = os.environ.get("CRAFT_THREADS")
        if threads and not _valid_threads(threads):
            raise ConfigError(f"CRAFT_THREADS must be a positive integer, got {threads!r}")
        return args.func(args)
    except (CraftError, OSError, MemoryError) as exc:
        # numpy raises a private MemoryError subclass; report the public name
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc),
                          "command": getattr(args, "command", None)}, sort_keys=True),
              file=sys.stderr)
        return exc.exit_code if isinstance(exc, CraftError) else 3


if __name__ == "__main__":
    sys.exit(main())
