"""Print one sha256 per deterministic training run, so that a claim of
unchanged behaviour can be checked with one command on two checkouts.

The runs are the nine desk runs of scripts/run_reference.py, each hashed
over its checkpoint bytes, history JSONL and report JSON, and one clip-scale
training epoch (K=100, H=512, 20 samples/class/modality, ood, aligned-mmd,
batch 128), hashed over its checkpoint bytes and history JSONL, and one
multi-centroid k-means anchor build (see ``kmeans_anchors``), hashed over
its anchor file, two two-sample tests (see ``two_sample``), hashed over
the JSON lines of ``craft mmd``, the synthetic generator (see
``generator``), hashed over the five columns of its two sets, the
CEMB files of ``craft gen`` (see ``gen_files``), and the files of ``craft
eval`` for the three experiment kinds (see ``eval_files``).

The BLAS thread count can change the last bits of a GEMM, so the script
runs the numeric backend on one thread, whatever the caller set, and its
first line names the BLAS library, its version and that thread count.

Usage: python scripts/digest.py [--seed N]    (default seed 7)
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from importlib import resources
from pathlib import Path

THREADS = "1"
# before numpy loads, which reads them once
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

import numpy as np  # noqa: E402
from run_reference import reference_runs  # noqa: E402

from craft import cli, dataio, experiments  # noqa: E402
from craft.adapter import write_checkpoint  # noqa: E402
from craft.anchors import build_training_anchors, write_anchors  # noqa: E402
from craft.config import EXPERIMENT_KINDS, Mode, override  # noqa: E402
from craft.core import l2_normalize, make_rng  # noqa: E402
from craft.experiments import reference_config  # noqa: E402


def artifact_digest(adapter, history, report, workdir: Path) -> str:
    """sha256 over the bytes the CLI would write: checkpoint, history JSONL
    and, when given, the report JSON (without the CLI's timestamp)."""
    write_checkpoint(adapter, workdir / "adapter.cadp")
    history.to_jsonl(workdir / "history.jsonl")
    digest = hashlib.sha256()
    digest.update((workdir / "adapter.cadp").read_bytes())
    digest.update((workdir / "history.jsonl").read_bytes())
    if report is not None:
        digest.update((json.dumps(report, sort_keys=True, indent=2) + "\n").encode())
    return digest.hexdigest()


def clip_epoch(seed: int):
    cfg = override(reference_config(), kind="ood", seed=seed,
                   synthetic=dict(num_classes=100, dim=512, samples_per_class_per_modality=20,
                                  domain_shift_magnitude=1.0),
                   train=dict(mode=Mode.ALIGNED_MMD, batch_size=128, epochs=1))
    source, target = dataio.generate_synthetic(cfg.synthetic)
    prepared = experiments.prepare(cfg, source, target)
    return experiments.train_prepared(cfg, prepared)


def kmeans_anchors(seed: int, workdir: Path) -> str:
    """sha256 of the anchor file of ``build_training_anchors`` with 4
    centroids per class, on a seeded H=512 set of 8 classes, each with 4
    text records and 250 to 1,100 image records, class sizes on both sides
    of 256, 512 and 1,024 rows."""
    rng = make_rng(seed)
    sizes = (250, 400, 511, 512, 513, 700, 1024, 1100)
    k, h = len(sizes), 512
    means = l2_normalize(rng.standard_normal((k, h)))
    class_ids = np.concatenate([np.full(n + 4, c) for c, n in enumerate(sizes)])
    modalities = np.concatenate([np.repeat([dataio.Modality.IMAGE, dataio.Modality.TEXT], [n, 4])
                                 for n in sizes])
    vectors = l2_normalize(means[class_ids] + 0.06 * rng.standard_normal((len(class_ids), h)))
    emb = dataio.make_embedding_set(vectors, class_ids, modalities, np.zeros(len(class_ids)),
                                    np.zeros(len(class_ids)), [f"class_{c:03d}" for c in range(k)])
    text, image = build_training_anchors(emb, seed, centroids_per_class=4)
    write_anchors(workdir / "anchors.cemb", text, image)
    return hashlib.sha256((workdir / "anchors.cemb").read_bytes()).hexdigest()


def run_craft(*argv: str) -> str:
    """The standard output of ``craft`` with these arguments, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"craft {argv[0]} exited {code}")
    return out.getvalue()


def two_sample(seed: int, workdir: Path) -> str:
    """sha256 of the JSON lines (bandwidth, both MMD^2 estimators, p-value)
    of ``craft mmd`` at 1000 permutations, four blocks of weight rows,
    between the desk ``ood`` source and target sets, with the anchors of
    ``craft anchors``: at domain shift 1.0, where no permuted statistic
    reaches the observed one and the p-value is its floor 1/1001, and at
    shift 0.0, a same-distribution pair whose p-value lies above it."""
    digest = hashlib.sha256()
    for shift in (1.0, 0.0):
        cfg = override(reference_config(), kind="ood", seed=seed,
                       synthetic=dict(domain_shift_magnitude=shift))
        source, target = dataio.generate_synthetic(cfg.synthetic)
        src, tgt, anchors = (str(workdir / name)
                             for name in ("source.cemb", "target.cemb", "anchors.cemb"))
        dataio.write_embeddings(source, src)
        dataio.write_embeddings(target, tgt)
        run_craft("anchors", "--data", src, "--out", anchors, "--seed", str(seed))
        digest.update(run_craft("mmd", "--a", src, "--b", tgt, "--anchors", anchors,
                                "--n-perms", "1000", "--seed", str(seed)).encode())
    return digest.hexdigest()


def generator(seed: int) -> str:
    """sha256 over the five columns of both sets of ``generate_synthetic`` at
    K=100, H=128, 20 samples/class/modality and group strength 0.8: at domain
    shift 0.0, whose rotation is the identity, and at shift 1.0."""
    digest = hashlib.sha256()
    for shift in (0.0, 1.0):
        cfg = override(reference_config(), seed=seed,
                       synthetic=dict(num_classes=100, dim=128, samples_per_class_per_modality=20,
                                      group_spurious_strength=0.8, domain_shift_magnitude=shift))
        for emb in dataio.generate_synthetic(cfg.synthetic):
            for column in (emb.vectors, emb.class_ids, emb.modalities, emb.domains,
                           emb.group_ids):
                digest.update(f"{column.dtype.str}{column.shape}".encode())
                digest.update(column.tobytes())
    return digest.hexdigest()


def gen_files(seed: int, workdir: Path) -> str:
    """sha256 of the source and target CEMB files that ``craft gen`` writes,
    run in process, at the desk ``ood`` config (shift 1.0) and at the clip
    config (K=100, H=512, 20 samples/class/modality, shift 1.0)."""
    doc = json.loads(resources.files("craft").joinpath("reference.json").read_text())
    doc["kind"] = "ood"
    doc["synthetic"]["domain_shift_magnitude"] = 1.0
    digest = hashlib.sha256()
    for synthetic in ({}, dict(num_classes=100, dim=512, samples_per_class_per_modality=20)):
        doc["synthetic"].update(synthetic)
        (workdir / "gen.json").write_text(json.dumps(doc))
        run_craft("gen", "--config", str(workdir / "gen.json"), "--out", str(workdir / "gen"),
                  "--seed", str(seed))
        for name in ("source.cemb", "target.cemb"):
            digest.update((workdir / "gen" / name).read_bytes())
    return digest.hexdigest()


def eval_files(seed: int, workdir: Path) -> str:
    """sha256 over the files that ``craft eval`` writes, run in process after
    ``craft train`` on the desk data of ``craft gen``, for each experiment
    kind in turn: report.json without its timestamp, report.txt and the
    confusion CSVs in name order."""
    config, data = str(workdir / "eval.json"), str(workdir / "eval-data")
    (workdir / "eval.json").write_text(resources.files("craft").joinpath("reference.json")
                                       .read_text())
    run_craft("gen", "--config", config, "--out", data, "--seed", str(seed))
    digest = hashlib.sha256()
    for kind in EXPERIMENT_KINDS:
        out = workdir / "eval" / kind / "report.json"
        common = ("--config", config, "--data", data, "--kind", kind, "--seed", str(seed))
        run_craft("train", *common, "--out", str(workdir / "eval.cadp"))
        run_craft("eval", *common, "--checkpoint", str(workdir / "eval.cadp"), "--out", str(out))
        report = json.loads(out.read_text())
        del report["timestamp"]
        digest.update((json.dumps(report, sort_keys=True, indent=2) + "\n").encode())
        for path in [out.with_suffix(".txt"), *sorted(out.parent.glob("*.csv"))]:
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7, help="seed of every run")
    args = parser.parse_args()
    cfg = override(reference_config(), seed=args.seed)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"# blas {blas['name']} {blas['version']}, {THREADS} thread")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for table, name, run_cfg in reference_runs(cfg):
            out = experiments.run_experiment(run_cfg)
            print(f"{artifact_digest(out['adapter'], out['history'], out['report'], workdir)}"
                  f"  desk {table}: {name}")
        adapter, history = clip_epoch(args.seed)
        print(f"{artifact_digest(adapter, history, None, workdir)}  clip epoch")
        print(f"{kmeans_anchors(args.seed, workdir)}  kmeans anchors (4 centroids/class, H=512)")
        print(f"{two_sample(args.seed, workdir)}  two-sample tests "
              f"(craft mmd, 1000 permutations, shift 1.0 and 0.0)")
        print(f"{generator(args.seed)}  generator (K=100, H=128, groups 0.8, shift 0.0 and 1.0)")
        print(f"{gen_files(args.seed, workdir)}  craft gen files (desk ood and clip, shift 1.0)")
        print(f"{eval_files(args.seed, workdir)}  craft eval files (desk, three kinds)")


if __name__ == "__main__":
    main()
