"""Print one sha256 per deterministic training run, so that a claim of
unchanged behaviour can be checked with one command on two checkouts.

The runs are the nine desk runs of scripts/run_reference.py, each hashed
over its checkpoint bytes, history JSONL and report JSON, and one clip-scale
training epoch (K=100, H=512, 20 samples/class/modality, ood, aligned-mmd,
batch 128), hashed over its checkpoint bytes and history JSONL.

Usage: python scripts/digest.py [--seed N]    (default seed 7)
"""

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

from run_reference import reference_runs

from craft import dataio, experiments
from craft.adapter import write_checkpoint
from craft.experiments import override, reference_config
from craft.losses import Mode


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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7, help="seed of every run")
    args = parser.parse_args()
    cfg = override(reference_config(), seed=args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for table, name, run_cfg in reference_runs(cfg):
            out = experiments.run_experiment(run_cfg)
            print(f"{artifact_digest(out['adapter'], out['history'], out['report'], workdir)}"
                  f"  desk {table}: {name}")
        adapter, history = clip_epoch(args.seed)
        print(f"{artifact_digest(adapter, history, None, workdir)}  clip epoch")


if __name__ == "__main__":
    main()
