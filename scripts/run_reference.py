"""Run the bundled desk-scale benchmark across the three protocols and print
ablation tables: base-to-novel (loss-term ablation), group robustness, and
out-of-distribution adaptation with and without domain matching.

Usage: python scripts/run_reference.py [--seed N]
"""

import argparse

from craft.evaluation import format_pct
from craft.experiments import override, reference_config, run_experiment
from craft.losses import Mode


def reference_runs(cfg):
    """The nine runs behind the three tables, as (table, row name, run config)."""
    runs = [("base-to-novel", name, override(cfg, train=dict(mode=mode, **weights)))
            for name, mode, weights in (("baseline CE", Mode.BASELINE_CE, {}),
                                        ("static only", Mode.ALIGNED, {"w_stochastic": 0.0}),
                                        ("stochastic only", Mode.ALIGNED, {"w_static": 0.0}),
                                        ("aligned (both)", Mode.ALIGNED, {}))]
    # two classes x two spurious-alignment groups, the classic four-group setup
    group_cfg = override(cfg, kind="group-robustness",
                         synthetic=dict(num_classes=2, samples_per_class_per_modality=160,
                                        cluster_spread=0.5, group_spurious_strength=0.8,
                                        majority_fraction=0.9),
                         train=dict(shots=64))
    runs += [("group", name, override(group_cfg, train=dict(mode=mode)))
             for name, mode in (("baseline CE", Mode.BASELINE_CE), ("aligned", Mode.ALIGNED))]
    ood_cfg = override(cfg, kind="ood", synthetic=dict(domain_shift_magnitude=1.0))
    runs += [("ood", name, override(ood_cfg, train=dict(mode=mode)))
             for name, mode in (("baseline CE", Mode.BASELINE_CE), ("aligned", Mode.ALIGNED),
                                ("aligned + mmd", Mode.ALIGNED_MMD))]
    return runs


def base_to_novel_table(rows):
    print("\n== base-to-novel: loss-term ablation ==")
    print(f"{'mode':<18} {'base':>6} {'novel':>6}")
    for name, report in rows:
        print(f"{name:<18} {format_pct(report['base_accuracy']):>6} "
              f"{format_pct(report['novel_accuracy']):>6}")


def group_table(rows):
    print("\n== group robustness (spurious coordinate, 4 groups) ==")
    print(f"{'mode':<18} {'WG':>6} {'Avg':>6} {'Gap':>6}")
    for name, report in rows:
        group = report["group"]
        print(f"{name:<18} {format_pct(group['worst_group']):>6} "
              f"{format_pct(group['average']):>6} {format_pct(group['gap']):>6}")


def ood_table(rows):
    print("\n== out-of-distribution (shift magnitude 1.0) ==")
    print(f"{'mode':<18} {'source':>7} {'target':>7} {'mmd2':>9}")
    for name, report in rows:
        ood = report["ood"]
        print(f"{name:<18} {format_pct(ood['source_accuracy']):>7} "
              f"{format_pct(ood['target_average']):>7} "
              f"{report['domain_mmd2']['adapted_mmd2']:>9.5f}")
    print(f"{'(frozen encoder)':<18} {'':>7} {'':>7} "
          f"{report['domain_mmd2']['frozen_mmd2']:>9.5f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, help="override the benchmark seed")
    args = parser.parse_args()
    cfg = reference_config()
    if args.seed is not None:
        cfg = override(cfg, seed=args.seed)
    print(f"benchmark: K={cfg.synthetic.num_classes} H={cfg.synthetic.dim} "
          f"shots={cfg.train.shots} epochs={cfg.train.epochs} seed={cfg.seed}")
    tables = {"base-to-novel": [], "group": [], "ood": []}
    for table, name, run_cfg in reference_runs(cfg):
        tables[table].append((name, run_experiment(run_cfg)["report"]))
    base_to_novel_table(tables["base-to-novel"])
    group_table(tables["group"])
    ood_table(tables["ood"])


if __name__ == "__main__":
    main()
