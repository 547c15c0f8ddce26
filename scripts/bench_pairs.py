"""Run perfbench/run.py alternately on two checkouts and write each run's
context and result lines, with each side's attempted and failed op counts,
per-metric quartiles, the pairs the change won, the gap between the two
medians and the parent's interquartile range, to one JSON file.

Usage: python scripts/bench_pairs.py PARENT CHANGE --out BENCH_16.json \\
           --pairs clip-ood-mmd=10 desk-tables=3 [--seed 7]

PARENT and CHANGE are checkout roots, each with its own perfbench/ and src/.
Their resolved paths must have the same length, as peak RSS follows the
checkout path's length; otherwise the script exits 2 before any run. The
file records both paths. Pair i runs the parent first when i is even, the
change first when it is odd. The run length (`run_seconds`) and whether
lower or higher is better come from CHANGE's BENCHMARK.json; ties count as no win. The file is
rewritten after every run, so an interrupted session keeps the pairs it
finished.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``checkout``: its context and result lines."""
    lines = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                            "--seed", str(seed), "--seconds", str(seconds)], cwd=checkout,
                           check=True, capture_output=True, text=True).stdout.splitlines()
    context = next(line for line in lines if line.startswith("context "))
    return {"context": json.loads(context.removeprefix("context ")),
            "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summary(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload, over its complete pairs: the attempted and failed op
    counts of each side (under ``ops``), and per metric each side's
    quartiles, the number of pairs in which the change read better,
    ``median_gap`` (change median minus parent median) and ``parent_iqr``
    (the parent's q3 minus q1). A gain is claimed when the change wins at
    least nine tenths of the pairs and ``abs(median_gap)`` exceeds
    ``parent_iqr``."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by_pair = {}
        for run in runs:
            if run["workload"] == workload:
                by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
        pairs = [pair for pair in by_pair.values() if len(pair) == 2]
        if len(pairs) < 2:
            continue
        out[workload] = {"ops": {side: {key: sum(pair[side][key] for pair in pairs)
                                        for key in ("attempted", "failed")} for side in SIDES}}
        for name in pairs[0]["parent"]["metrics"]:
            sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
            values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                      for side in SIDES}
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            sides = {side: quartiles(values[side]) for side in SIDES}
            out[workload][name] = {
                "pairs": len(pairs), "change_wins": wins,
                "median_gap": sides["change"]["median"] - sides["parent"]["median"],
                "parent_iqr": sides["parent"]["q3"] - sides["parent"]["q1"], **sides}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout root of the parent commit")
    parser.add_argument("change", type=Path, help="checkout root of the change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    args = parser.parse_args()
    paths = {side: str(path.resolve()) for side, path in zip(SIDES, (args.parent, args.change))}
    if len(paths["parent"]) != len(paths["change"]):
        parser.exit(2, f"bench_pairs: checkout paths differ in length: {paths['parent']} "
                       f"({len(paths['parent'])}) and {paths['change']} "
                       f"({len(paths['change'])})\n")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    doc = {"paths": paths, "seed": args.seed, "seconds": benchmark["run_seconds"],
           "order": "pair i runs the parent first when i is even", "runs": [], "summary": {}}
    for spec in args.pairs:
        workload, count = spec.split("=")
        for pair in range(int(count)):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                checkout = args.parent if side == "parent" else args.change
                doc["runs"].append({"workload": workload, "pair": pair, "side": side,
                                    **bench(checkout, workload, args.seed, doc["seconds"])})
                doc["summary"] = summary(doc["runs"], better)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"{workload}: pair {pair + 1} of {count} done", file=sys.stderr)


if __name__ == "__main__":
    main()
