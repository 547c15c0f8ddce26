"""Smoke test of the benchmark: every workload at tiny scale, untraced and
traced, plus a run from a copy that holds no craft sources.

    python3 perfbench/selftest.py

It asserts that each run exits 0, that its last line carries exactly the
metrics BENCHMARK.json names with their units, that every workload metric is
printed with its unit and sample count, and that the output checks ran.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300

COMMON = {"setup_s": "s", "setup_wall_s": "s", "peak_rss_mb": "MB", "failed_ops_ratio": "ratio",
          "op_s": "s", "op_wall_s": "s"}
REPORTED = {
    "desk-tables": {"tables_s": "s", "train_samples_per_s": "samples/s",
                    "eval_records_per_s": "records/s"},
    "clip-ood-mmd": {"train_samples_per_s": "samples/s", "eval_records_per_s": "records/s"},
    "cli-two-sample": {"mmd_test_s": "s", "cli_prep_s": "s"},
    "bulk-ingest": {"cemb_write_mb_per_s": "MB/s", "cemb_read_mb_per_s": "MB/s",
                    "anchors_s": "s"},
}
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) = (\S+) (\S+) \(n=(\d+)\)$")


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=root)


def check_run(spec: dict, workload: str, trace: int) -> None:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr[-3000:]}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {lines}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{where}: metrics {sorted(set(got) ^ set(expected))} differ"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} is not a number"

    printed = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            assert match[1] == workload, f"{where}: {line}"
            printed[match[2]] = match[4]
            assert int(match[5]) >= 1, f"{where}: {line}"
    want = {**COMMON, **REPORTED[workload]}
    missing = {k: v for k, v in want.items() if printed.get(k) != v}
    assert not missing, f"{where}: metrics not printed with their unit: {missing}"
    context = json.loads(next(l for l in lines if l.startswith("context "))[len("context "):])
    assert context["output_checks"] > 0, f"{where}: no output checks ran"
    assert context["workload"] == workload and context["seed"] == 3, where
    print(f"ok {where}: {result['attempted']} ops, {context['output_checks']} checks")


def check_without_sources() -> None:
    """In a directory holding only BENCHMARK.json and the benchmark, the run
    must fail without printing a result."""
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run(bare, "desk-tables", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, "run without sources exited 0"
    assert "metrics" not in done.stdout, "run without sources printed a result"
    print(f"ok without sources: exit {done.returncode}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
