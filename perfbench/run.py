"""Benchmark of craft: one workload per run, end-to-end metrics by default,
per-layer metrics from spans with ``--trace 1``.

    python3 perfbench/run.py --workload desk-tables --seed 7 --seconds 22 --trace 0

Run it from anywhere; it measures the craft sources in ``src/`` next to
this directory. The loop is closed with one client: each operation starts
when the previous one has finished, until ``--seconds`` seconds have
passed. Every operation's outputs are checked. Stdout ends with one JSON
line holding ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give the context and every workload metric with its unit
and sample count.

Before numpy loads, the BLAS thread variables are pinned to at most the
number of usable cores and the address space is capped, so an oversized
allocation fails as a MemoryError (recorded with its reason) instead of
drawing the kernel's OOM killer. Child processes inherit both.

Times are taken per stage of an operation and reported twice: as wall
seconds and as calibrated seconds, the wall time scaled by the host speed
read at the stage boundaries throughout the run (see ``clock.py``). The
gated ``op_s`` and ``setup_s`` are calibrated; ``op_wall_s`` and
``setup_wall_s`` beside them are the raw wall times.
"""

import os
import sys
import time

from clock import SpeedLog, Stopwatch  # pure Python; loads nothing else

# Set-up is timed from here, before the imports.
SPEED_LOG = SpeedLog()
SETUP_WATCH = Stopwatch(SPEED_LOG)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKDIR = OUT / "work" / f"p{os.getpid()}"
WORKLOAD_NAMES = ("desk-tables", "clip-ood-mmd", "cli-two-sample", "bulk-ingest")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
MEMORY_CAP_BYTES = 3 << 30
SETUP_REPEATS = 3
# End-to-end metrics every workload reports with --trace 0, as in BENCHMARK.json.
END_TO_END = (("op_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def pin_threads() -> int:
    """Set each BLAS thread variable to at most the number of usable cores."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        keep = current.isdigit() and 0 < int(current) <= nproc
        os.environ[var] = current if keep else str(nproc)
    return nproc


def cap_memory() -> int:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP_BYTES if hard == resource.RLIM_INFINITY else min(MEMORY_CAP_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return cap


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_name(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def peak_rss_mb(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def setup_total(times: dict[str, float]) -> float:
    """Imports, the median of the input builds, and the warm-up."""
    builds = sorted(times[f"build_{i}"] for i in range(SETUP_REPEATS))
    return times["imports_s"] + builds[SETUP_REPEATS // 2] + times["warmup_s"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, default=22.0, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from spans instead of end-to-end ones")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the self-test")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "craft" / "__init__.py").is_file():
        print(f"error: no craft package under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_threads()
    cap = cap_memory()
    sys.path.insert(0, str(SRC))

    import numpy as np

    import craft
    from spans import PER_LAYER_METRICS, Tracer
    from workloads import WORKLOADS, median, stages_total

    if Path(craft.__file__).resolve().parent != SRC / "craft":
        print(f"error: imported craft from {craft.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, args.scale, WORKDIR,
                                        in_process=bool(args.trace), speed_log=SPEED_LOG)
    watch = SETUP_WATCH
    watch.lap("imports_s")
    for i in range(SETUP_REPEATS):
        workload.build_inputs()
        watch.lap(f"build_{i}")
    workload.warmup()
    watch.lap("warmup_s")

    tracer = Tracer(f"{args.workload}-s{args.seed}-p{os.getpid()}") if args.trace else None
    min_ops = 2 if tracer else 1
    walls, parts, errors, wrong = [], [], [], []
    plain_walls, traced_walls = [], []
    index = 0
    deadline = time.perf_counter() + args.seconds
    while index < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 1
        try:
            with tracer.tracing(index) if traced else contextlib.nullcontext():
                part, outputs = workload.op(index)
            wall = sum(part["stages"].values())
        except Exception as exc:  # a failed operation is recorded, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            errors.append(f"op {index}: {type(exc).__name__}: {exc}")
            index += 1
            continue
        (traced_walls if traced else plain_walls).append(wall)
        reasons = workload.check(index, outputs)
        del outputs  # bulk-ingest's outputs hold a 205 MB set; free it before the next op
        if reasons:
            wrong.append(f"op {index}: " + "; ".join(reasons))
        else:
            walls.append(wall)
            parts.append(part)
        index += 1

    with tracer.tracing(-1) if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        probe_metrics, probe_errors, probe_wrong = workload.probe()
        probe_s = time.perf_counter() - t0

    factor = SPEED_LOG.factor()
    # The speed readings and each operation's stage times, for a look behind
    # the medians.
    stage_log = OUT / "stages" / f"{args.workload}-s{args.seed}.json"
    stage_log.parent.mkdir(parents=True, exist_ok=True)
    stage_log.write_text(json.dumps({
        "readings": list(zip(SPEED_LOG.times, SPEED_LOG.loops)), "factor": factor,
        "setup": watch.wall, "ops": [p["stages"] for p in parts],
    }))

    # The result line counts the timed operations; the probes' outcomes show
    # in failed_ops_ratio, in the failure lines and, for wrong outputs, in correct.
    attempted, failed = index, len(errors) + len(wrong)
    probes = workload.probes
    report_metrics = {"op_s": (stages_total(parts) * factor, "s", len(walls)),
                      "op_wall_s": (stages_total(parts), "s", len(walls)),
                      "setup_s": (setup_total(watch.wall) * factor, "s", SETUP_REPEATS),
                      "setup_wall_s": (setup_total(watch.wall), "s", SETUP_REPEATS),
                      "peak_rss_mb": (peak_rss_mb(not args.trace), "MB", 1)}
    for source in (workload.summarize(parts) if walls else {}), probe_metrics:
        for name, m in source.items():
            report_metrics[name] = (m.value, m.unit, m.n)
    all_failed = failed + len(probe_errors) + len(probe_wrong)
    report_metrics["failed_ops_ratio"] = (all_failed / (attempted + probes), "ratio",
                                          attempted + probes)

    context = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds, "loop": "closed, 1 client",
        "git_sha": git_sha(), "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name(np), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "craft_threads": os.environ.get("CRAFT_THREADS"), "nproc": nproc,
        "memory_cap_bytes": cap, "speed_readings": len(SPEED_LOG.loops),
        "calibration_factor": factor,
        "output_checks": workload.checks_run,
        "pinned_outputs": workload.pinned,
    }
    print("context " + json.dumps(context, sort_keys=True))
    for name, (value, unit, n) in report_metrics.items():
        print(f"metric {args.workload} {name} = {value:.6g} {unit} (n={n})")
    print(f"ops {args.workload}: {attempted} attempted, {failed} failed; "
          f"probes: {probes} attempted, {len(probe_errors) + len(probe_wrong)} failed")
    for reason in errors + wrong + probe_errors + probe_wrong:
        print(f"failure {args.workload}: {reason}")

    if tracer:
        overhead = median(traced_walls) / median(plain_walls) - 1.0 if plain_walls else 0.0
        layers = tracer.per_layer(len(traced_walls), sum(traced_walls) + probe_s, overhead)
        for name in tracer.missing:
            print(f"trace: no function {name} to wrap")
        tracer.write(OUT / "traces" / f"{args.workload}-s{args.seed}.jsonl")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_METRICS}
    else:
        values = {name: report_metrics[name][0] for name, _ in END_TO_END}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    correct = failed == 0 and not probe_wrong and bool(walls)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        exit_code = main(sys.argv[1:])
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    sys.exit(exit_code)
