import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def readme_block(heading: str) -> str:
    """The first python code block under the README's ``heading``."""
    section = README.read_text().split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(readme_block("## Library example"), "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and 0.0 <= float(printed[0]) <= 1.0


def resolves(name: str) -> bool:
    """Whether ``module.attr[.attr...]`` names an attribute of ``craft.module``."""
    module, *path = name.split(".")
    obj = importlib.import_module(f"craft.{module}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj is not None


CITED_MODULES = ("core", "dataio", "anchors", "adapter", "losses", "mmd", "train",
                 "evaluation", "experiments", "cli")


def test_readme_names_resolve():
    # every backticked `module.name` (or `module.Class.attr`) that README
    # cites from a craft module is an attribute of that module
    pattern = rf"`({'|'.join(CITED_MODULES)})((?:\.\w+)+)"
    cited = set(re.findall(pattern, README.read_text()))
    assert cited
    missing = [module + path for module, path in sorted(cited) if not resolves(module + path)]
    assert not missing, f"README cites names that do not exist: {missing}"


# Wrapped by perfbench/spans.py and dropped from it with the next change to
# the benchmark; the library no longer has them.
STALE_BENCHMARK_NAMES = {"adapter.Adapter.to_flat", "adapter.Adapter.from_flat",
                         "mmd.KernelSpec.matrix"}


def benchmark_names() -> set[str]:
    """The craft names the benchmark uses, read from its source without
    importing it: spans.py's TARGETS, and workloads.py's craft imports and
    its attribute uses of the craft modules it imports whole."""
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    targets = next(node.value for node in spans.body if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "TARGETS")
    names = {f"{module}.{attr}" for module, attr in ast.literal_eval(targets)}
    workloads = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    modules = set()
    for node in ast.walk(workloads):
        if isinstance(node, ast.ImportFrom) and node.module == "craft":
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("craft."):
            module = node.module.removeprefix("craft.")
            names |= {f"{module}.{alias.name}" for alias in node.names}
    for node in ast.walk(workloads):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add(f"{node.value.id}.{node.attr}")
    return names | modules


def test_benchmark_names_resolve():
    # a deleted or renamed function that perfbench wraps would otherwise only
    # show as a per-layer metric reading 0
    names = benchmark_names()
    assert {"train.sgd_step", "experiments.evaluate_prepared", "cli.main"} <= names
    missing = sorted(name for name in names if not resolves(name))
    assert set(missing) <= STALE_BENCHMARK_NAMES, f"perfbench uses missing craft names: {missing}"


def test_bench_pairs_refuses_checkouts_at_paths_of_unequal_length(tmp_path):
    # peak RSS follows the checkout path's length, so pairs from paths of
    # unequal length are refused with one line and exit 2, before any run
    parent, change, out = tmp_path / "a", tmp_path / "bb", tmp_path / "bench.json"
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
                             str(parent), str(change), "--out", str(out),
                             "--pairs", "desk-tables=1"], capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stdout == "" and result.stderr.count("\n") == 1
    assert str(parent) in result.stderr and str(change) in result.stderr
    assert not out.exists()
