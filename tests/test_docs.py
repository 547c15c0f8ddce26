import ast
import importlib
import importlib.util
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


CITED_MODULES = ("core", "dataio", "config", "anchors", "adapter", "losses", "mmd", "train",
                 "evaluation", "experiments", "cli")


def test_readme_names_resolve():
    # every backticked `module.name` (or `module.Class.attr`) that README
    # cites from a craft module is an attribute of that module
    pattern = rf"`({'|'.join(CITED_MODULES)})((?:\.\w+)+)"
    cited = set(re.findall(pattern, README.read_text()))
    assert cited
    missing = [module + path for module, path in sorted(cited) if not resolves(module + path)]
    assert not missing, f"README cites names that do not exist: {missing}"


def test_no_module_imports_a_private_name_of_a_sibling():
    # a name one module takes from another is public; an underscore name
    # stays inside the module that defines it
    private = []
    for path in sorted((ROOT / "src" / "craft").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "craft"
                                                     or (node.module or "").startswith("craft.")):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert not private, f"private names imported across modules: {private}"


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


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_gives_wins_median_gap_and_parent_iqr():
    bench_pairs = load_script("bench_pairs")
    parent = [0.48, 0.50, 0.46, 0.47, 0.52]
    change = [0.40, 0.37, 0.47, 0.38, 0.36]  # pair 2 is a loss
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, op_s, rss in (("parent", p, 100.0), ("change", c, 100.0 + pair)):
            runs.append({"workload": "w", "pair": pair, "side": side,
                         "result": {"attempted": 10, "failed": int(side == "change"),
                                    "metrics": {"op_s": {"value": op_s},
                                                "ops_per_s": {"value": 1 / op_s},
                                                "peak_rss_mb": {"value": rss}}}})
    runs.append({**runs[0], "pair": 5})  # an incomplete pair is left out
    out = bench_pairs.summary(runs, {"op_s": "lower", "ops_per_s": "higher"})["w"]
    assert out["ops"] == {"parent": {"attempted": 50, "failed": 0},
                          "change": {"attempted": 50, "failed": 5}}
    op_s = out["op_s"]
    assert (op_s["pairs"], op_s["change_wins"]) == (5, 4)
    assert op_s["parent"] == {"q1": 0.47, "median": 0.48, "q3": 0.50}
    assert op_s["change"]["median"] == 0.38
    assert op_s["median_gap"] == 0.38 - 0.48
    assert op_s["parent_iqr"] == 0.50 - 0.47
    assert out["ops_per_s"]["change_wins"] == 4  # higher is better
    rss = out["peak_rss_mb"]  # lower by default; a tie is no win
    assert (rss["change_wins"], rss["median_gap"], rss["parent_iqr"]) == (0, 2.0, 0.0)
