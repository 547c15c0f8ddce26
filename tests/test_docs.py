import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str) -> str:
    """The first python code block under the README's ``heading``."""
    section = README.read_text().split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(readme_block("## Library example"), "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and 0.0 <= float(printed[0]) <= 1.0


CITED_MODULES = ("core", "dataio", "anchors", "adapter", "losses", "mmd", "train",
                 "evaluation", "experiments", "cli")


def test_readme_names_resolve():
    # every backticked `module.name` (or `module.Class.attr`) that README
    # cites from a craft module is an attribute of that module
    pattern = rf"`({'|'.join(CITED_MODULES)})((?:\.\w+)+)"
    cited = set(re.findall(pattern, README.read_text()))
    assert cited
    missing = []
    for module, path in sorted(cited):
        obj = importlib.import_module(f"craft.{module}")
        for attr in path.lstrip(".").split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(module + path)
    assert not missing, f"README cites names that do not exist: {missing}"
