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
