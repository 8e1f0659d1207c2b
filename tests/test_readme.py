"""The README's library example runs against the package as it stands, and
its Layout table names every module of the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = README.parent / "src" / "mecoff"


def library_example() -> str:
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README has no python block under 'Library example'"
    return match.group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out
    assert printed.strip(), "the example printed nothing"
    assert printed.startswith("(") or printed.startswith("no feasible placement")


def test_layout_table_lists_every_module():
    layout = README.read_text().split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `mecoff\.(\w+)` \|", layout, re.M)
    assert len(rows) == len(set(rows)), "a module has two Layout rows"
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert set(rows) == modules
