"""The README's library example runs against the package as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


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
