"""The README's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under the quick tour heading"
    return match.group(1)


def test_readme_quick_tour_runs():
    exec(compile(_quick_tour(), str(README), "exec"), {})
