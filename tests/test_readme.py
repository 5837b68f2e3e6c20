"""The README's documented library snippet runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md quick start", "exec"), namespace)
    assert namespace["report"].targets[0].crb_x > 0
    assert namespace["bounds"].targets[0].crb_x > 0
