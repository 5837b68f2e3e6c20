"""The README's documented library snippet runs against the current API, and its eval
field list is the CLI's."""

import re
from pathlib import Path

from nfcrb.cli import FIELDS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md quick start", "exec"), namespace)
    assert namespace["report"].targets[0].crb_x > 0
    assert namespace["bounds"].targets[0].crb_x > 0


def test_readme_eval_fields_are_cli_fields():
    # a field added to the cell record must be documented in the eval section
    section = README.read_text(encoding="utf-8").split("### eval", 1)[1].split("###", 1)[0]
    listed = re.search(r"field \(([^)]*)\)", section).group(1)
    assert tuple(re.findall(r"`([^`]+)`", listed)) == FIELDS
