"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import nfcrb

PACKAGE = Path(nfcrb.__file__).resolve().parent
# __init__ imports only to re-export
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the import statements of source that nothing else reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = ("import os\nimport numpy as np\n"
              "from dataclasses import dataclass, field\nnp.zeros(dataclass)\n")
    assert unused_imports(source) == [(1, "os"), (3, "field")]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_what_it_uses(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
