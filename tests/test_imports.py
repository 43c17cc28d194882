"""Every module-level import in the package is used (no linter is assumed)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "landscape_lab"


def unused_imports(source: str) -> list:
    """Names a module's top-level imports bind but its code never reads."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "import scipy.sparse\nfrom dataclasses import dataclass, field\n"
              "x: np.ndarray = scipy.sparse.eye(2)\n")
    assert unused_imports(source) == ["dataclass", "field"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_module_level_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
