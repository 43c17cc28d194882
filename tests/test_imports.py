"""Lints on the package source (no linter is assumed): every module-level
import is used, and every module-level function and class is reached from
the package itself, the acceptance suite or the benchmark's traced spans."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "landscape_lab"


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


def referenced_names(source: str) -> set:
    """Every name the code reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def unreached(source: str, reached: set) -> list:
    """source's module-level functions and classes whose names reached lacks."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in reached]


def traced_names(source: str) -> set:
    """The function names of the TRACED pairs in perfbench/spans.py, read, not imported."""
    traced = next(node.value for node in ast.parse(source).body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    return {name for _, name in ast.literal_eval(traced)}


def test_checker_flags_an_unreached_member():
    source = ("import numpy as np\n\nclass Kept:\n    pass\n\nclass Dropped:\n"
              "    def used(self):\n        return helper()\n\ndef helper():\n    pass\n\n"
              "def only_tested():\n    return np.ones(2)\n")
    reached = referenced_names(source) | referenced_names("x = mod.Kept()\n")
    assert unreached(source, reached) == ["Dropped", "only_tested"]
    assert traced_names("TRACED = (('m', 'f'), ('n', 'g'))\nOTHER = 1\n") == {"f", "g"}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_member_is_reached_outside_unit_tests(module):
    reached = set().union(
        *(referenced_names(p.read_text()) for p in PACKAGE.glob("*.py")),
        referenced_names((ROOT / "tests" / "test_acceptance.py").read_text()),
        traced_names((ROOT / "perfbench" / "spans.py").read_text()))
    assert unreached((PACKAGE / module).read_text(), reached) == []
