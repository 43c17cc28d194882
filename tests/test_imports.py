"""Lints on the package source (no linter is assumed): every import, at
module level or in a function body, is used in its scope, no module imports
logging or dataclasses, no module draws from random, secrets or numpy.random,
no module calls LAPACK through numpy but selftest's dense cross-check, and
every module-level function and class, and every class member, is reached
from the package itself, the acceptance suite or the benchmark's traced spans."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "landscape_lab"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_nodes(scope):
    """The nodes inside scope that are not inside a function it defines."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list:
    """Names an import binds but its scope never reads, in source order: the
    module's code for an import outside functions, the function's own code
    (its nested functions included) for an import in a function body."""
    tree = ast.parse(source)
    found = []
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, FUNCTIONS))]:
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        found += [((node.lineno, node.col_offset), name)
                  for node in own_nodes(scope) if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
                  if name not in read]
    return [name for _, name in sorted(found, key=lambda item: item[0])]


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "import scipy.sparse\nfrom dataclasses import dataclass, field\n"
              "x: np.ndarray = scipy.sparse.eye(2)\n")
    assert unused_imports(source) == ["dataclass", "field"]
    # a function's import counts as read only in that function
    source = ("def run():\n    from .stats import fit, curve as c\n    if c:\n"
              "        import logging\n    return fit(lambda: c)\n\n"
              "def other():\n    return logging\n")
    assert unused_imports(source) == ["logging"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_module_level_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def imported_modules(source: str) -> set:
    """The top-level package of every absolute import, in any scope."""
    return {name.split(".")[0] for node in ast.walk(ast.parse(source))
            for name in ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                         else [node.module] if isinstance(node, ast.ImportFrom)
                         and node.level == 0 else [])}


def test_checker_finds_every_import():
    source = ("import os.path as p\nfrom . import cli\nfrom .stats import fit\n"
              "def f():\n    from logging import getLogger\n")
    assert imported_modules(source) == {"os", "logging"}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_logging(module):
    """Skipped samples are printed on stderr, where every other report goes."""
    assert "logging" not in imported_modules((PACKAGE / module).read_text())


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_dataclasses(module):
    """Records derive from landscape_lab.Record: a dataclass execs its generated
    methods when its module is imported."""
    assert "dataclasses" not in imported_modules((PACKAGE / module).read_text())


def random_sources(source: str) -> set:
    """Every import of random, secrets or numpy.random, in any scope, and every
    np.random or numpy.random the code names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.add(f"{node.value.id}.{node.attr}")
    return {name for name in names if name.split(".")[0] in ("random", "secrets")
            or name.split(".")[:2] in (["numpy", "random"], ["np", "random"])}


def test_checker_finds_every_random_source():
    source = ("import numpy as np\nfrom numpy import random\nimport secrets\n"
              "def f():\n    from random import shuffle\n    return np.random.rand()\n"
              "def g():\n    import numpy.random.bit_generator\n    return np.fft, sys\n")
    assert random_sources(source) == {"numpy.random", "secrets", "random.shuffle",
                                      "np.random", "numpy.random.bit_generator"}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_draws_from_random_or_numpy_random(module):
    """The bootstrap draws from stats' own PCG64: importing numpy.random maps
    OpenSSL's libcrypto through secrets, and its streams may change with numpy."""
    assert random_sources((PACKAGE / module).read_text()) == set()


def lapack_calls(source: str) -> set:
    """(enclosing function, name) for every polyfit, lstsq and numpy.linalg the
    code names or imports; the function is None at module level."""
    found = set()

    def visit(node, function):
        if isinstance(node, FUNCTIONS):
            function = node.name
        names = []
        if isinstance(node, ast.Attribute):
            names.append(ast.unparse(node))
        elif isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        found.update((function, name) for name in names
                     if name.split(".")[-1] in ("polyfit", "lstsq")
                     or name.split(".")[:2] in (["numpy", "linalg"], ["np", "linalg"]))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_checker_finds_every_lapack_call():
    source = ("import numpy as np\nfrom numpy.linalg import lstsq\n"
              "def fit(x, y):\n    return np.polyfit(x, y, 1), lstsq\n"
              "def solve(A, b):\n    import numpy.linalg\n    return np.linalg.solve(A, b)\n"
              "def fine(x):\n    return np.dot(x, x), sp.linalg.norm(x)\n")
    assert lapack_calls(source) == {(None, "numpy.linalg.lstsq"), ("fit", "np.polyfit"),
                                    ("fit", "lstsq"), ("solve", "numpy.linalg"),
                                    ("solve", "np.linalg"), ("solve", "np.linalg.solve")}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_calls_lapack(module):
    """LAPACK's first call maps about 1.3 MB of OpenBLAS code into the process;
    only selftest's dense cross-check solves with it."""
    allowed = ({("_run_selftest", "np.linalg"), ("_run_selftest", "np.linalg.solve")}
               if module == "cli.py" else set())
    assert lapack_calls((PACKAGE / module).read_text()) == allowed


def referenced_names(source: str) -> set:
    """Every name the code reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def read_attributes(source: str) -> set:
    """Every name the code reads as an attribute (x.name, not x.name = ...)."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def keyword_names(source: str) -> set:
    """Every keyword argument name the code passes, as in f(name=...)."""
    return {node.arg for node in ast.walk(ast.parse(source)) if isinstance(node, ast.keyword)}


def class_members(cls: ast.ClassDef) -> list:
    """A class's methods and properties (no dunders), its annotated fields, and
    the attributes its __init__ assigns on self."""
    members = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            members.append(node.target.id)
        elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
            members += [target.attr for stmt in ast.walk(node) if isinstance(stmt, ast.Assign)
                        for target in stmt.targets if isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name) and target.value.id == "self"]
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
            members.append(node.name)
    return members


def unreached(source: str, reached: set, attributes: set) -> list:
    """source's module-level functions and classes whose names reached lacks,
    and its class members (as Class.member) whose names attributes lacks."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in reached:
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{member}" for member in class_members(node)
                      if member not in attributes]
    return found


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
    assert unreached(source, reached, read_attributes(source)) == [
        "Dropped", "Dropped.used", "only_tested"]
    assert traced_names("TRACED = (('m', 'f'), ('n', 'g'))\nOTHER = 1\n") == {"f", "g"}
    source = ("class Box:\n    size: int\n    label: str\n    LIMIT = 3\n\n"
              "    def __init__(self):\n        self.seen = 1\n        self.history = []\n\n"
              "    @property\n    def area(self):\n        return self.size ** 2\n\n"
              "    def only_tested(self):\n        self.history = None\n")
    attributes = (read_attributes(source) | read_attributes("print(box.seen)\n")
                  | keyword_names("Box(label='x')\n"))
    assert unreached(source, {"Box"}, attributes) == ["Box.history", "Box.area",
                                                      "Box.only_tested"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_member_is_reached_outside_unit_tests(module):
    """A member counts as reached when src/, the acceptance suite or the traced
    spans read it; a class member when they read it as an attribute, or the
    acceptance suite passes it as a keyword."""
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    spans = (ROOT / "perfbench" / "spans.py").read_text()
    reads = [p.read_text() for p in PACKAGE.glob("*.py")] + [acceptance, spans]
    reached = set().union(*map(referenced_names, reads), traced_names(spans))
    attributes = set().union(*map(read_attributes, reads), keyword_names(acceptance))
    assert unreached((PACKAGE / module).read_text(), reached, attributes) == []
