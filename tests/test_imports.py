"""Every name a package module imports is used there or re-exported, and
every name it defines is used somewhere."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sixcoloring"


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads and
    does not list in __all__."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used | exported]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_and_respects_all():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nfrom os import path, sep\nimport json\n"
              "__all__ = ['sep']\nprint(np.pi)\n")
    assert unused_imports(source) == ["path", "json"]


def defined_names(source: str) -> list:
    """Top-level names a module binds by def, class or assignment, dunders aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def referenced_names(source: str) -> set:
    """Names a module reads: as a name, an attribute or an imported name, or
    as a string of dotted names (getattr, monkeypatch and tracer targets).
    Definitions and __all__ lists do not count."""
    tree = ast.parse(source)
    exported = {id(n) for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for n in ast.walk(node.value)}
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, ast.alias):
            seen.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exported and re.fullmatch(r"[\w.]+", node.value)):
            seen.update(node.value.split("."))
    return seen


def orphans(source: str, references: set) -> list:
    return [n for n in defined_names(source) if n not in references]


def test_no_orphan_definitions():
    references = set()
    for path in [p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")]:
        references |= referenced_names(path.read_text())
    found = {path.name: orphans(path.read_text(), references)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_detects_orphans():
    source = ("import os\nA = 1\nB: int = 2\n__all__ = ['C']\n"
              "def used():\n    return A\nclass C:\n    pass\nD = E = os.sep\n")
    refs = referenced_names(source) | referenced_names("x.used\ngetattr(m, 'pkg.E')\n")
    assert orphans(source, refs) == ["B", "C", "D"]


def test_import_loads_no_heavy_package():
    # set-up time is the import plus constants(); these test-only packages
    # would each add to it
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, sixcoloring, sixcoloring.cli\n"
            "print(sorted({m.split('.')[0] for m in sys.modules}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    loaded = set(ast.literal_eval(proc.stdout))
    assert "sixcoloring" in loaded and "numpy" in loaded
    assert loaded & {"scipy", "sympy", "mpmath", "hypothesis", "shapely"} == set()
    # monte_carlo_check imports its thread pool when it runs one
    assert "concurrent" not in loaded
