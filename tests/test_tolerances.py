"""Every small float literal in the package is a named module-level tolerance."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sixcoloring"

# below this magnitude a float literal is a tolerance, which needs a name
SMALL = 1e-4


def unnamed_small_floats(source: str) -> list:
    """(line, value) of each nonzero float literal of magnitude below SMALL
    that is not the value of a module-level UPPER_CASE assignment."""
    tree = ast.parse(source)
    named = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and all(
                isinstance(t, ast.Name) and t.id.isupper() for t in node.targets):
            named |= {id(n) for n in ast.walk(node.value)}
    return [(n.lineno, n.value) for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, float)
            and 0 < abs(n.value) < SMALL and id(n) not in named]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_small_floats_are_named(path):
    assert unnamed_small_floats(path.read_text()) == []


def test_detects_unnamed_and_respects_names():
    source = ("TOL = 1e-9\nlower_tol = 2e-9\nBIG = 0.5\n"
              "def f(x):\n    LOCAL = 3e-9\n    return x > -4e-12 and x < 1e-4 + 0.0\n")
    assert unnamed_small_floats(source) == [(2, 2e-9), (5, 3e-9), (6, 4e-12)]
