"""Size of each module: wc -l lines, code lines and tokens.

Code lines are those holding a token that is not a comment, a docstring or
layout; tokens are all that tokenize yields. Usage:
    python tools/loc.py [FILE ...]    (default: src/sixcoloring/*.py)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def sizes(text: str) -> tuple:
    """(lines, code lines, tokens) of one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    code = {n for t in tokens if t.type not in LAYOUT
            for n in range(t.start[0], t.end[0] + 1)} - docs
    return text.count("\n"), len(code), len(tokens)


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    paths = [Path(p) for p in sys.argv[1:]] or sorted((root / "src" / "sixcoloring").glob("*.py"))
    rows = [(p.name, *sizes(p.read_text())) for p in paths]
    rows.append(("total", *(sum(r[k] for r in rows) for k in (1, 2, 3))))
    print(f"{'module':<18}{'lines':>7}{'code':>7}{'tokens':>8}")
    for name, lines, code, tokens in rows:
        print(f"{name:<18}{lines:>7}{code:>7}{tokens:>8}")
