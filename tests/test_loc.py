"""tools/loc.py's counts agree with the files it reads."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOC = ROOT / "tools" / "loc.py"


def load_loc():
    spec = importlib.util.spec_from_file_location("loc", LOC)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    return loc


def test_totals_match_the_files():
    out = subprocess.run([sys.executable, str(LOC)], capture_output=True, text=True, timeout=60,
                         check=True).stdout
    rows = {name: [int(x) for x in counts] for name, *counts in map(str.split, out.splitlines()[1:])}
    files = sorted((ROOT / "src" / "sixcoloring").glob("*.py"))
    assert list(rows) == [p.name for p in files] + ["total"]
    for p in files:  # wc -l counts newline bytes
        assert rows[p.name][0] == p.read_bytes().count(b"\n")
        assert 0 < rows[p.name][1] <= rows[p.name][0]
    assert rows["total"] == [sum(rows[p.name][k] for p in files) for k in range(3)]


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    source = ('"""Doc.\n\nMore."""\n\nimport os  # used\n\n\ndef f(x):\n    """One."""\n'
              '    # a comment\n    return (x +\n            len(os.sep))\n')
    lines, code, _ = load_loc().sizes(source)
    assert (lines, code) == (12, 4)
