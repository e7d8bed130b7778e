"""Line counts of `src/chordalg/*.py`, split into code, docstring, comment
and blank lines.

Usage, from the repository root:

    python tools/src_lines.py            # the working tree
    python tools/src_lines.py HEAD~1     # a git revision
    python tools/src_lines.py A B        # revision A, revision B, and B - A

It needs nothing outside the standard library (and `git` for a revision).
A line is blank if it holds only whitespace, docstring if it lies in the
string that opens a module, class or function body (blank lines inside it
included), comment if it holds only a comment, and code otherwise. The
report has one row per module and a total row; given two revisions, a last
row holds the change of each total.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/chordalg"
KINDS = ("total", "code", "docstring", "comment", "blank")


def sources(rev: Optional[str]) -> Dict[str, str]:
    """Module name -> source of every `src/chordalg/*.py`, in the working
    tree or at git revision `rev`."""
    if rev is None:
        return {p.name: p.read_text() for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    names = subprocess.run(
        ["git", "ls-tree", "--name-only", rev, PACKAGE + "/"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.split()
    return {Path(name).name: subprocess.run(
        ["git", "show", "%s:%s" % (rev, name)], cwd=ROOT, check=True,
        capture_output=True, text=True).stdout
        for name in sorted(names) if name.endswith(".py")}


def classify(source: str) -> Dict[str, int]:
    """The counts of each kind of line in `source`."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    counts["total"] = len(lines)
    for number, line in enumerate(lines, 1):
        text = line.strip()
        if number in docstring:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def report(rev: Optional[str]) -> Dict[str, Dict[str, int]]:
    """Module name -> its counts, and "all" -> their sums."""
    rows = {name: classify(text) for name, text in sources(rev).items()}
    rows["all"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    return rows


def main(argv: List[str]) -> int:
    revs: List[Optional[str]] = list(argv) or [None]
    if len(revs) > 2:
        print("usage: src_lines.py [REV [REV]]", file=sys.stderr)
        return 2
    fmt = "%-18s" + "%10s" * len(KINDS)
    totals = []
    for rev in revs:
        rows = report(rev)
        print("# %s at %s" % (PACKAGE, rev or "the working tree"))
        print(fmt % ("module", *KINDS))
        for name, row in rows.items():
            print(fmt % (name, *(row[kind] for kind in KINDS)))
        totals.append(rows["all"])
    if len(totals) == 2:
        print(fmt % ("change", *("%+d" % (totals[1][k] - totals[0][k]) for k in KINDS)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
