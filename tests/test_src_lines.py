"""`tools/src_lines.py`: each line of a module falls in exactly one kind."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,

over three lines."""

import os  # a trailing comment is code


class Box:
    """One line."""

    # a comment
    def size(self):
        """Two
        lines."""
        return "#" + """not a docstring"""
'''


def test_each_line_has_one_kind():
    counts = src_lines.classify(SOURCE)
    assert counts == {"total": 15, "code": 4, "docstring": 6, "comment": 1, "blank": 4}


def test_every_line_of_the_package_is_counted_once():
    rows = src_lines.report(None)
    paths = sorted((ROOT / "src" / "chordalg").glob("*.py"))
    assert sorted(rows) == sorted([p.name for p in paths] + ["all"])
    for path in paths:
        row = rows[path.name]
        assert row["total"] == len(path.read_text().splitlines())
        assert row["total"] == row["code"] + row["docstring"] + row["comment"] + row["blank"]
    assert rows["all"]["total"] == sum(rows[p.name]["total"] for p in paths)
