"""Frozen text formats: graphs, clique forest dumps, solutions, CSV reports.

Graph files: first a line `n <count>`, then one `node <id>` line per isolated
node and one `u v` line per edge (u < v, sorted). Coloring files hold `id
color` lines, independent-set files one `id` per line, both sorted by id.
These layouts are golden-tested; do not change them. The readers reject a
line with extra tokens, an item listed twice and a `node` line for a node
that has an edge.
"""

from __future__ import annotations

import csv
import io
import time

from .errors import ParseError
from .graphs import Graph

CSV_FIELDS = [
    "algorithm", "n", "edges", "eps", "result", "oracle",
    "ratio", "rounds", "layers", "wall_time",
]


def graph_to_text(g: Graph) -> str:
    lines = ["n %d" % len(g)]
    for v in g.sorted_nodes():
        if g.degree(v) == 0:
            lines.append("node %d" % v)
    for u, v in g.edges():
        lines.append("%d %d" % (u, v))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n "):
        raise ParseError("graph file must start with a 'n <count>' line")
    try:
        count = int(lines[0].split(maxsplit=1)[1])
    except ValueError:
        raise ParseError("malformed header: %r" % lines[0])
    g = Graph()
    listed = set()  # node ids of `node` lines, sorted pairs of edge lines
    for ln in lines[1:]:
        try:
            a, b = ln.split()
            if a == "node":
                item = int(b)
                g.add_node(item)
            else:
                item = tuple(sorted((int(a), int(b))))
                g.add_edge(*item)
        except ValueError as exc:
            raise ParseError("bad line %r: %s" % (ln, exc))
        if item in listed:
            raise ParseError("line %r lists %r twice" % (ln, item))
        listed.add(item)
    joined = sorted(v for v in listed if isinstance(v, int) and g.degree(v))
    if joined:
        raise ParseError("node %d has a 'node' line and an edge" % joined[0])
    if len(g) != count:
        raise ParseError("header says %d nodes, file defines %d" % (count, len(g)))
    return g


def write_graph(g: Graph, path):
    with open(path, "w") as fh:
        fh.write(graph_to_text(g))


def read_graph(path) -> Graph:
    with open(path) as fh:
        return graph_from_text(fh.read())


def forest_dump(forest) -> str:
    """Canonical clique forest dump: `C<i>: ...` member lines, then `E: i-j`."""
    lines = []
    for i, word in enumerate(forest.words):
        lines.append("C%d: %s" % (i, ",".join(str(v) for v in word)))
    for i, j in sorted(forest.edges):
        lines.append("E: %d-%d" % (i, j))
    return "\n".join(lines) + "\n"


def coloring_to_text(colors) -> str:
    return "".join("%d %d\n" % (v, colors[v]) for v in sorted(colors))


def coloring_from_text(text: str):
    colors = {}
    for ln in filter(str.strip, text.splitlines()):
        try:
            v, c = map(int, ln.split())
        except ValueError:
            raise ParseError("bad coloring line %r" % ln)
        if v in colors:
            raise ParseError("node %d is colored twice" % v)
        colors[v] = c
    return colors


def independent_set_to_text(members) -> str:
    return "".join("%d\n" % v for v in sorted(members))


def independent_set_from_text(text: str):
    members = set()
    for ln in filter(str.strip, text.splitlines()):
        try:
            v = int(ln)
        except ValueError:
            raise ParseError("bad independent-set line %r" % ln)
        if v in members:
            raise ParseError("node %d is listed twice" % v)
        members.add(v)
    return members


class ReportWriter:
    """Appends one CSV row per run; emits the header when the file is fresh."""

    def __init__(self, path=None):
        self.path = path
        self._rows = []

    def add(self, **row):
        row = {k: row.get(k, "") for k in CSV_FIELDS}
        self._rows.append(row)
        if self.path:
            fresh = True
            try:
                with open(self.path) as fh:
                    fresh = fh.read(1) == ""
            except FileNotFoundError:
                pass
            with open(self.path, "a", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
                if fresh:
                    writer.writeheader()
                writer.writerow(row)
        return row

    def text(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in self._rows:
            writer.writerow(row)
        return buf.getvalue()


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
