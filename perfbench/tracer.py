"""In-memory span tracer that wraps chordalg functions from the outside.

Nothing in the library knows about it: ``install`` replaces each listed
function at every module attribute that is bound to it (for example
``chordalg.mvc.classify_paths`` as well as ``chordalg.cliqueforest.
classify_paths``) and each listed method on its class, and ``uninstall``
puts the originals back. A name that no longer exists is recorded as absent
instead of failing, so the benchmark keeps running across refactors.

Every call of a wrapped function is one span: name, start, end, parent span
and instance id, kept in flat arrays and written out by ``write_spans``.
Self time is the span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from chordalg.cliqueforest import INTERNAL, PENDANT

perf_counter = time.perf_counter

# (layer, attribute path in that module). A dotted path names a method.
TRACED = [
    ("graphs", "mcs_order"),
    ("graphs", "bfs_distances"),
    ("graphs", "omega_oracle"),
    ("graphs", "alpha_oracle"),
    ("cliqueforest", "clique_forest"),
    ("cliqueforest", "classify_paths"),
    ("cliqueforest", "remove_paths"),
    ("cliqueforest", "strips_from_traces"),
    ("intervals", "color_strip"),
    ("intervals", "extend_coloring"),
    ("intervals", "mis_strip"),
    ("intervals", "clique_path"),
    ("intervals", "require_interval"),
    ("intervals", "remove_dominated"),
    ("intervals", "mis_interval"),
    ("mvc", "prune_layers"),
    ("mvc", "color_layers"),
    ("mvc", "correct_colors"),
    ("mvc", "build_correction_job"),
    ("mvc", "MvcProgram.step"),
    ("mis", "mis_chordal_run"),
    ("mis", "absorbing_mis"),
    ("mis", "MisProgram.step"),
    ("localsim", "run"),
]


def _bfs_hook(tr, args, result, parent, self_s):
    tr.count["graphs.bfs_distances.reached"] += len(result)
    if tr.in_localsim:
        tr.count["graphs.bfs_distances.under_localsim_s"] += self_s


def _oracle_hook(tr, args, result, parent, self_s):
    tr.count["graphs.oracles_s"] += self_s


def _forest_hook(tr, args, result, parent, self_s):
    tr.count["cliqueforest.cliques"] += len(result)


def _remove_hook(tr, args, result, parent, self_s):
    paths = args[2]
    tr.count["cliqueforest.peel_iterations"] += 1
    tr.count["cliqueforest.internal_peeled"] += sum(p.kind == INTERNAL for p in paths)
    tr.count["cliqueforest.pendant_peeled"] += sum(p.kind == PENDANT for p in paths)


def _strips_hook(tr, args, result, parent, self_s):
    # components handed to a MIS branch are the strips the peel loop cuts
    if parent == "mis.mis_chordal_run":
        tr.count["mis.components"] += len(result)


def _mis_strip_hook(tr, args, result, parent, self_s):
    if parent == "mis.mis_chordal_run":
        tr.count["mis.approx_components"] += 1


def _layers_hook(tr, args, result, parent, self_s):
    tr.count["mvc.layers"] += result.num_layers


def _job_hook(tr, args, result, parent, self_s):
    tr.count["mvc.correction_jobs"] += 1
    tr.count["mvc.conflicted_jobs"] += bool(result.conflicted)
    tr.count["mvc.recolored_nodes"] += len(result.changed)


def _run_hook(tr, args, result, parent, self_s):
    msgs = result.message_counts
    svcs = result.service_counts
    tr.count["localsim.rounds"] += result.rounds_elapsed
    tr.count["localsim.rounds_visited"] += len(msgs)
    tr.count["localsim.messages"] += sum(msgs)
    tr.count["localsim.service_requests"] += sum(svcs)
    tr.count["localsim.quiet_rounds"] += sum(
        1 for m, s in zip(msgs, svcs) if m == 0 and s == 0)


HOOKS: Dict[str, Callable] = {
    "graphs.bfs_distances": _bfs_hook,
    "graphs.omega_oracle": _oracle_hook,
    "graphs.alpha_oracle": _oracle_hook,
    "cliqueforest.clique_forest": _forest_hook,
    "cliqueforest.remove_paths": _remove_hook,
    "cliqueforest.strips_from_traces": _strips_hook,
    "intervals.mis_strip": _mis_strip_hook,
    "mvc.prune_layers": _layers_hook,
    "mvc.build_correction_job": _job_hook,
    "localsim.run": _run_hook,
}


class Tracer:
    """Spans and counters for one traced pass; install/uninstall around it."""

    def __init__(self):
        self.names: List[str] = []
        self.ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: List[list] = []  # [span id, name id, child time, start]
        self.instance = -1
        self.in_localsim = 0
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.count: Counter = Counter()
        self.absent: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return self.ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame, _ = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(frame)

    def _open(self, nid: int):
        stack = self.stack
        parent = stack[-1] if stack else None
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_instance.append(self.instance)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [sid, nid, 0.0, perf_counter()]
        stack.append(frame)
        return frame, (self.names[parent[1]] if parent else None)

    def _close(self, frame) -> float:
        end = perf_counter()
        self.stack.pop()
        sid, nid, child, start = frame
        dur = end - start
        self.span_start[sid] = start
        self.span_end[sid] = end
        name = self.names[nid]
        self.calls[name] += 1
        own = dur - child
        self.self_s[name] += own
        if self.stack:
            self.stack[-1][2] += dur
        return own

    def _wrap(self, name: str, fn, hook: Optional[Callable]):
        tracer = self
        nid = self._name_id(name)
        marks_localsim = name == "localsim.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = tracer._open(nid)
            if marks_localsim:
                tracer.in_localsim += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if marks_localsim:
                    tracer.in_localsim -= 1
                own = tracer._close(frame)
            if hook is not None:
                hook(tracer, args, result, parent, own)
            return result

        return traced

    # -- patching ------------------------------------------------------------
    def install(self):
        self.absent = []
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "chordalg" or key.startswith("chordalg.")) and m is not None]
        for layer, path in TRACED:
            name = "%s.%s" % (layer, path)
            home = sys.modules.get("chordalg." + layer)
            owner = home
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, HOOKS.get(name))
            if len(parts) > 1:
                self._patch(owner, parts[-1], original, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_sum_by_root(self) -> Dict[str, float]:
        """Self time summed over each root span's subtree, from the span
        arrays alone (a check on the running per-name totals)."""
        n = len(self.span_start)
        child = [0.0] * n
        root = [0] * n
        out: Dict[str, float] = {}
        for i in range(n):
            p = self.span_parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        for i in range(n):
            name = self.names[self.span_name[root[i]]]
            own = self.span_end[i] - self.span_start[i] - child[i]
            out[name] = out.get(name, 0.0) + own
        return out

    # -- output --------------------------------------------------------------
    def write_spans(self, path):
        """A JSON header line, then the raw native-endian array of each column
        in header order: name (an index into the header's `names`), parent (a
        span id, -1 for a root), instance, start and end (perf_counter
        seconds). Span i is row i of every column."""
        columns = [("name", self.span_name), ("parent", self.span_parent),
                   ("instance", self.span_instance), ("start", self.span_start),
                   ("end", self.span_end)]
        header = {
            "spans": len(self.span_start), "names": self.names,
            "columns": [[col, arr.typecode] for col, arr in columns],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(fh)
