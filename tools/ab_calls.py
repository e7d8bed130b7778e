"""Paired timings of the benchmark's set-up and four calls: one source tree
against another, both loaded in one process.

Usage, from the repository root:

    python tools/ab_calls.py HEAD .              # the last commit against the working tree
    python tools/ab_calls.py A B --workloads long_paths --seeds 4 --rounds 8
    python tools/ab_calls.py . . --nodes 40 --seeds 1 --rounds 2   # a quick self-check

Each of A and B is a directory that holds `src/chordalg` and
`perfbench/longpaths.py`, or else a git revision, unpacked with `git archive`
into a temporary directory. Each tree's `chordalg` is loaded under its own
package name (`ab_a`, `ab_b`), and its `perfbench/longpaths.py` is read
against that package; nothing under `perfbench/` is changed or imported as is.

The workloads are the benchmark's (`perfbench/run.py`): `gen_chordal(2048,
seed, max_clique=12)`, `gen_long_paths(4096, seed, max_clique=8)` and
`gen_interval(2048, seed)`, with MIS through the interval routines on the
last; `--nodes` sets every size to one number. For each workload and seed
1000 + i (i < `--seeds`), each tree builds the instance once and runs
set-up (`omega_oracle` and `alpha_oracle`) and the four calls on it, and the
run stops unless both trees give equal oracle values and equal outputs
(colorings, sets, serialized transcripts). Then, for `--rounds` rounds, the
trees take turns at running first, and each times set-up and the four calls
on its own instance, with a `gc.collect()` before each. Times are raw wall
seconds of `time.perf_counter`; a pair is A's and B's time of one call in
one round on one instance.

For each workload and call the report gives A's and B's median, the median
of the B/A ratios of the pairs and the number of pairs in which B was
faster. It needs nothing outside the standard library (and `git` for a
revision).
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import types
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]
MVC_EPS = 0.5
MIS_EPS = 0.4
CALLS = ["setup", "mvc_central", "mvc_local", "mis_central", "mis_local"]


class Workload(NamedTuple):
    nodes: int
    make: Callable  # (tree, n, seed) -> graph
    interval: bool  # MIS through the interval routines


WORKLOADS = {
    "random_trees": Workload(
        2048, lambda t, n, s: t.lib.generators.gen_chordal(n, s, max_clique=12), False),
    "long_paths": Workload(
        4096, lambda t, n, s: t.longpaths.gen_long_paths(n, s, max_clique=8), False),
    "dense_intervals": Workload(
        2048, lambda t, n, s: t.lib.generators.gen_interval(n, s), True),
}


class Tree(NamedTuple):
    label: str
    lib: types.ModuleType  # the tree's chordalg package
    longpaths: types.ModuleType


def _unpack(rev: str, into: Path) -> Path:
    """`git archive` of `rev` extracted into the empty directory `into`."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def _load_package(name: str, path: Path) -> types.ModuleType:
    """The package in directory `path`, imported as `name`; its modules
    import each other relatively, so they load as `name.graphs` and so on.
    A package loaded earlier under `name` is dropped first."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _load_longpaths(name: str, path: Path, lib: types.ModuleType) -> types.ModuleType:
    """`perfbench/longpaths.py` run with `chordalg` bound to `lib` while it
    imports, so that it builds graphs of that tree."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    names = ("chordalg", "chordalg.graphs")
    saved = {k: sys.modules.get(k) for k in names}
    sys.modules.update(zip(names, (lib, lib.graphs)))
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        for k, old in saved.items():
            if old is None:
                del sys.modules[k]
            else:
                sys.modules[k] = old
    return module


def load_tree(spec: str, name: str, scratch: Path) -> Tree:
    """The tree at directory `spec`, or at git revision `spec`, loaded as
    package `name`."""
    root = Path(spec)
    if not root.is_dir():
        root = _unpack(spec, scratch / name)
    lib = _load_package(name, root / "src" / "chordalg")
    return Tree(spec, lib, _load_longpaths(name + "_longpaths",
                                           root / "perfbench" / "longpaths.py", lib))


def calls(tree: Tree, interval: bool) -> Dict[str, Tuple[Callable, Callable]]:
    """Call name -> (the call on a graph, its output -> plain data to compare
    across trees). Only the call is timed."""
    lib = tree.lib
    graphs, mvc, mis = lib.graphs, lib.mvc, lib.mis
    same = lambda out: out
    local = lambda out: (out[0], out[1].serialize())
    if interval:
        mis_central = lambda g: lib.intervals.mis_interval(g, MIS_EPS)
        mis_local = lambda g: mis.mis_interval_distributed(g, MIS_EPS)
    else:
        mis_central = lambda g: mis.mis_chordal_centralized(g, MIS_EPS)
        mis_local = lambda g: mis.mis_chordal_distributed(g, MIS_EPS)
    return {
        "setup": (lambda g: (graphs.omega_oracle(g), graphs.alpha_oracle(g)), same),
        "mvc_central": (lambda g: mvc.mvc_pipeline(g, MVC_EPS),
                        lambda run: run.final_colors),
        "mvc_local": (lambda g: mvc.mvc_distributed(g, MVC_EPS), local),
        "mis_central": (mis_central, same),
        "mis_local": (mis_local, local),
    }


def timed(fn, g) -> float:
    gc.collect()
    start = time.perf_counter()
    fn(g)
    return time.perf_counter() - start


def compare(workload: str, seeds: int, rounds: int, trees: List[Tree],
            nodes: int = 0) -> Dict[str, List[List[float]]]:
    """Call name -> [A's times, B's times], paired by index, after checking
    that both trees give equal outputs on every instance."""
    w = WORKLOADS[workload]
    n = nodes or w.nodes
    times = {c: [[], []] for c in CALLS}
    for i in range(seeds):
        seed = 1000 + i
        runs = []
        for tree in trees:
            g = w.make(tree, n, seed)
            fns = calls(tree, w.interval)
            runs.append((g, fns, [plain(fn(g)) for fn, plain in map(fns.get, CALLS)]))
        for c, a, b in zip(CALLS, runs[0][2], runs[1][2]):
            if a != b:
                raise SystemExit("error: %s seed %d: %s differs between %s and %s"
                                 % (workload, seed, c, trees[0].label, trees[1].label))
        for r in range(rounds):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                g, fns, _ = runs[side]
                for c in CALLS:
                    times[c][side].append(timed(fns[c][0], g))
    return times


def summary(a: List[float], b: List[float]):
    """(A's median, B's median, median B/A ratio, pairs where B is faster)."""
    ratios = [y / x for x, y in zip(a, b)]
    return (statistics.median(a), statistics.median(b), statistics.median(ratios),
            sum(y < x for x, y in zip(a, b)))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline: a directory or a git revision")
    parser.add_argument("b", help="candidate: a directory or a git revision")
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--nodes", type=int, default=0,
                        help="the size of every workload's graphs (default: the benchmark's)")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.rounds < 1 or args.nodes < 0:
        parser.error("--seeds and --rounds must be positive, --nodes not negative")
    with tempfile.TemporaryDirectory() as scratch:
        trees = [load_tree(spec, name, Path(scratch))
                 for spec, name in ((args.a, "ab_a"), (args.b, "ab_b"))]
        print("# A = %s, B = %s; seeds 1000..%d, %d rounds, raw seconds"
              % (args.a, args.b, 999 + args.seeds, args.rounds))
        fmt = "%-16s %-12s %10s %10s %7s %9s"
        print(fmt % ("workload", "call", "A_median", "B_median", "B/A", "B_faster"))
        for workload in args.workloads:
            times = compare(workload, args.seeds, args.rounds, trees, args.nodes)
            for c in CALLS:
                a, b, ratio, wins = summary(*times[c])
                print(fmt % (workload, c, "%.5f" % a, "%.5f" % b, "%.3f" % ratio,
                             "%d/%d" % (wins, len(times[c][0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
