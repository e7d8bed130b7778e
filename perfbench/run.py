"""Closed-loop benchmark of the four calls behind ``chordalg run``.

    python3 perfbench/run.py --workload random_trees --seed 1 --seconds 30 --trace 0

One process, one thread: instances are solved one after another. The seed
fixes a small batch of instances. The run makes up to PASSES passes over the
batch, stopping once ``--seconds`` have passed but never before the first
pass is whole; each pass sets every instance up again (timed) and solves it.
One solve times ``mvc_pipeline``, ``mvc_distributed`` and the centralized and
distributed MIS calls. Times are host-calibrated seconds: a fixed reference
kernel runs around and inside every timed step (see ``calibrated``). The
first solve of an instance is checked against the exact oracles, later ones
must repeat its outputs. The last line of standard output is the
result object; the line before it is a record with the environment, the
output digest, and the per-instance times with their tail percentile and
sample count. Both are also written to ``perfbench/out/``.

With ``--trace 1`` every instance is solved once untraced and once with the
tracer installed. The run reports per-layer self times and counters of the
traced solves and their overhead against the untraced ones, and is incorrect
if the traced outputs differ. Spans go to ``perfbench/out/``.

See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

MVC_EPS = Fraction(1, 2)
MIS_EPS = Fraction(2, 5)
TAIL_BEYOND = 10  # a tail percentile needs this many samples above it
TAIL_PERCENTILES = (99, 95, 90)
# A call's time on an instance is the median of its solves in the run, of
# which there are at most PASSES.
PASSES = 5
# On a shared 2-vCPU host the same CPU-bound code runs up to 2.8x slower at
# times, with no steal time: the process is on the CPU but the CPU is slower.
# The speed wanders within a second and also shifts for minutes, so raw wall
# times of runs minutes apart are not comparable. A fixed reference kernel
# (`ref_kernel`) runs before and after every timed step and, from a SIGALRM
# handler, every SAMPLE_EVERY_S inside it; the step's own time (its wall time
# less the kernel's) is scaled by REF_KERNEL_S over the kernel's mean time.
# That is the step's time on the host at full speed. REF_KERNEL_S is the
# kernel's time at full speed on that host (CPython 3.11).
REF_KERNEL_S = 0.0008
REF_NODES = 1500
SAMPLE_EVERY_S = 0.05


def _import_library():
    """Import chordalg from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import chordalg
    except ImportError as exc:
        raise SystemExit("error: cannot import chordalg from %s: %s" % (src, exc))
    if Path(chordalg.__file__).resolve().parent.parent != src:
        raise SystemExit("error: chordalg was imported from %s, not from %s"
                         % (chordalg.__file__, src))


_import_library()

from chordalg import fileio, intervals, mis, mvc  # noqa: E402
from chordalg.generators import gen_chordal, gen_interval  # noqa: E402
from chordalg.graphs import alpha_oracle, omega_oracle, verify_coloring, verify_is  # noqa: E402
from longpaths import gen_long_paths  # noqa: E402
from tracer import Tracer  # noqa: E402


class Workload(NamedTuple):
    name: str
    # One pass over the batch takes about 20 s on a 2-vCPU host at full speed
    # (CPython 3.11). Many instances solved about once each give a steadier
    # median than a few instances solved many times.
    batch: int
    traced: int  # the traced run takes the first `traced` instances
    make: Callable[[int], object]  # generator seed -> graph
    interval: bool  # MIS through the interval routines


WORKLOADS = {w.name: w for w in [
    Workload("random_trees", 12, 4, lambda s: gen_chordal(2048, s, max_clique=12), False),
    Workload("long_paths", 12, 4, lambda s: gen_long_paths(4096, s, max_clique=8), False),
    Workload("dense_intervals", 5, 2, lambda s: gen_interval(2048, s), True),
]}

CALLS = ["mvc_central", "mvc_local", "mis_central", "mis_local"]

END_TO_END = [
    ("setup_s", "s"),
    ("mvc_central_s_p50", "s"), ("mvc_central_s_tail", "s"),
    ("mvc_local_s_p50", "s"), ("mvc_local_s_tail", "s"),
    ("mis_central_s_p50", "s"), ("mis_central_s_tail", "s"),
    ("mis_local_s_p50", "s"), ("mis_local_s_tail", "s"),
    ("nodes_per_s", "1/s"),
    ("mvc_rounds_mean", "rounds"), ("mis_rounds_mean", "rounds"),
    ("mvc_palette_ratio_max", "ratio"), ("mis_ratio_max", "ratio"),
    ("ok_frac", "ratio"), ("peak_rss_mb", "MB"),
]


def _self(name):
    return [(name + ".self_s", "s")]


def _calls_self(name):
    return [(name + ".calls", "count"), (name + ".self_s", "s")]


PER_LAYER = (
    _calls_self("graphs.mcs_order")
    + [("graphs.bfs_distances.calls", "count"),
       ("graphs.bfs_distances.reached", "count"),
       ("graphs.bfs_distances.self_s", "s"),
       ("graphs.bfs_distances.under_localsim_s", "s"),
       ("graphs.oracles_s", "s")]
    + _calls_self("cliqueforest.clique_forest")
    + _self("cliqueforest.classify_paths")
    + _self("cliqueforest.remove_paths")
    + [("cliqueforest.strips_from_traces.calls", "count"),
       ("cliqueforest.cliques", "count"),
       ("cliqueforest.peel_iterations", "count"),
       ("cliqueforest.internal_peeled", "count"),
       ("cliqueforest.pendant_peeled", "count")]
    + _calls_self("intervals.color_strip")
    + _calls_self("intervals.extend_coloring")
    + _calls_self("intervals.mis_strip")
    + _calls_self("intervals.clique_path")
    + _self("intervals.require_interval")
    + _self("intervals.remove_dominated")
    + _self("intervals.mis_interval")
    + _self("mvc.prune_layers")
    + _self("mvc.color_layers")
    + _self("mvc.correct_colors")
    + [("mvc.layers", "count"), ("mvc.recolored_nodes", "count"),
       ("mvc.conflicted_jobs", "count"), ("mvc.conflicted_job_ratio", "ratio"),
       ("mvc.palette_above_omega", "count")]
    + _calls_self("mvc.MvcProgram.step")
    + _self("mis.mis_chordal_run")
    + _calls_self("mis.absorbing_mis")
    + [("mis.approx_components", "count"), ("mis.exact_components", "count")]
    + _calls_self("mis.MisProgram.step")
    + _self("localsim.run")
    + [("localsim.rounds", "rounds"), ("localsim.rounds_visited", "rounds"),
       ("localsim.messages", "count"), ("localsim.service_requests", "count"),
       ("localsim.quiet_round_ratio", "ratio")]
    + [("bench.%s.self_s" % c, "s") for c in ["setup"] + CALLS]
    + [("trace.untraced_calls_s", "s"), ("trace.traced_calls_s", "s"),
       ("trace.self_sum_s", "s"), ("trace.overhead_ratio", "ratio")]
)


# ---------------------------------------------------------------------------
# instances


@dataclass
class Instance:
    """One generated graph with the oracle values its outputs are checked
    against, and the solution texts of its first good solve."""

    index: int
    seed: int
    g: object
    omega: int
    alpha: int
    setup_s: float
    texts: Optional[str] = None


def set_up(workload, run_seed, i, sample=True):
    """Generate instance i of the run's batch and its oracle values, timing
    both (calibrated seconds)."""
    seed = run_seed * 1000 + i

    def build():
        g = workload.make(seed)
        return g, omega_oracle(g), len(alpha_oracle(g))

    (g, omega, alpha), _, setup_s = calibrated(build, sample=sample)
    return Instance(i, seed, g, omega, alpha, setup_s)


def solve(workload, g, tracer=None):
    """The four calls; returns their outputs, wall times and calibrated
    times. With a tracer each call is a root span; the reference kernel runs
    outside it."""
    wall, cal = {}, {}

    def timed(name, fn, *args):
        def call():
            with tracer.span("bench." + name) if tracer else contextlib.nullcontext():
                return fn(*args)

        result, wall[name], cal[name] = calibrated(call, sample=tracer is None)
        return result

    mvc_eps, mis_eps = float(MVC_EPS), float(MIS_EPS)
    run = timed("mvc_central", mvc.mvc_pipeline, g, mvc_eps)
    mvc_local, mvc_transcript = timed("mvc_local", mvc.mvc_distributed, g, mvc_eps)
    if workload.interval:
        mis_central = timed("mis_central", intervals.mis_interval, g, mis_eps)
        mis_local, mis_transcript = timed(
            "mis_local", mis.mis_interval_distributed, g, mis_eps)
    else:
        mis_central = timed("mis_central", mis.mis_chordal_centralized, g, mis_eps)
        mis_local, mis_transcript = timed(
            "mis_local", mis.mis_chordal_distributed, g, mis_eps)
    out = {
        "run": run, "mvc_local": mvc_local, "mvc_rounds": mvc_transcript.rounds_elapsed,
        "mis_central": mis_central, "mis_local": mis_local,
        "mis_rounds": mis_transcript.rounds_elapsed,
    }
    return out, wall, cal


def check(inst, out):
    """Problems with one instance's outputs (empty when all checks hold)."""
    g = inst.g
    problems = []
    colors = out["run"].final_colors
    if set(colors) != g.nodes:
        problems.append("coloring does not cover the node set")
    verdict = verify_coloring(g, colors)
    budget = intervals.color_budget(out["run"].k, inst.omega)
    if not verdict.legal:
        problems.append("coloring is not legal")
    if verdict.palette > budget:
        problems.append("palette %d above budget %d" % (verdict.palette, budget))
    if budget > (1 + MVC_EPS) * inst.omega:
        problems.append("budget %d above (1+eps)*omega" % budget)
    if out["mvc_local"] != colors:
        problems.append("local coloring differs from central")
    members = out["mis_central"]
    if not verify_is(g, members):
        problems.append("set is not independent")
    if not members or Fraction(inst.alpha, len(members)) > 1 + MIS_EPS:
        problems.append("alpha/|I| = %d/%d above 1+eps" % (inst.alpha, len(members)))
    if out["mis_local"] != members:
        problems.append("local set differs from central")
    return problems


def solution_texts(out):
    return (fileio.coloring_to_text(out["run"].final_colors)
            + fileio.independent_set_to_text(out["mis_central"]))


class Pass:
    """Per-instance call times (calibrated and wall), quality figures and
    failures of the solves made over one batch (possibly several times)."""

    def __init__(self, batch):
        self.times = {c: [[] for _ in range(batch)] for c in CALLS}
        self.wall = {c: [[] for _ in range(batch)] for c in CALLS}
        self.attempted = 0
        self.failed = 0
        self.quality = {}  # instance index -> figures of its first good solve
        self.texts = {}

    def visit(self, workload, inst, tracer=None):
        """Solve and check one instance; a later solve must also repeat the
        solution texts of the first."""
        self.attempted += 1
        gc.collect()  # every solve starts from the same collector state
        try:
            out, wall, cal = solve(workload, inst.g, tracer)
            texts = solution_texts(out)
            problems = check(inst, out)
            if inst.texts is not None and texts != inst.texts:
                problems.append("outputs changed between solves")
        except Exception:  # a failing solve is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        if problems:
            print("instance %d (seed %d): %s" % (inst.index, inst.seed, "; ".join(problems)),
                  file=sys.stderr)
            self.failed += 1
            return
        inst.texts = texts
        for c in CALLS:
            self.times[c][inst.index].append(cal[c])
            self.wall[c][inst.index].append(wall[c])
        if inst.index not in self.quality:
            palette = len(set(out["run"].final_colors.values()))
            self.quality[inst.index] = {
                "mvc_rounds": out["mvc_rounds"], "mis_rounds": out["mis_rounds"],
                "palette_ratio": palette / inst.omega,
                "mis_ratio": inst.alpha / len(out["mis_central"]),
                "palette_above_omega": palette > inst.omega,
            }
            self.texts[inst.index] = texts

    def figure(self, key):
        return [q[key] for q in self.quality.values()]

    def digest(self):
        h = hashlib.sha256()
        for i in sorted(self.texts):
            h.update(self.texts[i].encode())
            h.update(b"\0")
        return h.hexdigest()


# ---------------------------------------------------------------------------
# statistics


def tail(samples):
    """(value, percentile): the highest of TAIL_PERCENTILES (nearest rank)
    with at least TAIL_BEYOND samples above it, else the maximum (100).

    A fixed ladder keeps the reported percentile from drifting with small
    changes in the sample count; below 100 samples the tail is the maximum.
    """
    s = sorted(samples)
    n = len(s)
    if n == 0:
        return 0.0, 0.0
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return s[rank - 1], float(pct)
    return s[-1], 100.0


def median(samples):
    return statistics.median(samples) if samples else 0.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ref_graph():
    """The reference kernel's fixed graph: each node joins three random
    earlier ones (random.Random(5))."""
    rng = random.Random(5)
    adj = {v: set() for v in range(REF_NODES)}
    for v in range(1, REF_NODES):
        for _ in range(3):
            u = rng.randrange(v)
            adj[u].add(v)
            adj[v].add(u)
    return adj


_REF_ADJ = _ref_graph()


def _search():
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in _REF_ADJ[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt


def ref_kernel():
    """Seconds that a breadth-first search of a fixed graph takes now.

    It is the benchmark's own code, so no change to the library moves it; it
    uses the dict and set operations that dominate the library, so it slows
    down with the host in about the same proportion. An untimed search runs
    first: timed straight after library code, whose data has evicted the
    graph from the caches, the search is about 1.5x slower, and by how much
    would depend on the library's memory use."""
    _search()
    start = time.perf_counter()
    _search()
    return time.perf_counter() - start


def calibrated(fn, *args, sample=True):
    """(result, own seconds, calibrated seconds) of fn(*args).

    The reference kernel runs before and after the call and, when `sample`
    is set, every SAMPLE_EVERY_S during it from a SIGALRM handler. Own seconds
    are the wall time less the kernel runs inside the call; calibrated
    seconds scale them by REF_KERNEL_S over the mean of all kernel runs. A
    traced call is not sampled, so that no kernel time lands in its spans."""
    kernel = [ref_kernel()]
    spent = []  # seconds of each kernel run inside the call, untimed search included

    def on_alarm(signum, frame):
        start = time.perf_counter()
        kernel.append(ref_kernel())
        spent.append(time.perf_counter() - start)

    if sample:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        if sample:
            signal.signal(signal.SIGALRM, previous)
    own = wall - sum(spent)
    kernel.append(ref_kernel())
    return result, own, own * REF_KERNEL_S / statistics.fmean(kernel)


# ---------------------------------------------------------------------------
# environment


def _git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chordalg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "source_sha256": h.hexdigest(),
        "debug": __debug__,
    }


# ---------------------------------------------------------------------------
# runs


def untraced_run(workload, run_seed, seconds):
    """Up to PASSES passes over the batch. The first pass is always whole;
    after it the run stops as soon as `seconds` have elapsed. Each pass sets
    every instance up again just before solving it, so that the set-ups of
    one instance are as far apart in time as its solves; the instance solved
    is always the first one built."""
    p = Pass(workload.batch)
    instances = []
    setup_times = [[] for _ in range(workload.batch)]
    deadline = time.perf_counter() + seconds
    for pass_no in range(PASSES):
        if pass_no and time.perf_counter() >= deadline:
            break
        for i in range(workload.batch):
            if pass_no and time.perf_counter() >= deadline:
                break
            fresh = set_up(workload, run_seed, i)
            setup_times[i].append(fresh.setup_s)
            if pass_no == 0:
                instances.append(fresh)
                # the held batch is the benchmark's, not the program's: keep
                # the cyclic collector from rescanning it in every timed call
                gc.freeze()
            elif (fresh.omega, fresh.alpha) != (instances[i].omega, instances[i].alpha):
                print("instance %d: set-up is not deterministic" % i, file=sys.stderr)
                p.attempted += 1
                p.failed += 1
                continue
            del fresh
            p.visit(workload, instances[i])
    for inst, times in zip(instances, setup_times):
        inst.setup_s = median(times)
    return instances, p, setup_times


def end_to_end_metrics(instances, p):
    metrics = {"setup_s": median([inst.setup_s for inst in instances])}
    tails = {}
    total = 0.0
    for c in CALLS:
        per_instance = [median(s) for s in p.times[c] if s]  # median of its solves
        total += sum(per_instance)
        metrics[c + "_s_p50"] = median(per_instance)
        value, pct = tail(per_instance)
        metrics[c + "_s_tail"] = value
        tails[c] = {"percentile": pct, "samples": len(per_instance),
                    "solves": p.times[c], "wall_solves": p.wall[c]}
    solved = sum(len(inst.g) for inst in instances if p.times[CALLS[0]][inst.index])
    metrics["nodes_per_s"] = solved / total if total else 0.0
    # the mean, not the maximum: one instance in ~30 of long_paths needs more
    # layers (313 rounds, not 245), so a batch maximum jumps by 28% between
    # seeds, while every instance's rounds still count in the mean
    metrics["mvc_rounds_mean"] = statistics.fmean(p.figure("mvc_rounds"))
    metrics["mis_rounds_mean"] = statistics.fmean(p.figure("mis_rounds"))
    metrics["mvc_palette_ratio_max"] = max(p.figure("palette_ratio"), default=0.0)
    metrics["mis_ratio_max"] = max(p.figure("mis_ratio"), default=0.0)
    metrics["ok_frac"] = 1.0 - p.failed / p.attempted
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, tails


def traced_run(workload, instances, run_seed, spans_path):
    """Each instance solved untraced, then set up again and solved traced,
    so that both sides of the overhead see the same machine state."""
    plain = Pass(len(instances))
    traced = Pass(len(instances))
    tracer = Tracer()
    for inst in instances:
        plain.visit(workload, inst)
        tracer.instance = inst.index
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                again = set_up(workload, run_seed, inst.index, sample=False)
            again.texts = inst.texts
            traced.visit(workload, again, tracer)
        finally:
            tracer.uninstall()
    tracer.write_spans(spans_path)
    return plain, traced, tracer


def per_layer_metrics(plain, traced, tracer):
    metrics = {}
    for name, unit in PER_LAYER:
        if name.endswith(".calls"):
            metrics[name] = tracer.calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            metrics[name] = tracer.self_s.get(name[:-len(".self_s")], 0.0)
        else:
            metrics[name] = tracer.count[name]
    count = tracer.count
    jobs = count["mvc.correction_jobs"]
    metrics["mvc.conflicted_job_ratio"] = count["mvc.conflicted_jobs"] / jobs if jobs else 0.0
    visited = count["localsim.rounds_visited"]
    metrics["localsim.quiet_round_ratio"] = count["localsim.quiet_rounds"] / visited if visited else 0.0
    metrics["mvc.palette_above_omega"] = sum(traced.figure("palette_above_omega"))
    metrics["mis.exact_components"] = count["mis.components"] - count["mis.approx_components"]
    untraced_s = sum(t for c in CALLS for s in plain.wall[c] for t in s)
    traced_s = sum(t for c in CALLS for s in traced.wall[c] for t in s)
    metrics["trace.untraced_calls_s"] = untraced_s
    metrics["trace.traced_calls_s"] = traced_s
    by_root = tracer.self_sum_by_root()
    metrics["trace.self_sum_s"] = sum(by_root.get("bench." + c, 0.0) for c in CALLS)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not __debug__:
        # the simulator's Send-latency check exists only under __debug__, so
        # an optimized interpreter would measure a different program
        print("error: run without -O; __debug__ is off", file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = "%s-s%d-t%d" % (workload.name, args.seed, args.trace)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(),
    }
    units = dict(END_TO_END + PER_LAYER)
    if args.trace:
        record["batch"] = workload.traced
        instances = [set_up(workload, args.seed, i) for i in range(workload.traced)]
        gc.freeze()
        plain, traced, tracer = traced_run(
            workload, instances, args.seed, OUT_DIR / ("spans-%s.bin" % workload.name))
        metrics = per_layer_metrics(plain, traced, tracer)
        same = plain.digest() == traced.digest()
        record.update({
            "digest": plain.digest(), "traced_digest": traced.digest(),
            "traced_outputs_match": same, "absent": tracer.absent,
            "spans": len(tracer.span_start),
        })
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        correct = failed == 0 and same and len(plain.texts) == workload.traced
    else:
        instances, p, setup_times = untraced_run(workload, args.seed, args.seconds)
        metrics, tails = end_to_end_metrics(instances, p)
        record.update({"digest": p.digest(), "tails": tails, "setup_s": setup_times,
                       "ref_kernel_s": REF_KERNEL_S,
                       "quality": [p.quality[i] for i in sorted(p.quality)]})
        attempted, failed = p.attempted, p.failed
        record["batch"] = workload.batch
        correct = failed == 0 and len(p.texts) == workload.batch
    record.update({
        "instance_seeds": [inst.seed for inst in instances],
        "nodes": [len(inst.g) for inst in instances],
        "edges": [inst.g.num_edges for inst in instances],
        "omega": [inst.omega for inst in instances],
        "alpha": [inst.alpha for inst in instances],
    })
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record_line = json.dumps({"record": record}, sort_keys=True)
    result_line = json.dumps(result)
    (OUT_DIR / ("%s.json" % stem)).write_text(record_line + "\n" + result_line + "\n")
    print(record_line)
    print(result_line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
