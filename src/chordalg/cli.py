"""Experiment harness: generate instances, run algorithms, verify artifacts,
and sweep benchmark grids into CSV reports.

Exit codes: 0 success, 2 bad arguments, 3 parse error, 4 not chordal,
5 not interval, 6 bad epsilon, 7 round cap exceeded, 8 verification failed.
The environment variable CHORDALG_OUT names the default output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import fileio
from .errors import (
    BadEpsilon, BadSpec, EpsilonTooSmall, NotChordal, NotInterval,
    NotProperInterval, ParseError, RoundCapExceeded, VerificationFailed,
    set_debug_invariants,
)
from .generators import gen_caterpillar, gen_chordal, gen_interval, gen_path, gen_spider
from .graphs import (
    alpha_oracle, first_conflict, omega_oracle, verify_coloring, verify_is,
)
from .intervals import mis_interval
from .mis import mis_chordal_centralized, mis_chordal_distributed, mis_interval_distributed
from .mvc import mvc_distributed_run, mvc_pipeline

EXIT_CODES = {
    BadSpec: 2,
    ParseError: 3,
    NotChordal: 4,
    NotInterval: 5,
    NotProperInterval: 5,
    EpsilonTooSmall: 6,
    BadEpsilon: 6,
    RoundCapExceeded: 7,
    VerificationFailed: 8,
}


def _out_dir():
    return os.environ.get("CHORDALG_OUT", ".")


def _build_graph(family, args):
    try:
        if family == "chordal":
            return gen_chordal(args.n, args.seed, args.max_clique)
        if family == "interval":
            return gen_interval(args.n, args.seed)
        if family == "path":
            return gen_path(args.n)
        if family == "caterpillar":
            return gen_caterpillar(args.spine, args.legs)
        if family == "spider":
            return gen_spider(args.legs, args.leg_len)
    except ValueError as exc:  # the generators' argument checks
        raise BadSpec("%s: %s" % (family, exc))
    raise BadSpec("unknown family %r" % family)


def cmd_gen(args) -> int:
    g = _build_graph(args.family, args)
    out = args.out
    if out is None:
        name = "%s-%d-s%d.el" % (args.family, len(g), args.seed)
        out = os.path.join(_out_dir(), name)
    fileio.write_graph(g, out)
    print("wrote %s (%d nodes, %d edges)" % (out, len(g), g.num_edges))
    return 0


def _verify_solution(graph_path, solution_path, kind, eps=None):
    g = fileio.read_graph(graph_path)
    with open(solution_path) as fh:
        text = fh.read()
    if kind == "coloring":
        colors = fileio.coloring_from_text(text)
        if set(colors) != g.nodes:
            raise VerificationFailed("coloring does not cover the node set")
        verdict = verify_coloring(g, colors)
        if not verdict.legal:
            raise VerificationFailed(
                "conflict on edge %s-%s" % first_conflict(g, colors))
        oracle = omega_oracle(g)
        ratio = verdict.palette / oracle if oracle else 1.0
        return {"result": verdict.palette, "oracle": oracle, "ratio": ratio}
    members = fileio.independent_set_from_text(text)
    if not verify_is(g, members):
        raise VerificationFailed("solution set is not independent")
    oracle = len(alpha_oracle(g))
    ratio = oracle / len(members) if members else math.inf
    return {"result": len(members), "oracle": oracle, "ratio": ratio}


def _require_round_cap(args):
    if args.round_cap is not None and args.round_cap < 1:
        raise BadSpec("--round-cap must be at least 1, not %d" % args.round_cap)


def cmd_run(args, report=None) -> int:
    set_debug_invariants(args.debug_invariants)
    _require_round_cap(args)
    g = fileio.read_graph(args.graph)
    rounds = ""
    layers = ""
    with fileio.Stopwatch() as clock:
        if args.algorithm == "mvc":
            pipeline = mvc_pipeline(g, args.eps)
            if args.mode == "central":
                solution = pipeline.final_colors
            else:
                solution, transcript = mvc_distributed_run(pipeline, args.round_cap)
                rounds = transcript.rounds_elapsed
            layers = pipeline.layering.num_layers
            per_layer = []
            for i in range(1, layers + 1):
                nodes = pipeline.layering.layer_nodes(i)
                per_layer.append(len({solution[v] for v in nodes}))
            print("layers=%d per-layer palettes=%s omega=%d"
                  % (layers, per_layer, pipeline.omega))
            kind = "coloring"
        elif args.algorithm == "mis":
            if args.mode == "central":
                solution = mis_chordal_centralized(g, args.eps)
            else:
                solution, transcript = mis_chordal_distributed(g, args.eps, args.round_cap)
                rounds = transcript.rounds_elapsed
            kind = "is"
        elif args.algorithm == "mis-interval":
            if args.mode == "central":
                solution = mis_interval(g, args.eps)
            else:
                solution, transcript = mis_interval_distributed(g, args.eps, args.round_cap)
                rounds = transcript.rounds_elapsed
            kind = "is"
        else:
            raise BadSpec("unknown algorithm %r" % args.algorithm)
    if args.transcript and args.mode == "local":
        with open(args.transcript, "w") as fh:
            fh.write(transcript.serialize())
    sol_path = args.solution
    if sol_path is None:
        base = os.path.splitext(os.path.basename(args.graph))[0]
        sol_path = os.path.join(
            _out_dir(), "%s-%s-%s.sol" % (base, args.algorithm, args.mode))
    with open(sol_path, "w") as fh:
        if kind == "coloring":
            fh.write(fileio.coloring_to_text(solution))
        else:
            fh.write(fileio.independent_set_to_text(solution))
    # the reported ratio is recomputed from the artifacts on disk
    checked = _verify_solution(args.graph, sol_path, kind)
    writer = report or fileio.ReportWriter(args.out)
    row = writer.add(
        algorithm=args.algorithm, n=len(g), edges=g.num_edges, eps=args.eps,
        result=checked["result"], oracle=checked["oracle"],
        ratio="%.4f" % checked["ratio"], rounds=rounds, layers=layers,
        wall_time="%.3f" % clock.elapsed,
    )
    print(",".join(str(row[k]) for k in fileio.CSV_FIELDS))
    return 0


def cmd_verify(args) -> int:
    if args.eps is not None and args.eps < 0:
        raise BadEpsilon("--eps must not be negative, not %g" % args.eps)
    kind = args.kind
    if kind == "auto":
        with open(args.solution) as fh:
            first = fh.readline().split()
        kind = "coloring" if len(first) == 2 else "is"
    checked = _verify_solution(args.graph, args.solution, kind)
    if args.eps is not None and checked["ratio"] > 1.0 + args.eps + 1e-12:
        raise VerificationFailed(
            "ratio %.4f exceeds 1 + eps = %.4f" % (checked["ratio"], 1.0 + args.eps))
    print("ok result=%s oracle=%s ratio=%.4f"
          % (checked["result"], checked["oracle"], checked["ratio"]))
    return 0


def _fit_slope(xs, ys):
    """Least-squares slope of ys over xs; 0 without two distinct xs."""
    n = len(xs)
    if not n:
        return 0.0
    mx = sum(xs) / n
    my = sum(ys) / n
    den = sum((x - mx) ** 2 for x in xs)
    if den == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def cmd_bench(args) -> int:
    set_debug_invariants(args.debug_invariants)
    _require_round_cap(args)
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise BadSpec("--sizes takes integers separated by commas, not %r" % args.sizes)
    if min(sizes) < 1 or args.max_clique < 1:
        raise BadSpec("--sizes and --max-clique must be at least 1")
    writer = fileio.ReportWriter(args.out)
    points = []
    for n in sizes:
        for seed in range(args.seeds):
            g = gen_chordal(n, seed, args.max_clique)
            if args.suite == "mvc":
                omega = omega_oracle(g)
                if omega == 0 or args.eps < 2.0 / omega:
                    continue
                pipeline = mvc_pipeline(g, args.eps)
                _, transcript = mvc_distributed_run(pipeline, args.round_cap)
                oracle = omega
                result = len(set(pipeline.final_colors.values()))
                ratio = result / oracle
            else:
                members, transcript = mis_chordal_distributed(g, args.eps, args.round_cap)
                oracle = len(alpha_oracle(g))
                result = len(members)
                ratio = oracle / result if result else math.inf
            rounds = transcript.rounds_elapsed
            writer.add(algorithm=args.suite, n=n, edges=g.num_edges, eps=args.eps,
                       result=result, oracle=oracle, ratio="%.4f" % ratio,
                       rounds=rounds, layers="", wall_time="")
            points.append((n, rounds))
    if args.suite == "mvc":
        xs = [math.log2(n) for n, _ in points]
        label = "rounds-vs-log2n"
    else:
        xs = [float(n) for n, _ in points]
        label = "rounds-vs-n"
    slope = _fit_slope(xs, [r for _, r in points])
    summary = "# slope %s %.4f over %d runs" % (label, slope, len(points))
    print(writer.text() + summary)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(summary + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chordalg",
        description="Approximation algorithms on chordal graphs, with a "
                    "round-accounted simulator of the distributed variants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("family",
                       choices=["chordal", "interval", "path", "caterpillar", "spider"])
    p_gen.add_argument("n", type=int, nargs="?", default=10)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--max-clique", type=int, default=6)
    p_gen.add_argument("--spine", type=int, default=10)
    p_gen.add_argument("--legs", type=int, default=3)
    p_gen.add_argument("--leg-len", type=int, default=5)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run an algorithm on a graph file")
    p_run.add_argument("algorithm", choices=["mvc", "mis", "mis-interval"])
    p_run.add_argument("mode", choices=["central", "local"])
    p_run.add_argument("graph")
    p_run.add_argument("--eps", type=float, required=True)
    p_run.add_argument("--round-cap", type=int, default=None)
    p_run.add_argument("--out", help="CSV report to append to")
    p_run.add_argument("--solution", help="solution file to write")
    p_run.add_argument("--transcript", help="write the simulation transcript here")
    p_run.add_argument("--debug-invariants", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="re-check a solution file")
    p_ver.add_argument("graph")
    p_ver.add_argument("solution")
    p_ver.add_argument("--kind", choices=["auto", "coloring", "is"], default="auto")
    p_ver.add_argument("--eps", type=float, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="sweep a grid and report rounds")
    p_bench.add_argument("suite", choices=["mvc", "mis"])
    p_bench.add_argument("--sizes", default="128,256,512")
    p_bench.add_argument("--eps", type=float, default=0.5)
    p_bench.add_argument("--seeds", type=int, default=3)
    p_bench.add_argument("--max-clique", type=int, default=6)
    p_bench.add_argument("--round-cap", type=int, default=None)
    p_bench.add_argument("--out")
    p_bench.add_argument("--debug-invariants", action="store_true")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CODES[type(exc)]
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
