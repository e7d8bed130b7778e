"""Approximate minimum vertex coloring on chordal graphs.

Pipeline: peel the clique forest into interval layers, color every layer
independently within its budget, then repair the conflicts between layers
from the top layer downwards. The distributed variant runs the same
deterministic decisions as a node program on the round-based engine, so both
variants return the identical coloring while the engine accounts rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .cliqueforest import (
    INTERNAL, CliqueForest, IntervalStrip, PeelPath, clique_word, local_view,
    path_diameter, peel, strips_from_traces, walk_path,
)
from .errors import EpsilonTooSmall, NonTermination, debug_invariants
from .graphs import Graph, bfs_distances, omega_oracle
from .intervals import (
    color_budget, color_strip, extend_coloring, greedy_fill, strip_stages,
)
from . import localsim
from .localsim import Collect, Send, StagedProgram, StepResult

Coloring = Dict[int, int]


def eps_to_k(eps: float) -> int:
    return math.ceil(2.0 / eps)


# Round schedule constants. The pruning radius follows the collection radius
# used by the per-node loop; the coloring stages are `strip_stages(k)`.
def prune_radius(k: int) -> int:
    return 10 * k


def correction_poll_radius(k: int) -> int:
    return 2 * k + 12


def set_color_latency(k: int) -> int:
    return k + 4


@dataclass
class Layering:
    layer: Dict[int, int]
    parent: Dict[int, Optional[int]]
    children: Dict[int, Dict[int, Tuple[int, ...]]]
    peeled_paths: Dict[int, Tuple[PeelPath, ...]]
    num_layers: int
    clique_count: int
    forest_history: List[CliqueForest] = field(default_factory=list)

    def layer_nodes(self, i: int) -> List[int]:
        return sorted(v for v, l in self.layer.items() if l == i)


def _side_hops(cliques, limit: int) -> Dict[int, int]:
    """Hop distance from the nodes of cliques[0], along the clique path
    `cliques`, of every node within `limit` hops of them.

    Let reach[0] = 0 and reach[h + 1] be the last clique that meets clique
    reach[h]. A node lies within h hops iff its first clique is at most
    reach[h], so the walk stops after clique reach[limit].
    """
    dist = dict.fromkeys(cliques[0], 0)
    anchor, j, t = cliques[0], 1, len(cliques)
    for h in range(1, limit + 1):
        while j < t and not anchor.isdisjoint(cliques[j]):
            for v in cliques[j] - cliques[j - 1]:
                dist[v] = h
            j += 1
        anchor = cliques[j - 1]
    return dist


def prune_layers(g: Graph, k: int) -> Layering:
    """Iteratively peel pendant paths and long internal paths off the forest.

    Returns the layer index per node, parent/children assignments for the
    correction phase, and the peeled path records per layer.

    A member's parent is max(side) for the nearest attach side within k + 3
    hops in `g`, ties going to the smaller clique word. The distance is read
    off the peel record's own clique path [side, *path cliques oriented away
    from side], which equals the distance in `g`:
    - The side and the path cliques form a subpath of `g`'s clique tree, and
      every other clique hangs off that subpath through a separator, which is
      a clique. A shortest path that leaves side | path comes back through
      the separator it left by, so one hop inside it replaces the detour.
    - Earlier peels open no shortcut: the residual forest is `g`'s forest
      less whole cliques and their edges, so the side and the path form a
      subpath of `g`'s forest too, and a removed internal path splits it
      for good.
    """
    if k < 2:
        raise ValueError("k must be at least 2")

    def select(i, forest, paths):
        return [p for p in paths
                if p.kind != INTERNAL or path_diameter(p) >= 3 * k]

    layering = Layering({}, {}, {}, {}, 0, 0)
    children_raw: Dict[int, Dict[int, List[int]]] = {}
    for step in peel(g, select):
        i = step.index
        layering.forest_history.append(step.forest)
        if not len(step.forest):
            break
        if not step.paths:
            raise NonTermination("no peelable path found on a nonempty forest")
        for p in step.paths:
            # parent: nearest attach side within k + 3, ties by clique word;
            # each side's distances run along the path's own cliques
            sides = [(_side_hops((side, *seq), k + 3), clique_word(side), side)
                     for side, seq in ((p.attach_s, p.cliques),
                                       (p.attach_e, p.cliques[::-1]))
                     if side is not None]
            for v in p.members:
                layering.layer[v] = i
                keys = [(dist[v], word, side) for dist, word, side in sides
                        if v in dist]
                if keys:
                    par = max(min(keys)[2])
                    layering.parent[v] = par
                    children_raw.setdefault(par, {}).setdefault(i, []).append(v)
                else:
                    layering.parent[v] = None
        layering.peeled_paths[i] = step.paths
    layering.num_layers = i - 1
    layering.clique_count = len(layering.forest_history[0])
    layering.children = {
        par: {l: tuple(sorted(vs)) for l, vs in per.items()}
        for par, per in children_raw.items()
    }
    return layering


def color_layers(layering: Layering, k: int) -> Coloring:
    """Color every layer independently; conflicts may remain between layers.

    Every component of a layer is a piece of one peeled path, so its clique
    path is read off the peel record instead of being recomputed.
    """
    colors: Coloring = {}
    for i in range(1, layering.num_layers + 1):
        for record in layering.peeled_paths[i]:
            for strip in strips_from_traces(record.cliques, set(record.members)):
                colors.update(color_strip(strip, k))
    return colors


@dataclass
class CorrectionJob:
    """One path's repair work: which nodes may be recolored and their colors."""

    conflicted: bool
    new_colors: Coloring  # full coloring of the path's member nodes
    changed: Set[int]


def _frontier(view: IntervalStrip, side, k: int) -> Optional[int]:
    """Index in `view` of the nearest clique whose members all sit at
    distance >= k + 3 from `side`, a nonempty subset of view's first clique;
    None when there is none.

    The side reaches clique m = max hi in one hop, so the nodes within
    k + 2 hops are those starting at or before hop(m, k + 1), and the first
    clique clear of them is one past hop(m, k + 2).
    """
    f = view.hop(max(view.hi[u] for u in side), k + 2) + 1
    return f if f < len(view.cliques) else None


def _job_component(strip: IntervalStrip, w_set, sides, colors, k):
    """Recolor one connected component of a path's strip.

    `sides` holds the higher-layer conflict nodes per attach side (possibly
    empty sets). Only nodes within distance k + 3 of a conflict side may end
    up with a new color. Returns new colors for the component's W nodes.
    """
    compset = strip.nodes
    t = len(strip.cliques)
    new_colors = {v: colors[v] for v in compset}

    portions = [s & compset for s in sides if s & compset]
    fixed_value_cap = max((colors[u] for part in portions for u in part), default=0)
    omega = max(len(c) for c in strip.cliques)
    budget = max(color_budget(k, omega), fixed_value_cap)

    def reseat_end(end, side, existing):
        """End clique colors: the side keeps its finals, W members re-seated."""
        out = dict(existing)
        for u in side:
            out[u] = colors[u]
        for v in sorted(end - side):
            if v in out:
                continue
            taken = {out[u] for u in end if u in out}
            c = 1
            while c in taken:
                c += 1
            out[v] = c
        return out

    if t == 1:
        side_union = set().union(set(), *portions)
        new_colors.update(reseat_end(strip.cliques[0], side_union, {}))
        return {v: new_colors[v] for v in compset & w_set}

    left: Set[int] = set()
    right: Set[int] = set()
    for part in portions:
        if part <= strip.cliques[0] and not left:
            left |= part
        elif part <= strip.cliques[-1]:
            right |= part
        else:
            raise AssertionError("conflict nodes outside the end cliques")
    if not left and right:
        strip = IntervalStrip(list(reversed(strip.cliques)))
        left, right = right, set()

    def one_sided(view, side, f):
        """Recolor from the side at view's first clique up to frontier f."""
        fixed = reseat_end(view.cliques[0], side, {})
        if f is None:
            new_colors.update(greedy_fill(view, fixed))
            return
        seg_cliques = view.cliques[0:f + 1]
        seg = IntervalStrip(seg_cliques)
        for u in seg_cliques[-1]:
            fixed.setdefault(u, colors[u])
        new_colors.update(extend_coloring(seg, budget, fixed))

    if left and right:
        rev = IntervalStrip(list(reversed(strip.cliques)))
        f_left = _frontier(strip, left, k)
        f_right = _frontier(rev, right, k)
        if f_left is not None and f_right is not None and f_left <= t - 1 - f_right:
            one_sided(strip, left, f_left)
            one_sided(rev, right, f_right)
        else:
            fixed = reseat_end(strip.cliques[0], left, {})
            fixed = reseat_end(strip.cliques[-1], right, fixed)
            new_colors.update(extend_coloring(strip, budget, fixed))
    elif left:
        one_sided(strip, left, _frontier(strip, left, k))
    return {v: new_colors[v] for v in compset & w_set}


def build_correction_job(g: Graph, layering: Layering, record: PeelPath,
                         layer: int, colors: Coloring, k: int) -> CorrectionJob:
    w_set = set(record.members)
    wprime = set()
    for w in record.members:
        for u in g.adj[w]:
            if u not in w_set:
                if layering.layer[u] == layer:
                    raise AssertionError("same-layer neighbor outside the path")
                if layering.layer[u] > layer:
                    wprime.add(u)
    conflicted = any(
        colors[w] == colors[u]
        for w in record.members for u in g.adj[w] if u in wprime
    )
    if not conflicted:
        return CorrectionJob(False, {v: colors[v] for v in w_set}, set())
    sides = [s for s in (record.attach_s, record.attach_e) if s is not None]
    side_conflict = [set(s) & wprime for s in sides]
    if wprime - set().union(set(), *side_conflict):
        raise AssertionError("conflict nodes outside the attach cliques")
    ext_seq = [c for c in (record.attach_s, *record.cliques, record.attach_e)
               if c is not None]
    ctx_nodes = w_set | wprime
    new_colors = {v: colors[v] for v in w_set}
    for strip in strips_from_traces(ext_seq, ctx_nodes):
        if not (strip.nodes & wprime):
            continue  # no conflicts can touch this piece
        new_colors.update(_job_component(strip, w_set, side_conflict, colors, k))
    changed = {v for v in w_set if new_colors[v] != colors[v]}
    if debug_invariants() and changed:
        reach = bfs_distances(g, wprime, cutoff=k + 4)
        if any(v not in reach for v in changed):
            raise AssertionError("recolored node beyond distance k + 4 of conflicts")
    return CorrectionJob(True, new_colors, changed)


def correct_colors(g: Graph, layering: Layering, colors: Coloring, k: int) -> Coloring:
    """Repair inter-layer conflicts from the top layer downwards."""
    out = dict(colors)
    for i in range(layering.num_layers - 1, 0, -1):
        for record in layering.peeled_paths[i]:
            job = build_correction_job(g, layering, record, i, out, k)
            out.update(job.new_colors)
    return out


@dataclass
class MvcRun:
    """Everything both variants share: the layering and the two colorings."""

    g: Graph
    eps: float
    k: int
    omega: int
    layering: Layering
    base_colors: Coloring
    final_colors: Coloring


def _require_eps(eps: float, omega: int):
    if omega and eps < 2.0 / omega:
        raise EpsilonTooSmall("eps %.4f below 2/omega = %.4f" % (eps, 2.0 / omega))
    if eps <= 0:  # an empty graph has no omega to compare with
        raise EpsilonTooSmall("eps %.4f is not positive" % eps)


def mvc_pipeline(g: Graph, eps: float) -> MvcRun:
    """Peel, color every layer, correct; both variants share the result.

    ω is read off the largest clique of the forest the peel builds, so the
    check eps >= 2/ω follows the peel. The errors keep their order: a graph
    that is not chordal raises NotChordal from the forest, and for eps < 2/ω
    the peel runs with k >= 2 and cannot raise first. Only eps <= 0, for
    which no k exists, asks the ω oracle up front; it raises EpsilonTooSmall
    on every chordal graph, the empty one included.
    """
    if eps <= 0:
        _require_eps(eps, omega_oracle(g))
    k = eps_to_k(eps)
    layering = prune_layers(g, k)
    omega = max(map(len, layering.forest_history[0].cliques), default=0)
    _require_eps(eps, omega)
    base = color_layers(layering, k)
    final = correct_colors(g, layering, base, k)
    return MvcRun(g, eps, k, omega, layering, base, final)


def mvc_centralized(g: Graph, eps: float) -> Coloring:
    return mvc_pipeline(g, eps).final_colors


# ---------------------------------------------------------------------------
# distributed variant


@dataclass(slots=True)
class _MvcNode:
    """One node's progress once it left the prune/color schedule."""

    id: int
    phase: str = "wait_color"  # then "correct", then "done"
    color: Optional[int] = None
    levels: Optional[List[int]] = None  # correction levels to serve
    poll: Optional[Collect] = None  # reads the wait set of levels[0]


class MvcProgram(StagedProgram):
    """Node program: prune loop, per-layer coloring, correction with waits.

    Decisions are read from the shared deterministic pipeline; every phase
    still pays its communication (collect radii, polls, multi-hop color
    messages), which is what the transcript measures. The prune and color
    stages are a fixed schedule: a node collects once per prune iteration up
    to its own layer's, then walks the coloring stages. Correction, which
    waits on other nodes, is the dynamic tail: a node with its final color
    serves its correction levels from the top down. For each level it polls,
    reading the outputs of the level's wait set (the higher-layer neighbours
    of that level's children), until every one has output; then it sends the
    children their colors. A node outputs its color in the step that gives
    it, so an output is a final color, and the engine checks that the read
    stays within the poll radius. A quiet root, with no parent and no
    correction levels, only outputs its color as it leaves the schedule, so
    ``leave_group`` answers the quiet roots of a group in one map and steps
    each other node through ``leave``.
    """

    def __init__(self, run: MvcRun):
        self.run = run
        self.k = run.k
        self.poll_radius = correction_poll_radius(run.k)
        layering = run.layering
        self.quiet = {v for v, par in layering.parent.items()
                      if par is None}.difference(layering.children)
        by_layer: Dict[int, Set[int]] = {}
        for v, i in layering.layer.items():
            by_layer.setdefault(i, set()).add(v)
        # a layer-i node colors after prune stage i - 1, its last
        super().__init__(localsim.schedule(
            [prune_radius(run.k)] * layering.num_layers, {"color": strip_stages(run.k)},
            {i - 1: {"color": nodes} for i, nodes in by_layer.items()}))

    # -- helpers ----------------------------------------------------------
    def _levels(self, v) -> List[int]:
        per = self.run.layering.children.get(v, {})
        return sorted(per, reverse=True)

    def _wait_set(self, v, level) -> Tuple[int, ...]:
        kids = self.run.layering.children[v][level]
        need = set()
        for child in kids:
            for u in self.run.g.adj[child]:
                if self.run.layering.layer[u] > level:
                    need.add(u)
        return tuple(sorted(need))

    def _finalize(self, state):
        state.phase = "correct"
        state.levels = self._levels(state.id)
        return self._next_level(state)

    def _next_level(self, state, sends=()):
        if not state.levels:
            state.phase = "done"
            return StepResult(state, output=state.color, requests=sends)
        level = state.levels[0]
        state.poll = Collect(self.poll_radius, ("poll", level),
                             self._wait_set(state.id, level))
        return StepResult(state, requests=[*sends, state.poll], output=state.color)

    # -- engine interface --------------------------------------------------
    def leave(self, v, rnd):
        """After the last color stage: a root of the correction forest takes
        its final color, any other node waits for its parent's. A quiet root
        only outputs."""
        run = self.run
        if v in self.quiet:
            return StepResult(v, output=run.final_colors[v])
        if run.layering.parent[v] is None:
            return self._finalize(_MvcNode(v, color=run.final_colors[v]))
        return StepResult(_MvcNode(v))

    def leave_group(self, part, rnd):
        quiet = part & self.quiet
        colors = self.run.final_colors
        return ({v: colors[v] for v in quiet},
                [(v, self.leave(v, rnd)) for v in (part - quiet if quiet else part)])

    def step(self, state, rnd, inbox):
        if not isinstance(state, _MvcNode):
            return super().step(state, rnd, inbox)
        run = self.run
        if state.phase == "wait_color":
            # a waiting node steps once, for the color its parent sends
            state.color = inbox["msg", run.layering.parent[state.id]][1]
            return self._finalize(state)

        if state.phase == "correct":
            poll = state.poll
            if len(inbox["collect", poll.tag].outputs) < len(poll.read):
                return StepResult(state, requests=(poll,))
            kids = run.layering.children[state.id][state.levels[0]]
            sends = [
                Send(child, ("set_color", run.final_colors[child]),
                     set_color_latency(self.k))
                for child in kids
            ]
            state.levels = state.levels[1:]
            return self._next_level(state, sends)

        return StepResult(state)


def default_round_cap(g: Graph, eps: float) -> int:
    k = eps_to_k(eps)
    logn = max(1, math.ceil(math.log2(max(2, len(g)))))
    return 40 * k * (logn + 4) + 40 * k


def mvc_distributed_run(run: MvcRun, round_cap: Optional[int] = None):
    """Simulate the node program on an already-computed pipeline."""
    cap = default_round_cap(run.g, run.eps) if round_cap is None else round_cap
    transcript = localsim.run(run.g, MvcProgram(run), cap)
    colors = dict(transcript.outputs)
    if colors != run.final_colors:
        raise AssertionError("distributed coloring diverged from centralized")
    return colors, transcript


def mvc_distributed(g: Graph, eps: float, round_cap: Optional[int] = None):
    """Simulate the node program; returns (coloring, transcript).

    The coloring is identical to mvc_centralized(g, eps) by construction and
    the transcript carries the exact round count of the simulated run.
    """
    return mvc_distributed_run(mvc_pipeline(g, eps), round_cap)


def local_peel_decision(gball: Graph, center: int, residual, k: int):
    """Per-node form of the peeling decision, computed from a radius-10k ball.

    `gball` is the induced subgraph on the radius-10k neighborhood of
    `center` in the full input graph; `residual` flags nodes not yet layered.
    Returns (peel, parent). Used to confirm that the shared pipeline decides
    exactly what a node could decide from its own collected view.
    """
    radius = prune_radius(k)
    resid_ball = gball.subgraph(set(gball.nodes) & set(residual))
    view = local_view(resid_ball, center, radius)
    dist = bfs_distances(resid_ball, center)

    def certified(i):
        return all(dist.get(u, radius + 1) <= radius - 1 for u in view.cliques[i])

    held = [i for i, c in enumerate(view.cliques) if center in c]
    if any(view.degree(i) > 2 for i in held):
        return False, None
    run_seq = walk_path(view.fadj, held)
    stops = []
    blocked = set()
    for at_front in (False, True):
        while True:
            end = run_seq[0] if at_front else run_seq[-1]
            taken = set(run_seq) | blocked
            nxt = [j for j in view.fadj[end] if j not in taken]
            if not nxt:
                stops.append(("end", None))
                break
            step = nxt[0]
            if not certified(step):
                stops.append(("horizon", None))
                blocked.add(step)
                break
            if view.degree(step) > 2:
                stops.append(("junction", step))
                blocked.add(step)
                break
            if at_front:
                run_seq.insert(0, step)
            else:
                run_seq.append(step)
    back, front = stops  # extension ran back side first, then front
    kinds = {front[0], back[0]}
    if kinds == {"junction"}:
        strip = IntervalStrip([view.cliques[i] for i in run_seq])
        peel = strip.diameter() >= 3 * k
    else:
        peel = True  # a true end makes it pendant; a horizon proves diameter
    if not peel:
        return False, None
    best = None
    full_dist = bfs_distances(gball, center, cutoff=k + 3)
    for stop_kind, attach in (front, back):
        if stop_kind != "junction":
            continue
        clique = view.cliques[attach]
        d = min((full_dist[u] for u in clique if u in full_dist), default=None)
        if d is None:
            continue
        key = (d, clique_word(clique))
        if best is None or key < best[0]:
            best = (key, clique)
    return True, (max(best[1]) if best else None)
