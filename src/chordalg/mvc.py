"""Approximate minimum vertex coloring on chordal graphs.

Pipeline: peel the clique forest into interval layers, color every layer
independently within its budget, then repair the conflicts between layers
from the top layer downwards, one peel record at a time. The distributed
variant runs the same deterministic decisions as a node program on the
round-based engine, so both variants return the identical coloring while
the engine accounts rounds; only that program builds the correction forest
(`correction_forest`), whose parents send their children's colors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .cliqueforest import (
    CliqueForest, IntervalStrip, PeelPath, clique_word, peel, strips_from_traces,
)
from .errors import BadEpsilon, EpsilonTooSmall, NonTermination, debug_invariants
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
    peeled_paths: Dict[int, Tuple[PeelPath, ...]]
    num_layers: int
    clique_count: int
    forest_history: List[CliqueForest] = field(default_factory=list)

    def layer_nodes(self, i: int) -> List[int]:
        return sorted(v for v, l in self.layer.items() if l == i)


def _side_hops(cliques, limit: int):
    """Hop distance from the nodes of cliques[0], along the clique path
    `cliques`, of every node within `limit` hops of them, and one relay per
    hop.

    Let reach[0] = 0 and reach[h + 1] be the last clique that meets clique
    reach[h]. A node lies within h hops iff its first clique is at most
    reach[h], so the walk stops after clique reach[limit]. Returns (dist,
    relays), where relays[h - 1] is a node of cliques reach[h - 1] and
    reach[h]: it lies in every clique between them, so it is adjacent to
    every node first reached at hop h, and to relays[h - 2], which shares
    clique reach[h - 1] with it.
    """
    dist = dict.fromkeys(cliques[0], 0)
    relays = []
    j, t = 1, len(cliques)
    for h in range(1, limit + 1):
        if j == t:
            break
        anchor = cliques[j - 1]
        while j < t and not anchor.isdisjoint(cliques[j]):
            for v in cliques[j] - cliques[j - 1]:
                dist[v] = h
            j += 1
        relays.append(max(anchor & cliques[j - 1]))
    return dist, relays


def prune_layers(g: Graph, k: int) -> Layering:
    """Iteratively peel pendant paths and long internal paths off the forest.

    Returns the layer index per node and the peeled path records and
    forests per layer.
    """
    if k < 2:
        raise ValueError("k must be at least 2")

    layering = Layering({}, {}, 0, 0)
    for step in peel(g, lambda i, strip: strip.diameter() >= 3 * k):
        i = step.index
        layering.forest_history.append(step.forest)
        if not len(step.forest):
            break
        if not step.paths:
            raise NonTermination("no peelable path found on a nonempty forest")
        for p in step.paths:
            layering.layer.update(dict.fromkeys(p.members, i))
        layering.peeled_paths[i] = step.paths
    layering.num_layers = i - 1
    layering.clique_count = len(layering.forest_history[0])
    return layering


def correction_forest(layering: Layering, k: int):
    """The node program's correction forest: (parent, levels, route), where
    parent[v] is every peeled node's parent or None, levels[par] lists par's
    correction levels top first as (layer, children, wait set), and
    route[v] is a path of g from v's parent to v, for v's set-color Send.

    A member's parent is max(side) for the nearest attach side within k + 3
    hops in the graph, ties going to the smaller clique word: the sides are
    read in word order, one pass over each side's hop labels, and a later
    side takes a member only if it is strictly nearer. A one-sided record
    takes the same loop with one side. Every side keeps a child, so each
    claim is a correction level: the end clique next to a side holds a
    member one hop from it (`PeelPath`). No member lies in a side, so the
    first side never loses its own to a later one; and no member is one hop
    from both sides of an internal path, else every two nodes of its cliques
    would lie within 3 hops, while `remove_paths` peels internal paths from
    diameter 4. The distance is read off the peel record's own clique path
    [side, *path cliques oriented away from side], which equals the distance
    in the graph:
    - The side and the path cliques form a subpath of the graph's clique
      tree, and every other clique hangs off that subpath through a
      separator, which is a clique. A shortest path that leaves side | path
      comes back through the separator it left by, so one hop inside it
      replaces the detour.
    - Earlier peels open no shortcut: the residual forest is the graph's
      forest less whole cliques and their edges, so the side and the path
      form a subpath of the graph's forest too, and a removed internal path
      splits it for good.

    A child v at d hops from its side takes the route: the parent, then the
    first d relays of that walk (`_side_hops`), then v. The first relay lies
    in the side, a clique, so it follows the parent by one edge, or is the
    parent and appears once; each other relay follows the one before, and v
    follows the last. So the route has at most d + 1 <= k + 4 edges,
    `set_color_latency(k)`, and no graph is searched for it.

    A wait set, the children's later-layer neighbours, is the non-members of
    the record cliques that meet the children: at step i a level-i child's
    neighbours are its record's members and the non-members of the cliques
    holding it (`PeelPath`); its other neighbours were peeled earlier.
    """
    parent: Dict[int, Optional[int]] = {}
    route: Dict[int, Tuple[int, ...]] = {}
    per: Dict[int, Dict[int, Tuple[Set[int], Set[int]]]] = {}  # (children, wait set)
    for i, records in layering.peeled_paths.items():
        for p in records:
            w_set = set(p.members)
            sides = sorted(((side, seq) for side, seq in ((p.attach_s, p.cliques),
                                                          (p.attach_e, p.cliques[::-1]))
                            if side is not None), key=lambda s: clique_word(s[0]))
            hops: Dict[int, int] = {}  # member -> hops to its nearest side so far
            claims: List[Tuple[int, Set[int]]] = []  # (parent, children) per side
            for side, seq in sides:
                dist, relays = _side_hops((side, *seq), k + 3)
                par = max(side)
                # the parent, then the relays, with the parent once
                lead = tuple(relays) if relays[:1] == [par] else (par, *relays)
                skip = len(lead) - len(relays)
                won = set()
                for v in w_set.intersection(dist):
                    d = dist[v]
                    if d < hops.get(v, k + 4):  # every label is at most k + 3
                        hops[v] = d
                        parent[v] = par
                        route[v] = (*lead[:d + skip], v)
                        won.add(v)
                for _, kids in claims:
                    kids -= won
                claims.append((par, won))
            parent.update(dict.fromkeys(w_set.difference(hops)))
            for par, vs in claims:
                kids, wait = per.setdefault(par, {}).setdefault(i, (set(), set()))
                kids |= vs
                wait.update(*(c - w_set for c in p.cliques if not c.isdisjoint(vs)))
    levels = {par: [(i, tuple(sorted(kids)), tuple(sorted(wait)))
                    for i, (kids, wait) in sorted(at.items(), reverse=True)]
              for par, at in per.items()}
    return parent, levels, route


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


def build_correction_job(record: PeelPath, colors: Coloring, k: int) -> CorrectionJob:
    """Recolor a peeled path's members against the later layers, from the
    record, the colors and k alone.

    By the lemma of `PeelPath` (checked by `peel`), the members' later-layer
    neighbours W' are the non-members of its cliques, split by attach
    clique, and with the members they induce its clique path. So the job is
    conflicted iff a record clique holds a member and a non-member of one
    color. Only members within k + 3 of W' may be recolored.
    """
    w_set = set(record.members)
    conflicted = any(
        not {colors[u] for u in c - w_set}.isdisjoint([colors[w] for w in c & w_set])
        for c in record.cliques if not c <= w_set
    )
    if not conflicted:
        return CorrectionJob(False, {v: colors[v] for v in w_set}, set())
    wprime = set().union(*record.cliques).difference(w_set)
    strip = IntervalStrip(record.cliques)
    t = len(strip.cliques)
    new_colors = {v: colors[v] for v in strip.lo}

    # an attach clique meets its end clique, so no side is empty
    portions = [wprime & s for s in (record.attach_s, record.attach_e) if s is not None]
    fixed_value_cap = max((colors[u] for part in portions for u in part), default=0)
    omega = max(len(c) for c in strip.cliques)
    budget = max(color_budget(k, omega), fixed_value_cap)

    def reseat_end(end, side, existing):
        """End clique colors: the side keeps its finals, W members re-seated.

        `existing` seats no node of `end` - `side`. Only the joint branch
        passes seated nodes, those of the first end clique, with `end` the
        last. A node in both end cliques lies in every record clique, so any
        two nodes of the record would be within 2 hops. But the joint branch
        has two attach sides, so the record is internal, and `prune_layers`
        peels an internal path only at diameter 3k >= 6.
        """
        out = dict(existing)
        for u in side:
            out[u] = colors[u]
        taken = {out[u] for u in end if u in out}
        c = 1  # the smallest free color only grows as members are seated
        for v in sorted(end - side):
            while c in taken:
                c += 1
            out[v] = c
            taken.add(c)
        return out

    def one_sided(view, side, f):
        """Recolor from the side at view's first clique up to frontier f."""
        fixed = reseat_end(view.cliques[0], side, {})
        if f is None:
            new_colors.update(greedy_fill(view, fixed))
            return
        seg = view.segment(0, f)
        for u in seg.cliques[-1]:
            fixed.setdefault(u, colors[u])
        new_colors.update(extend_coloring(seg, budget, fixed))

    left, right = set(), set()
    for part in portions:
        if part <= strip.cliques[0] and not left:
            left |= part
        elif part <= strip.cliques[-1]:
            right |= part
        else:
            raise AssertionError("conflict nodes outside the end cliques")
    if not left and right:
        strip = strip.reversed()
        left, right = right, set()

    if t == 1:
        new_colors.update(reseat_end(strip.cliques[0], wprime, {}))
    elif left and right:
        rev = strip.reversed()
        f_left = _frontier(strip, left, k)
        f_right = _frontier(rev, right, k)
        if f_left is not None and f_right is not None and f_left <= t - 1 - f_right:
            one_sided(strip, left, f_left)
            one_sided(rev, right, f_right)
        else:
            fixed = reseat_end(strip.cliques[0], left, {})
            fixed = reseat_end(strip.cliques[-1], right, fixed)
            new_colors.update(extend_coloring(strip, budget, fixed))
    else:
        one_sided(strip, left, _frontier(strip, left, k))
    changed = {v for v in w_set if new_colors[v] != colors[v]}
    return CorrectionJob(True, {v: new_colors[v] for v in w_set}, changed)


def correct_colors(layering: Layering, colors: Coloring, k: int) -> Coloring:
    """Repair inter-layer conflicts from the top layer downwards, each job
    from its record, its members' base colors and the final colors of W'."""
    out = dict(colors)
    for i in range(layering.num_layers - 1, 0, -1):
        for record in layering.peeled_paths[i]:
            out.update(build_correction_job(record, out, k).new_colors)
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
    """EpsilonTooSmall unless 0 < eps and eps >= 2/omega. The bound 2/omega
    is not asked for omega <= 1: then every strip is one one-node clique,
    colored 1, whatever k is, while eps < 2 already holds."""
    if omega > 1 and eps < 2.0 / omega:
        raise EpsilonTooSmall("eps %.4f below 2/omega = %.4f" % (eps, 2.0 / omega))
    if eps <= 0:  # an empty graph has no omega to compare with
        raise EpsilonTooSmall("eps %.4f is not positive" % eps)


def mvc_pipeline(g: Graph, eps: float) -> MvcRun:
    """Peel, color every layer, correct; both variants share the result.

    An eps that is not finite, or is 2 or more (k = ceil(2/eps) would be
    below 2), raises BadEpsilon first, as the MIS entry points check their
    range. ω is read off the largest clique of the forest the peel builds,
    so the check eps >= 2/ω follows the peel. The errors keep their order:
    a graph that is not chordal raises NotChordal from the forest, and for
    eps < 2/ω the peel runs with k >= 2 and cannot raise first. Only
    eps <= 0, for which no k exists, asks the ω oracle up front; it raises
    EpsilonTooSmall on every chordal graph, the empty one included.
    """
    if not (math.isfinite(eps) and eps < 2):
        raise BadEpsilon("eps must be finite and below 2, not %g" % eps)
    if eps <= 0:
        _require_eps(eps, omega_oracle(g))
    k = eps_to_k(eps)
    layering = prune_layers(g, k)
    omega = max(map(len, layering.forest_history[0].cliques), default=0)
    _require_eps(eps, omega)
    base = color_layers(layering, k)
    final = correct_colors(layering, base, k)
    if debug_invariants():  # a member is recolored only by its own record's job
        for p in (p for records in layering.peeled_paths.values() for p in records):
            changed = {v for v in p.members if final[v] != base[v]}
            wprime = set().union(*p.cliques).difference(p.members)
            if changed and not changed <= bfs_distances(g, wprime, cutoff=k + 4).keys():
                raise AssertionError("recolored node beyond distance k + 4 of conflicts")
    return MvcRun(g, eps, k, omega, layering, base, final)


def mvc_centralized(g: Graph, eps: float) -> Coloring:
    return mvc_pipeline(g, eps).final_colors


# ---------------------------------------------------------------------------
# distributed variant


@dataclass(slots=True)
class _MvcNode:
    """A node with its final color that serves its correction levels."""

    id: int
    color: int
    levels: list  # (layer, children, wait set) still to serve, top first
    poll: Optional[Collect] = None  # reads the wait set of levels[0]


class MvcProgram(StagedProgram):
    """Node program: prune loop, per-layer coloring, correction with waits.

    Decisions are read from the shared deterministic pipeline; every phase
    still pays its communication (collect radii, polls, multi-hop color
    messages), which is what the transcript measures. The prune and color
    stages are a fixed schedule: a node collects once per prune iteration up
    to its own layer's, then walks the coloring stages. Correction, which
    waits on other nodes, is the dynamic tail. A node with its final color
    serves its correction levels from the top down: for each level it polls,
    reading the outputs of the level's wait set (the higher-layer neighbours
    of that level's children), until every one has output; then it sends the
    children their colors, each Send naming its route from
    `correction_forest`. A node outputs its color in the step that gives it,
    so an output is a final color. The engine checks that each read stays
    within the poll radius and each route within the Send latency.

    As a node leaves the schedule: a quiet root, with no parent and no
    correction levels, only outputs its final color; a correction child keeps
    its id as its state and steps once, when its parent's Send arrives, to
    output the color it receives; only a root with correction levels, or a
    child that has levels of its own once its color came, becomes an
    `_MvcNode`. So ``leave_group`` answers a group's quiet roots in one map
    and its children as waiting members, and steps each other root through
    ``leave``.
    """

    def __init__(self, run: MvcRun):
        self.run = run
        self.k = run.k
        self.poll_radius = correction_poll_radius(run.k)
        layering = run.layering
        self.parent, self.levels, self.routes = correction_forest(layering, run.k)
        roots = {v for v, par in self.parent.items() if par is None}
        self.quiet = roots.difference(self.levels)
        self.serving = roots.intersection(self.levels)
        # a layer-i node colors after prune stage i - 1, its last
        super().__init__(localsim.schedule(
            [prune_radius(run.k)] * layering.num_layers, {"color": strip_stages(run.k)},
            {i - 1: {"color": {v for p in records for v in p.members}}
             for i, records in layering.peeled_paths.items()}))

    def _next_level(self, state, sends=()):
        if not state.levels:
            return StepResult(state, output=state.color, requests=sends)
        layer, _, wait = state.levels[0]
        state.poll = Collect(self.poll_radius, ("poll", layer), wait)
        return StepResult(state, requests=[*sends, state.poll], output=state.color)

    # -- engine interface --------------------------------------------------
    def leave(self, v, rnd):
        """After the last color stage: a root of the correction forest takes
        its final color and serves its levels, or only outputs it if it has
        none; any other node waits for its parent's Send."""
        if self.parent[v] is not None:
            return StepResult(v)
        color = self.run.final_colors[v]
        if v in self.quiet:
            return StepResult(v, output=color)
        return self._next_level(_MvcNode(v, color, self.levels[v]))

    def leave_group(self, part, rnd):
        quiet, serving = part & self.quiet, part & self.serving
        colors = self.run.final_colors
        return ({v: colors[v] for v in quiet},
                [(v, self.leave(v, rnd)) for v in serving],
                part - quiet - serving)

    def step(self, state, rnd, inbox):
        if type(state) is not _MvcNode:
            sent = inbox.get(("msg", self.parent.get(state)))
            if sent is None:
                return super().step(state, rnd, inbox)
            # a waiting child steps once, for the color its parent sends
            levels = self.levels.get(state)
            if levels is None:
                return StepResult(state, output=sent[1])
            return self._next_level(_MvcNode(state, sent[1], levels))

        # a node with no level left has no request, wake or sender left
        poll = state.poll
        if len(inbox["collect", poll.tag].outputs) < len(poll.read):
            return StepResult(state, requests=(poll,))
        latency, routes = set_color_latency(self.k), self.routes
        colors = self.run.final_colors
        sends = [Send(child, ("set_color", colors[child]), latency, routes[child])
                 for child in state.levels[0][1]]
        state.levels = state.levels[1:]
        return self._next_level(state, sends)


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
