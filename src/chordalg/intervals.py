"""Interval-graph algorithms: clique paths, budgeted coloring extension,
approximate coloring, dominated-node removal, distance-k independent sets,
and the approximate maximum independent set routine.

Component clique paths are canonically oriented (smaller end word first), and
every sweep below follows the canonical node order (first clique, last
clique, id), which is what makes the centralized and simulated distributed
variants produce identical answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from .cliqueforest import (
    IntervalStrip, clique_forest, clique_word, strips_from_traces, walk_path,
)
from .errors import BadEpsilon, Infeasible, NotInterval, NotProperInterval
from .graphs import Graph, bfs_distances

Coloring = Dict[int, int]


class CliquePath:
    """One interval component: its ordered maximal cliques plus a graph that
    holds exactly those nodes as one of its components."""

    def __init__(self, graph: Graph, cliques):
        self.strip = cliques if isinstance(cliques, IntervalStrip) else IntervalStrip(cliques)
        self.graph = graph

    @classmethod
    def from_strip(cls, g: Graph, strip: IntervalStrip) -> "CliquePath":
        return cls(g.subgraph(strip.nodes), strip)

    @property
    def cliques(self):
        return self.strip.cliques

    def nodes(self):
        return self.strip.nodes


def _arrange_cliques(cliques, cap: int = 500_000) -> Optional[List[frozenset]]:
    """Order one component's maximal cliques consecutively, or None.

    A valid next clique must contain every node that is already placed and
    still occurs in an unplaced clique; deterministic backtracking resolves
    tie blocks, with dead prefixes memoized on the placed set.
    """
    t = len(cliques)
    if t <= 2:
        return sorted(cliques, key=clique_word)
    order = sorted(range(t), key=lambda i: clique_word(cliques[i]))
    remaining: Dict[int, int] = {}
    holders: Dict[int, List[int]] = {}
    for i, c in enumerate(cliques):
        for v in c:
            remaining[v] = remaining.get(v, 0) + 1
            holders.setdefault(v, []).append(i)

    def candidates(used, open_nodes):
        if not open_nodes:
            pool = [i for i in order if i not in used]
        else:
            v = min(open_nodes, key=lambda u: (remaining[u], u))
            pool = [i for i in holders[v]
                    if i not in used and open_nodes <= cliques[i]]
            pool.sort(key=lambda i: clique_word(cliques[i]))
        return pool

    used: set = set()
    open_nodes: set = set()
    placed: List[int] = []
    dead = set()
    steps = 0

    def do_place(i):
        used.add(i)
        placed.append(i)
        for v in cliques[i]:
            remaining[v] -= 1
            if remaining[v] > 0:
                open_nodes.add(v)
            else:
                open_nodes.discard(v)

    def do_undo():
        i = placed.pop()
        used.discard(i)
        for v in cliques[i]:
            remaining[v] += 1
            if remaining[v] < len(holders[v]):  # some holder is still placed
                open_nodes.add(v)
            else:
                open_nodes.discard(v)

    stack = [iter(candidates(used, open_nodes))]
    while stack:
        steps += 1
        if steps > cap:
            return None
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            dead.add(frozenset(used))
            if placed:
                do_undo()
            continue
        do_place(nxt)
        if len(placed) == t:
            return [cliques[i] for i in placed]
        if frozenset(used) in dead:
            do_undo()
            continue
        stack.append(iter(candidates(used, open_nodes)))
    return None


def _component_strips(h: Graph) -> List[IntervalStrip]:
    """One canonical strip per connected component; NotInterval on failure."""
    forest = clique_forest(h)
    strips: List[IntervalStrip] = []
    seen = set()
    for start in range(len(forest)):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            cur = stack.pop()
            for j in forest.fadj[cur]:
                if j not in seen:
                    seen.add(j)
                    comp.append(j)
                    stack.append(j)
        if all(forest.degree(i) <= 2 for i in comp):
            # the canonical forest is already a path through this component
            seq = [forest.cliques[i] for i in walk_path(forest.fadj, comp)]
        else:
            # weight ties let the canonical forest branch even on interval
            # graphs; fall back to an explicit consecutive arrangement
            seq = _arrange_cliques([forest.cliques[i] for i in comp])
            if seq is None:
                raise NotInterval("component has no consecutive clique arrangement")
        if clique_word(seq[0]) > clique_word(seq[-1]):
            seq = list(reversed(seq))
        strips.append(IntervalStrip(seq))
    strips.sort(key=lambda s: clique_word(s.cliques[0]))
    return strips


def clique_path(h: Graph) -> List[CliquePath]:
    """Per-component clique paths; NotInterval if some component has none."""
    return [CliquePath.from_strip(h, s) for s in _component_strips(h)]


def require_interval(h: Graph):
    _component_strips(h)


def _has_claw(h: Graph, nodes=None) -> bool:
    """Any node with three pairwise non-adjacent neighbors?"""
    for v in sorted(nodes if nodes is not None else h.nodes):
        nbrs = sorted(h.adj[v])
        picked = []
        for u in nbrs:
            if all(not h.has_edge(u, w) for w in picked):
                picked.append(u)
                if len(picked) == 3:
                    return True
    return False


def is_proper_interval(h: Graph) -> bool:
    """True iff h is an interval graph with no induced three-leaf star."""
    try:
        require_interval(h)
    except NotInterval:
        return False
    return not _has_claw(h)


def strip_dominated(strip: IntervalStrip) -> Set[int]:
    """Nodes of a strip whose closed neighborhood strictly contains another's.

    The strip's cliques must be the maximal cliques of the graph it spans.
    Then N[u] is inside N[v] iff u's clique range lies inside v's, so v is
    dominated iff some other range lies strictly inside its own. With
    `sufmin[j]` the smallest last clique among nodes whose first clique is
    at least j, that is `sufmin[lo] < hi` or `sufmin[lo + 1] <= hi`: one
    sweep.
    """
    lo, hi = strip.lo, strip.hi
    t = len(strip.cliques)
    sufmin = [t] * (t + 1)
    for v, j in lo.items():
        if hi[v] < sufmin[j]:
            sufmin[j] = hi[v]
    for j in range(t - 1, -1, -1):
        if sufmin[j + 1] < sufmin[j]:
            sufmin[j] = sufmin[j + 1]
    return {v for v, j in lo.items() if sufmin[j] < hi[v] or sufmin[j + 1] <= hi[v]}


def remove_dominated(h: Graph) -> Graph:
    """Drop every node whose closed neighborhood strictly contains another's.

    One simultaneous pass, swept along each component's strip; preserves the
    independence number and leaves a proper interval graph.
    """
    doomed: Set[int] = set()
    for strip in _component_strips(h):
        doomed |= strip_dominated(strip)
    return h.subgraph(h.nodes - doomed)


def extend_coloring(strip: IntervalStrip, budget: int, fixed: Coloring,
                    expansion_cap: int = 2_000_000) -> Coloring:
    """Extend a partial coloring of a clique path to all of it within `budget`.

    Colors are tried smallest-first, so the first descent is the plain greedy
    sweep; backtracking with dead-state memoization only kicks in when the
    fixed far boundary forces it. Raises Infeasible when no extension exists
    within the budget (never when the separation preconditions hold).
    """
    order = strip.sorted_nodes()
    lo, hi = strip.lo, strip.hi
    used = [dict() for _ in strip.cliques]  # per clique: color -> count

    def place(v, c):
        for j in range(lo[v], hi[v] + 1):
            used[j][c] = used[j].get(c, 0) + 1

    def unplace(v, c):
        for j in range(lo[v], hi[v] + 1):
            if used[j][c] == 1:
                del used[j][c]
            else:
                used[j][c] -= 1

    def blocked(v):
        out = set()
        for j in range(lo[v], hi[v] + 1):
            out.update(used[j])
        return out

    for v in sorted(fixed):
        c = fixed[v]
        if not 1 <= c <= budget:
            raise Infeasible("fixed color %d outside budget %d" % (c, budget))
        if c in blocked(v):
            raise Infeasible("fixed coloring is not legal")
        place(v, c)

    free = [v for v in order if v not in fixed]
    # frontier per position: already-assigned free nodes still adjacent to the future
    frontier_at = []
    active: List[int] = []
    for v in free:
        active = [u for u in active if hi[u] >= lo[v]]
        frontier_at.append(tuple(active))
        active.append(v)
    named = set(fixed.values())
    assign: Coloring = {}

    def state_key(i):
        fresh: Dict[int, int] = {}
        parts = []
        for u in frontier_at[i]:
            c = assign[u]
            parts.append((u, -c) if c in named else (u, fresh.setdefault(c, len(fresh))))
        return (i, tuple(parts))

    dead = set()
    expansions = 0
    i = 0
    last_color = [0] * len(free)
    while i < len(free):
        if expansions > expansion_cap:
            raise Infeasible("search cap exceeded (budget %d)" % budget)
        v = free[i]
        if last_color[i] == 0 and state_key(i) in dead:
            nxt = None
        else:
            taken = blocked(v)
            nxt = None
            for c in range(last_color[i] + 1, budget + 1):
                if c not in taken:
                    nxt = c
                    break
        if nxt is None:
            if last_color[i] == 0:
                dead.add(state_key(i))
            last_color[i] = 0
            if i == 0:
                raise Infeasible("no extension within budget %d" % budget)
            i -= 1
            unplace(free[i], assign.pop(free[i]))
            continue
        expansions += 1
        last_color[i] = nxt
        assign[v] = nxt
        place(v, nxt)
        i += 1
    out = dict(fixed)
    out.update(assign)
    return out


def greedy_fill(strip: IntervalStrip, fixed: Coloring, nodes=None) -> Coloring:
    """One-sided greedy extension along the canonical order; needs no budget."""
    colors = dict(fixed)
    used = [dict() for _ in strip.cliques]
    for v, c in colors.items():
        for j in range(strip.lo[v], strip.hi[v] + 1):
            used[j][c] = True
    todo = nodes if nodes is not None else [v for v in strip.sorted_nodes() if v not in colors]
    for v in todo:
        taken = set()
        for j in range(strip.lo[v], strip.hi[v] + 1):
            taken.update(used[j])
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
        for j in range(strip.lo[v], strip.hi[v] + 1):
            used[j][c] = True
    return colors


def color_budget(k: int, omega: int) -> int:
    """Palette allowance floor((1 + 1/k) * omega) + 1, in exact arithmetic."""
    return (k + 1) * omega // k + 1


def _select_boundaries(cp: CliquePath, spacing: int) -> List[int]:
    """Clique indices pairwise at min-distance exactly `spacing`, greedily
    from the canonical left end."""
    strip = cp.strip
    bounds = [0]
    j = 0
    while True:
        dist = bfs_distances(cp.graph, strip.cliques[bounds[-1]], cutoff=spacing - 1)
        found = None
        for cand in range(bounds[-1] + 1, len(strip.cliques)):
            if all(v not in dist for v in strip.cliques[cand]):
                found = cand
                break
        if found is None:
            return bounds
        bounds.append(found)


def _color_component(cp: CliquePath, k: int) -> Coloring:
    strip = cp.strip
    spacing = k + 3
    bounds = _select_boundaries(cp, spacing)
    colors: Coloring = {}
    for b in bounds:
        c = 1
        for v in sorted(strip.cliques[b]):
            if v not in colors:
                colors[v] = c
            c += 1
    for left, right in zip(bounds, bounds[1:]):
        seg_cliques = strip.cliques[left:right + 1]
        seg = IntervalStrip(seg_cliques)
        omega = max(len(c) for c in seg_cliques)
        fixed = {v: colors[v] for v in strip.cliques[left] | strip.cliques[right]}
        seg_colors = extend_coloring(seg, color_budget(k, omega), fixed)
        colors.update(seg_colors)
    tail = IntervalStrip(strip.cliques[bounds[-1]:])
    fixed = {v: colors[v] for v in tail.nodes if v in colors}
    colors.update(greedy_fill(tail, fixed))
    return colors


def color_interval(h: Graph, k: int) -> Coloring:
    """Legal coloring of an interval graph with at most
    floor((1 + 1/k) * chi) + 1 colors per component."""
    if k < 2:
        raise ValueError("k must be at least 2")
    colors: Coloring = {}
    for cp in clique_path(h):
        colors.update(_color_component(cp, k))
    return colors


def color_strip(g: Graph, strip, k: int) -> Coloring:
    """Coloring entry for callers that already hold a component's strip."""
    return _color_component(CliquePath.from_strip(g, strip), k)


def strip_stages(k: int) -> List[int]:
    """Collect radii charged for one distributed strip routine (the coloring,
    or the skeleton branch of the independent set) at parameter k: structure
    gather, id-based boundary symmetry breaking, segment fill."""
    return [2 * k + 12] + [k + 6] * 9 + [3 * k + 15]


def color_interval_distributed(h: Graph, k: int, round_cap=None):
    """Distributed form of color_interval: identical coloring, rounds charged
    per the uniform coloring schedule."""
    from . import localsim

    colors = color_interval(h, k)
    schedule = strip_stages(k)
    stages = {v: schedule for v in h.nodes}
    cap = 2 * (sum(schedule) + 10) if round_cap is None else round_cap
    transcript = localsim.run(
        h, localsim.UniformStagedProgram(stages, colors), cap)
    return dict(transcript.outputs), transcript


def distance_k_mis_distributed(h: Graph, k: int, round_cap=None):
    """Distributed form of distance_k_mis: skeleton selection charged as the
    successor-chain color reduction (constant iterations at desk scale)."""
    from . import localsim

    members = distance_k_mis(h, k)
    stages = {v: [2] + [k + 1] * 9 for v in h.nodes}
    outputs = {v: (v in members) for v in h.nodes}
    cap = 2 * (9 * (k + 1) + 12) if round_cap is None else round_cap
    transcript = localsim.run(
        h, localsim.UniformStagedProgram(stages, outputs), cap)
    return {v for v, flag in transcript.outputs.items() if flag}, transcript


def mis_strip(g: Graph, strip, eps: float) -> Set[int]:
    """Approximate MIS entry for callers that already hold a component's strip.

    The strip's cliques must be the maximal cliques of the subgraph it spans.
    """
    k = mis_eps_to_k(eps)
    survivors = strip.nodes - strip_dominated(strip)
    chosen: Set[int] = set()
    for sub in strips_from_traces(strip.cliques, survivors):
        chosen |= _mis_component(CliquePath.from_strip(g, sub), k)
    return chosen


def _require_proper_component(cp: CliquePath):
    if _has_claw(cp.graph):
        raise NotProperInterval("induced three-leaf star present")


def _distance_mis_component(cp: CliquePath, k: int) -> List[int]:
    """Greedy distance-k independent set along the canonical order."""
    strip = cp.strip
    order = strip.sorted_nodes()
    members = [order[0]]
    for v in order[1:]:
        d = strip.dist(members[-1], v)
        if d is not None and d > k:
            members.append(v)
    return members


def distance_k_mis(h: Graph, k: int) -> Set[int]:
    """Maximal independent set of the k-th power of a connected proper
    interval graph: members pairwise further than k apart, everyone within
    k of a member."""
    if k < 1:
        raise ValueError("k must be positive")
    try:
        cps = clique_path(h)
    except NotInterval:
        raise NotProperInterval("input is not an interval graph")
    if len(cps) != 1:
        raise NotProperInterval("input must be connected")
    _require_proper_component(cps[0])
    return set(_distance_mis_component(cps[0], k))


def mis_eps_to_k(eps: float) -> int:
    return math.ceil(2.5 / eps + 0.5)


def _mis_interval_parts(h: Graph, eps: float):
    """k, the clique paths of h without its dominated nodes, and the chosen
    set; shared by the centralized and the distributed interval MIS.

    h's strips are built once. Each is swept for its dominated nodes and
    restricted to the rest with `strips_from_traces`. What is left is a
    proper interval graph, whose connected components each have one clique
    path up to reversal (Deng, Hell & Huang 1996), so these are the strips
    that a clique forest of h without its dominated nodes would give.
    """
    if not 0 < eps < 1:
        raise BadEpsilon("eps must lie in (0, 1)")
    k = mis_eps_to_k(eps)
    strips: List[IntervalStrip] = []
    survivors: Set[int] = set()
    for strip in _component_strips(h):
        keep = strip.nodes - strip_dominated(strip)
        survivors |= keep
        strips += strips_from_traces(strip.cliques, keep)
    strips.sort(key=lambda s: clique_word(s.cliques[0]))
    reduced = h.subgraph(survivors)
    cps = [CliquePath(reduced, s) for s in strips]
    chosen: Set[int] = set()
    for cp in cps:
        chosen |= _mis_component(cp, k)
    return k, cps, chosen


def mis_interval(h: Graph, eps: float) -> Set[int]:
    """Independent set of size at least alpha(h) / (1 + eps) on an interval graph.

    Small-diameter components are solved exactly; elsewhere a distance-k
    skeleton is picked and exact sets are filled in between consecutive
    skeleton members and on both tails.
    """
    return _mis_interval_parts(h, eps)[2]


@dataclass(frozen=True)
class SkeletonPairs:
    """A distance-k skeleton with its consecutive gap pairs.

    Members are pairwise more than k apart; consecutive members sit at
    distance at most 2k - 1 (exactly k + 1 for the greedy skeleton), and the
    `between` node sets lie strictly between a pair, outside both closed
    neighborhoods.
    """

    members: tuple
    pairs: tuple
    between: Dict[tuple, frozenset]


def skeleton_pairs(cp: CliquePath, k: int) -> SkeletonPairs:
    strip = cp.strip
    g = cp.graph
    members = _distance_mis_component(cp, k)
    pairs = []
    between = {}
    for u, v in zip(members, members[1:]):
        duv = strip.dist(u, v)
        if duv > 2 * k - 1:
            raise AssertionError("consecutive skeleton members too far apart")
        du = bfs_distances(g, u, cutoff=duv)
        dv = bfs_distances(g, v, cutoff=duv)
        banned = g.closed_neighborhood(u) | g.closed_neighborhood(v)
        pairs.append((u, v))
        between[(u, v)] = frozenset(
            w for w, d in du.items()
            if w not in banned and d <= duv and dv.get(w, duv + 1) <= duv
        )
    return SkeletonPairs(tuple(members), tuple(pairs), between)


def _mis_component(cp: CliquePath, k: int) -> Set[int]:
    strip = cp.strip
    if strip.diameter() <= 10 * k:
        return strip.greedy_mis()
    skel = skeleton_pairs(cp, k)
    chosen = set(skel.members)
    for pair in skel.pairs:
        chosen |= strip.greedy_mis(allowed=skel.between[pair])
    first, last = skel.members[0], skel.members[-1]
    left = {w for w in strip.nodes if strip.hi[w] < strip.lo[first]}
    right = {w for w in strip.nodes if strip.lo[w] > strip.hi[last]}
    chosen |= strip.greedy_mis(allowed=left)
    chosen |= strip.greedy_mis(allowed=right)
    return chosen
