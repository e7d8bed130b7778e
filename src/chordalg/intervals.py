"""Interval-graph algorithms on clique strips: budgeted coloring extension,
approximate coloring, dominated-node removal, the claw test, distance-k
independent sets, and the approximate maximum independent set routine,
which fills a distance-k skeleton with one sweep over the nodes that meet no
skeleton member.

Every component reaches these routines as an `IntervalStrip`: its maximal
cliques in path order, canonically oriented (smaller end word first). Each
graph question is answered from the strip's clique ranges `lo`/`hi` and its
`jump` table, never by a search over a graph: adjacency is range overlap, and
a node that ends at or after clique j lies within h hops of clique j's
members iff its first clique is at most `strip.hop(j, h)`. Every sweep
follows the canonical node order (first clique, last clique, id), which is
what makes the centralized and simulated distributed variants produce
identical answers. The coloring sweep shared by `extend_coloring` and
`greedy_fill` reads a node's blocked colors from its frontier (the earlier
free nodes whose range overlaps its own) and the fixed colors on its
cliques; greedy in this order is optimal on interval graphs (Olariu 1991),
so the budgeted search rarely backtracks.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Dict, List, Optional, Set, Tuple

from .cliqueforest import (
    CliqueForest, IntervalStrip, _holder_ids, clique_forest, clique_word,
    strips_from_traces, walk_path,
)
from .errors import BadEpsilon, Infeasible, NotInterval, NotProperInterval
from .graphs import Graph
from .localsim import replay

Coloring = Dict[int, int]

# step cap of the backtracking in `extend_coloring`
EXTENSION_CAP = 2_000_000
# step cap of the clique arrangement search in `_arrange_cliques`
ARRANGE_CAP = 500_000


def _may_open(forest: CliqueForest, i: int) -> bool:
    """The start test: clique i opens no consecutive order of its component
    unless its largest forest separator holds all its others.

    Proof: in an order i, c2, ..., the cliques holding a node are
    consecutive, so every node that i shares lies in c2. The cliques holding
    a node span a subtree of the forest, a clique tree (Blair & Peyton
    1993), so such a node also lies in i's separator toward c2. That
    separator holds all the others, so it is the largest.
    """
    cliques = forest.cliques
    seps = [cliques[i] & cliques[j] for j in forest.fadj[i]]
    widest = max(seps, key=len, default=frozenset())
    return all(s <= widest for s in seps)


def _arrange_cliques(forest: CliqueForest, comp: List[int], cap: int) -> List[int]:
    """The word-first consecutive order of one component's cliques (the one
    whose sequence of words is smallest), as forest ids; NotInterval when
    there is none or when the search takes more than `cap` steps.

    The next clique must hold every open node (placed, with unplaced
    holders), so it is an unplaced holder of the open node with the fewest;
    all its holders lie in this component. Depth-first search tries the
    starts that pass `_may_open`, then those holders, in id order (word
    order), skipping placed sets (bit masks over ids) already seen to die.
    """
    cliques = forest.cliques
    holders = _holder_ids(cliques, sorted(comp))
    open_nodes: Set[int] = set()
    left: Dict[int, int] = {}  # per placed node, its unplaced holders
    placed: List[int] = []
    used = 0  # the placed set as a bit mask
    dead: Set[int] = set()
    stack = [(i for i in sorted(comp) if _may_open(forest, i))]
    for _ in range(cap):
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            if not placed:
                raise NotInterval("component has no consecutive clique arrangement")
            dead.add(used)
            nxt = placed.pop()
            used ^= 1 << nxt
            for v in cliques[nxt]:
                left[v] += 1
                if left[v] < len(holders[v]):
                    open_nodes.add(v)
                else:
                    open_nodes.discard(v)
            continue
        placed.append(nxt)
        used |= 1 << nxt
        for v in cliques[nxt]:
            left[v] = left.get(v, len(holders[v])) - 1
            if left[v]:
                open_nodes.add(v)
            else:
                open_nodes.discard(v)
        if len(placed) == len(comp):
            return placed
        # filtered lazily: each time the search is back at this placed set
        stack.append(i for i in holders[min(open_nodes, key=left.__getitem__)]
                     if not used >> i & 1 and open_nodes <= cliques[i]
                     and used | 1 << i not in dead)
    raise NotInterval("clique arrangement search hit its cap of %d steps;"
                      " the graph may still be interval" % cap)


def _component_strips(h: Graph) -> List[IntervalStrip]:
    """One canonical strip per connected component; NotInterval when one has
    no consecutive clique order (then it is not interval: Gilmore & Hoffman
    1964) or when `_arrange_cliques` hits its cap.

    A component is ordered by its canonical forest where that is a path,
    walked from the smaller-id end. Weight ties can make the forest branch
    on interval graphs; then `_arrange_cliques` takes the word-first order,
    trying only starts that pass `_may_open`. Its reverse is consecutive
    too, so either order starts at the smaller end word, as canonical.
    """
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
            ids = walk_path(forest.fadj, comp)
        else:
            ids = _arrange_cliques(forest, comp, ARRANGE_CAP)
        strips.append(IntervalStrip([forest.cliques[i] for i in ids]))
    strips.sort(key=lambda s: clique_word(s.cliques[0]))
    return strips


def _suffix_min_hi(strip: IntervalStrip) -> List[int]:
    """`sufmin[j]`, for j = 0..t: the smallest last clique among nodes whose
    first clique is at least j, or t when there is none."""
    lo, hi = strip.lo, strip.hi
    t = len(strip.cliques)
    sufmin = [t] * (t + 1)
    for v, j in lo.items():
        if hi[v] < sufmin[j]:
            sufmin[j] = hi[v]
    for j in range(t - 1, -1, -1):
        if sufmin[j + 1] < sufmin[j]:
            sufmin[j] = sufmin[j + 1]
    return sufmin


def strip_is_proper(strip: IntervalStrip) -> bool:
    """Is the graph a strip spans free of induced three-leaf stars (claws)?

    The strip's cliques must be the maximal cliques of that graph. The
    middle leaf b of a claw centred at v has its range strictly inside v's
    on both sides: lo[v] < lo[b] and hi[b] < hi[v]. Conversely, given such
    b, clique lo[b] - 1 is maximal, so it holds a node a that ends there,
    and clique hi[b] + 1 a node c that starts there; a, b and c are
    pairwise apart and all meet v's range. So a claw exists iff
    `sufmin[lo[v] + 1] < hi[v]` for some v. Claw-free interval graphs are
    exactly the proper interval graphs (Roberts 1969).
    """
    sufmin = _suffix_min_hi(strip)
    hi = strip.hi
    return all(sufmin[j + 1] >= hi[v] for v, j in strip.lo.items())


def is_proper_interval(h: Graph) -> bool:
    """True iff h is an interval graph with no induced three-leaf star."""
    try:
        strips = _component_strips(h)
    except NotInterval:
        return False
    return all(map(strip_is_proper, strips))


def strip_dominated(strip: IntervalStrip) -> Set[int]:
    """Nodes of a strip whose closed neighborhood strictly contains another's.

    The strip's cliques must be the maximal cliques of the graph it spans.
    Then N[u] is inside N[v] iff u's clique range lies inside v's, so v is
    dominated iff some other range lies strictly inside its own: with the
    suffix minimum `sufmin` of `_suffix_min_hi`, iff `sufmin[lo] < hi` or
    `sufmin[lo + 1] <= hi`. One sweep.
    """
    sufmin = _suffix_min_hi(strip)
    hi = strip.hi
    return {v for v, j in strip.lo.items()
            if sufmin[j] < hi[v] or sufmin[j + 1] <= hi[v]}


def undominated_strips(strip: IntervalStrip) -> List[IntervalStrip]:
    """The strips of the graph a strip spans, without its dominated nodes."""
    return strips_from_traces(strip.cliques, strip.nodes - strip_dominated(strip))


def remove_dominated(h: Graph) -> Graph:
    """Drop every node whose closed neighborhood strictly contains another's.

    One simultaneous pass, swept along each component's strip; preserves the
    independence number and leaves a proper interval graph.
    """
    doomed: Set[int] = set()
    for strip in _component_strips(h):
        doomed |= strip_dominated(strip)
    return h.subgraph(h.nodes - doomed)


def _sweep(strip: IntervalStrip, fixed: Coloring, budget: Optional[int]) -> Coloring:
    """Color the free nodes of a strip in canonical order, smallest color
    first, around the `fixed` ones; the body of `extend_coloring` and, with
    budget None, of `greedy_fill`.

    A free node's blocked colors are read off what the sweep already holds:
    the colors of its frontier, the earlier free nodes whose range overlaps
    its own, and the fixed colors on its cliques. Later free nodes are not
    colored yet, so nothing else can block it. The greedy descent colors
    each node as the sweep reaches it. Only when a node finds no color
    within the budget does the backtracking search take over from there,
    with the frontiers listed by the sweep; its dead-state keys are built
    only once a state has died.
    """
    lo, hi = strip.lo, strip.hi
    fixed_at: List[Set[int]] = [set() for _ in strip.cliques]
    # a budget brings checks of `fixed`, made in id order
    for v in sorted(fixed) if budget is not None else fixed:
        c = fixed[v]
        cover = fixed_at[lo[v]:hi[v] + 1]
        if budget is not None:
            if not 1 <= c <= budget:
                raise Infeasible("fixed color %d outside budget %d" % (c, budget))
            if any(c in s for s in cover):
                raise Infeasible("fixed coloring is not legal")
        for s in cover:
            s.add(c)

    free: List[int] = []
    frontier_at: List[Tuple[int, ...]] = []  # positions in `free`
    # color[i] is free[i]'s color while i is below the search position, and
    # the last color tried at i otherwise (0: none yet)
    color: List[int] = []
    active: List[int] = []
    start = 0
    stuck = None  # where the greedy descent runs out of colors
    for v in strip.sorted_nodes():
        if v in fixed:
            continue
        if lo[v] != start:  # ranges leave the frontier only as the start moves on
            start = lo[v]
            active = [p for p in active if hi[free[p]] >= start]
        c = 0
        if stuck is None:
            if budget is not None and len(free) > EXTENSION_CAP:
                raise Infeasible("search cap exceeded (budget %d)" % budget)
            taken = set(map(color.__getitem__, active))
            taken.update(*fixed_at[start:hi[v] + 1])
            c = 1
            while c in taken:
                c += 1
            if budget is not None and c > budget:
                stuck, c = len(free), 0
        color.append(c)
        frontier_at.append(tuple(active))
        active.append(len(free))
        free.append(v)

    if stuck is not None:
        def state_key(i):
            named = set(fixed.values())
            fresh: Dict[int, int] = {}
            return (i, tuple(-c if c in named else fresh.setdefault(c, len(fresh))
                             for c in map(color.__getitem__, frontier_at[i])))

        dead = set()
        # the descent made one expansion per position below `stuck`
        expansions = i = stuck
        while i < len(free):
            if expansions > EXTENSION_CAP:
                raise Infeasible("search cap exceeded (budget %d)" % budget)
            if color[i] == 0 and dead and state_key(i) in dead:
                c = None
            else:
                v = free[i]
                taken = set(map(color.__getitem__, frontier_at[i]))
                taken.update(*fixed_at[lo[v]:hi[v] + 1])
                c = color[i] + 1
                while c in taken:
                    c += 1
                if c > budget:
                    c = None
            if c is None:
                if color[i] == 0:
                    dead.add(state_key(i))
                color[i] = 0
                if i == 0:
                    raise Infeasible("no extension within budget %d" % budget)
                i -= 1
                continue
            expansions += 1
            color[i] = c
            i += 1
    out = dict(fixed)
    out.update(zip(free, color))
    return out


def extend_coloring(strip: IntervalStrip, budget: int, fixed: Coloring) -> Coloring:
    """Extend a partial coloring of a clique path to all of it within `budget`.

    Colors are tried smallest-first along the canonical order, so the first
    descent is the plain greedy sweep, which reads each free node's blocked
    colors from its frontier and the fixed colors on its cliques (see
    `_sweep`); backtracking with dead-state memoization only kicks in when
    the fixed far boundary forces it. Raises Infeasible when a fixed color
    lies outside 1..budget or clashes with another, when no extension exists
    within the budget (never when the separation preconditions hold), or
    when the search takes more than `EXTENSION_CAP` steps.
    """
    return _sweep(strip, fixed, budget)


def greedy_fill(strip: IntervalStrip, fixed: Coloring) -> Coloring:
    """One-sided greedy extension along the canonical order: the sweep of
    `extend_coloring` without a budget, so it never backtracks, and without
    checking `fixed`."""
    return _sweep(strip, fixed, None)


def color_budget(k: int, omega: int) -> int:
    """Palette allowance floor((1 + 1/k) * omega) + 1, in exact arithmetic."""
    return (k + 1) * omega // k + 1


def _select_boundaries(strip: IntervalStrip, spacing: int) -> List[int]:
    """Clique indices pairwise at min-distance exactly `spacing`, greedily
    from the canonical left end.

    Of the nodes that end at or after boundary b, those within
    `spacing` - 1 hops of clique b's members start at or before
    J = hop(b, spacing - 1). They reach clique jump[J] at most, and one of
    them reaches it, so the next boundary is hop(b, spacing) + 1.
    """
    t = len(strip.cliques)
    bounds = [0]
    while True:
        nxt = strip.hop(bounds[-1], spacing) + 1
        if nxt >= t:
            return bounds
        bounds.append(nxt)


def color_strip(strip: IntervalStrip, k: int) -> Coloring:
    """Legal coloring of one component's strip with at most
    floor((1 + 1/k) * omega) + 1 colors."""
    spacing = k + 3
    bounds = _select_boundaries(strip, spacing)
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
    if bounds[-1] < len(strip.cliques) - 1:
        # a tail of one clique is the last boundary, colored above
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
    for strip in _component_strips(h):
        colors.update(color_strip(strip, k))
    return colors


def strip_stages(k: int) -> List[int]:
    """Collect radii charged for one distributed strip routine at parameter
    k: structure gather, id-based boundary symmetry breaking, segment fill.
    They are the replay prefix of the interval coloring, the coloring branch
    of the MVC replay and the skeleton branch of the MIS replays."""
    return [2 * k + 12] + [k + 6] * 9 + [3 * k + 15]


def color_interval_distributed(h: Graph, k: int, round_cap=None):
    """Distributed form of color_interval: identical coloring, rounds charged
    per the uniform coloring schedule."""
    transcript = replay(h, color_interval(h, k), strip_stages(k), round_cap=round_cap)
    return dict(transcript.outputs), transcript


def distance_k_mis_distributed(h: Graph, k: int, round_cap=None):
    """Distributed form of distance_k_mis: skeleton selection charged as the
    successor-chain color reduction (constant iterations at desk scale)."""
    members = distance_k_mis(h, k)
    outputs = {v: (v in members) for v in h.nodes}
    transcript = replay(h, outputs, [2] + [k + 1] * 9, round_cap=round_cap)
    return {v for v, flag in transcript.outputs.items() if flag}, transcript


def mis_strip(strip: IntervalStrip, eps: float) -> Set[int]:
    """Approximate MIS entry for callers that already hold a component's strip.

    The strip's cliques must be the maximal cliques of the subgraph it spans.
    """
    k = mis_eps_to_k(eps)
    return set().union(*(_mis_component(sub, k) for sub in undominated_strips(strip)))


def _distance_mis_component(strip: IntervalStrip, k: int) -> List[int]:
    """Greedy distance-k independent set along the canonical order."""
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
        strips = _component_strips(h)
    except NotInterval:
        raise NotProperInterval("input is not an interval graph")
    if len(strips) != 1:
        raise NotProperInterval("input must be connected")
    if not strip_is_proper(strips[0]):
        raise NotProperInterval("induced three-leaf star present")
    return set(_distance_mis_component(strips[0], k))


def mis_eps_to_k(eps: float) -> int:
    return math.ceil(2.5 / eps + 0.5)


def _mis_interval_parts(h: Graph, eps: float):
    """k, the strips of h without its dominated nodes, and the chosen set;
    shared by the centralized and the distributed interval MIS.

    h's strips are built once. Each is swept for its dominated nodes and
    restricted to the rest by `undominated_strips`. What is left is a
    proper interval graph, whose connected components each have one clique
    path up to reversal (Deng, Hell & Huang 1996), so these are the strips
    that a clique forest of h without its dominated nodes would give.
    """
    if not 0 < eps < 1:
        raise BadEpsilon("eps must lie in (0, 1)")
    k = mis_eps_to_k(eps)
    strips = [sub for strip in _component_strips(h) for sub in undominated_strips(strip)]
    strips.sort(key=lambda s: clique_word(s.cliques[0]))
    chosen: Set[int] = set()
    for strip in strips:
        chosen |= _mis_component(strip, k)
    return k, strips, chosen


def mis_interval(h: Graph, eps: float) -> Set[int]:
    """Independent set of size at least alpha(h) / (1 + eps) on an interval graph.

    Dominated nodes are dropped first. Small-diameter components are then
    solved exactly; elsewhere a distance-k skeleton is picked and one exact
    sweep fills the nodes that meet no skeleton member, which are the gaps
    between consecutive members and both tails.
    """
    return _mis_interval_parts(h, eps)[2]


def in_exact_window(strip: IntervalStrip, k: int) -> bool:
    """Whether the interval MIS solves a component exactly: its diameter is
    at most 10k."""
    return strip.diameter() <= 10 * k


def _mis_component(strip: IntervalStrip, k: int) -> Set[int]:
    """Exact MIS inside the window; elsewhere the greedy distance-k skeleton
    plus one earliest-right-end sweep over the nodes that meet no member.

    Members are pairwise more than k >= 2 apart, so their clique ranges are
    disjoint, and a node that meets no member's range lies strictly between
    two consecutive members or in a tail. These groups share no edge and
    follow one another in sweep order, so the one sweep over their union
    equals the union of one sweep per group. On a claw-free strip each gap
    is exactly the paper's set of nodes outside N[u] | N[v] within d(u, v)
    of both consecutive members u, v: distance from u grows with how far
    right a node starts and distance from v with how far left it ends, and
    a node beyond u or v could only qualify through the centre of a claw.
    """
    if in_exact_window(strip, k):
        return strip.greedy_mis()
    lo, hi = strip.lo, strip.hi
    members = _distance_mis_component(strip, k)
    covered = [0] * len(strip.cliques)
    for m in members:
        for j in range(lo[m], hi[m] + 1):
            covered[j] = 1
    before = [0, *accumulate(covered)]  # before[j]: covered cliques below j
    free = {w for w in lo if before[hi[w] + 1] == before[lo[w]]}
    return set(members) | strip.greedy_mis(allowed=free)
