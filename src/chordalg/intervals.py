"""Interval-graph algorithms on clique strips: budgeted coloring extension,
approximate coloring, dominated-node removal, the claw test, distance-k
independent sets, and the approximate maximum independent set routine,
which fills a distance-k skeleton with one sweep over the nodes that meet no
skeleton member.

Every component reaches these routines as an `IntervalStrip`: its maximal
cliques in path order, canonically oriented (smaller end word first). Where
the canonical clique forest branches, the order is searched chain by chain:
pairs of cliques whose separator lies in no third clique are adjacent in
every order, so their maximal runs are placed whole. Each
graph question is answered from the strip's clique ranges `lo`/`hi` and its
`jump` table, never by a search over a graph: adjacency is range overlap, and
a node that ends at or after clique j lies within h hops of clique j's
members iff its first clique is at most `strip.hop(j, h)`. Every sweep
follows the canonical node order (first clique, last clique, id), which is
what makes the centralized and simulated distributed variants produce
identical answers. The coloring sweep shared by `extend_coloring` and
`greedy_fill` gives each node the smallest color that neither its frontier
(the earlier free nodes whose range overlaps its own) nor a fixed node on
its cliques holds, taken from a heap of the colors released by ranges that
have ended, in O(log omega) per node (the left-edge sweep of Gupta, Lee &
Leung 1979). Greedy in this order is optimal on interval graphs (Olariu
1991), so the budgeted search rarely backtracks; only then are the
frontiers listed.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from itertools import accumulate
from typing import Dict, List, Optional, Set, Tuple

from .cliqueforest import (
    CliqueForest, IntervalStrip, clique_forest, clique_word,
    strips_from_traces, walk_path,
)
from .errors import BadEpsilon, Infeasible, NotInterval, NotProperInterval
from .graphs import Graph

Coloring = Dict[int, int]

# step cap of the backtracking in `extend_coloring`
EXTENSION_CAP = 2_000_000
# cap on the chains `_arrange_cliques` places
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


def _arrange_cliques(forest: CliqueForest, comp: List[int],
                     forced: Dict[int, List[int]], cap: int) -> List[int]:
    """The word-first consecutive order of one component's cliques (the one
    whose sequence of words is smallest), as forest ids; NotInterval when
    there is none or when the search places more than `cap` chains.

    Forced pairs. A forest edge (a, b) listed in `forced` (see
    `_star_forest`) has a separator S = a & b that lies in no third
    clique. Then a and b are adjacent in every consecutive order: the
    cliques holding a node form an interval of the order, so the cliques
    holding all of S (S is not empty) form an interval too, and that
    interval is {a, b}. So the forced edges form paths, the chains, and a
    clique with three forced neighbours has no order. Each chain is a block
    of every order, in its path order or reversed.

    Placing a chain. The cliques holding a node span a subtree of the
    forest, a clique tree (Blair & Peyton 1993), so those in a chain form a
    subpath of it. A node held only by the chain opens and closes inside
    the block, whatever comes before or after. The other nodes of the
    chain, its outside nodes, each lie in the separator of a non-forced
    edge at the chain; for them `left` counts the chains holding them that
    are not placed. Entered at end e and left by end f, the chain keeps the
    order consecutive iff every open node (placed, with unplaced holders)
    lies in e, and every outside node that is not in f has this chain as
    its last unplaced one: its run in the block ends before f, so it closes
    there. The outside nodes of f with unplaced holders left are then the
    open nodes, and the next chain is entered at an end holding them all.

    Alike ends. Two ends whose chains have the same outside nodes, with the
    same of them in the entry end and in the far end, are interchangeable.
    Swap the two blocks in an order, each entered at the matching end (for
    the two ends of one chain, reverse its block). A node held by neither
    chain lies within one stretch between or beside them (else it would lie
    in a block it spans), an outside node fills the start, the end or all of
    each block as it lies in the entry end, the far end or both, and every
    other node stays inside its block. So the order stays consecutive, and
    once an end fails at a placed set, the ends alike to it are skipped
    there.

    The search is the depth-first search over cliques in id order (word
    order) with every candidate pruned that cannot complete: a clique inside
    a chain (its two chain neighbours would both have to follow it), an end
    whose chain breaks the entry rule, and an end alike to one that failed.
    Two orders first differ where both enter a chain, so trying the entries
    in id order still finds the word-first order first. Starts must pass
    `_may_open`, and placed chain sets (bit masks over chains) already seen
    to die are skipped. Each placement of a chain is one step.
    """
    cliques, fadj = forest.cliques, forest.fadj
    ids = sorted(comp)
    if any(len(forced.get(a, ())) > 2 for a in ids):
        raise NotInterval("component has no consecutive clique arrangement")
    chains: List[List[int]] = []
    chain_of: Dict[int, int] = {}
    run: Dict[int, List[int]] = {}  # per chain end, its chain entered there
    for a in ids:
        if a not in chain_of and len(forced.get(a, ())) < 2:
            chain = walk_path(forced, a, forced) if a in forced else [a]
            chain_of.update(dict.fromkeys(chain, len(chains)))
            chains.append(chain)
            run[chain[0]], run[chain[-1]] = chain, chain[::-1]
    outside: List[Set[int]] = [set() for _ in chains]
    left: Dict[int, int] = {}  # per outside node, its unplaced chains
    for a in ids:
        for b in fadj[a]:
            if a < b and b not in forced.get(a, ()):
                sep = cliques[a] & cliques[b]
                outside[chain_of[a]] |= sep
                outside[chain_of[b]] |= sep
                for v in sep:
                    left[v] = left.get(v, 1) + 1
    shape = {}  # per end: its chain's outside nodes, those in it, those in the far end
    for chain, out in zip(chains, map(frozenset, outside)):
        first, last = out & cliques[chain[0]], out & cliques[chain[-1]]
        shape[chain[0]], shape[chain[-1]] = (out, first, last), (out, last, first)
    ends = sorted(run)
    ends_of: Dict[int, List[int]] = {}  # per outside node, the ends holding it
    for e in ends:
        for v in shape[e][1]:
            ends_of.setdefault(v, []).append(e)
    must_close = {e: out - far for e, (out, _, far) in shape.items()}
    dead: Set[int] = set()

    def entries(pool, open_nodes, used):
        """The chain ends of `pool` that may come next, filtered lazily:
        each time the search is back at this placed set, after the last
        end given has failed."""
        failed = set()
        for e in pool:
            if (not used >> chain_of[e] & 1 and open_nodes <= cliques[e]
                    and all(left[v] == 1 for v in must_close[e])
                    and used | 1 << chain_of[e] not in dead and shape[e] not in failed):
                failed.add(shape[e])
                yield e

    placed: List[Tuple[int, Set[int]]] = []  # entry ends, with the open nodes before
    open_nodes: Set[int] = set()
    used = 0  # the placed chains as a bit mask
    stack = [entries((e for e in ends if _may_open(forest, e)), open_nodes, used)]
    steps = 0
    while True:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            if not placed:
                raise NotInterval("component has no consecutive clique arrangement")
            dead.add(used)
            e, open_nodes = placed.pop()
            used ^= 1 << chain_of[e]
            for v in outside[chain_of[e]]:
                left[v] += 1
            continue
        if steps == cap:
            raise NotInterval("clique arrangement search hit its cap of %d steps;"
                              " the graph may still be interval" % cap)
        steps += 1
        placed.append((e, open_nodes))
        used |= 1 << chain_of[e]
        for v in outside[chain_of[e]]:
            left[v] -= 1
        if len(placed) == len(chains):
            return [c for e, _ in placed for c in run[e]]
        open_nodes = {v for v in outside[chain_of[e]] & cliques[run[e][-1]] if left[v]}
        stack.append(entries(ends_of[min(open_nodes, key=left.__getitem__)],
                             open_nodes, used))


def _component_strips(h: Graph) -> List[IntervalStrip]:
    """One canonical strip per connected component; NotInterval when one has
    no consecutive clique order (then it is not interval: Gilmore & Hoffman
    1964) or when `_arrange_cliques` hits its cap.

    A component is ordered by its canonical forest where that is a path,
    walked from the smaller-id end. Weight ties can make the forest branch
    on interval graphs; then `_arrange_cliques` takes the word-first order,
    chain by chain over the forced edges that `clique_forest` reports,
    trying only starts that pass `_may_open`. Its reverse is consecutive
    too, so either order starts at the smaller end word, as canonical.
    A path forest is walked, not searched: its walk need not be the
    word-first order (the star K1,3 walks (1,2),(1,4),(1,3)).
    """
    forced: Dict[int, List[int]] = {}
    forest = clique_forest(h, forced)
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
            end = min(i for i in comp if forest.degree(i) <= 1)
            ids = walk_path(forest.fadj, end, set(comp))
        else:
            ids = _arrange_cliques(forest, comp, forced, ARRANGE_CAP)
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


def _sweep(strip: IntervalStrip, fixed: Coloring, budget: Optional[int]) -> Coloring:
    """Color the free nodes of a strip in canonical order, smallest color
    first, around the `fixed` ones; the body of `extend_coloring` and, with
    budget None, of `greedy_fill`.

    A free node's blocked colors are the colors of its frontier, the earlier
    free nodes whose range overlaps its own, and the fixed colors on its
    cliques. Later free nodes are not colored yet, so nothing else can
    block it. Fixed colors are recorded only on the cliques that hold a
    fixed node: `marks` maps each such clique to its fixed colors, and
    `marked` lists those cliques in order.

    The greedy descent is the left-edge sweep with a pool of released
    colors (Gupta, Lee & Leung 1979): O(log omega) per node, plus one step
    per fixed color passed over. It keeps a heap `active` of (last clique,
    color) of the free nodes colored so far that have not ended, and a heap
    `spare`, such that {1, ..., fresh - 1} is the disjoint union of `spare`
    and the active colors. Before v is colored, the nodes ending before
    lo[v] leave `active` and give their colors back to `spare`. An earlier
    node u has lo[u] <= lo[v], so it overlaps v iff hi[u] >= lo[v]: the
    active nodes are then exactly v's frontier. They all hold clique lo[v],
    so each is in the frontier of every later one and their colors are
    distinct. So the colors that no frontier node holds are those of
    `spare` and every color from `fresh` on. Taking them smallest first and
    passing over the ones fixed on v's cliques gives the smallest color
    that is neither a frontier color nor fixed there, the greedy choice.
    v's color becomes active and the passed colors go to `spare`, so the
    invariant holds for the next node.

    Only when a node finds no color within the budget does the backtracking
    search take over from there. It then lists every position's frontier
    from `lo`/`hi`, and builds its dead-state keys only once a state has
    died.
    """
    lo, hi = strip.lo, strip.hi
    # per clique that holds a fixed node, the fixed colors on it
    marks: Dict[int, Set[int]] = {}
    # a budget brings checks of `fixed`, made in id order
    for v in sorted(fixed) if budget is not None else fixed:
        c = fixed[v]
        cover = range(lo[v], hi[v] + 1)
        if budget is not None:
            if not 1 <= c <= budget:
                raise Infeasible("fixed color %d outside budget %d" % (c, budget))
            if any(c in marks.get(j, ()) for j in cover):
                raise Infeasible("fixed coloring is not legal")
        for j in cover:
            if j in marks:
                marks[j].add(c)
            else:
                marks[j] = {c}
    # the marked cliques in order, then one past the last clique
    marked = [*sorted(marks), len(strip.cliques)]

    def pinned(a, end) -> Set[int]:
        """The fixed colors on the cliques from marked[a] to `end`; when
        that is one clique, its own set in `marks`, to be read only."""
        b = bisect_right(marked, end, a)
        if b == a + 1:
            return marks[marked[a]]
        return set().union(*map(marks.__getitem__, marked[a:b]))

    order = strip.sorted_nodes()
    out = dict(fixed)
    limit = math.inf if budget is None else budget
    # the descent's step cap; without a budget, one no position passes
    cap = EXTENSION_CAP if budget is not None else len(order)
    active: List[Tuple[int, int]] = []
    spare: List[int] = []
    fresh = 1
    a = 0  # the first marked clique at or after the current start, in `marked`
    stuck = 0  # the descent's position among the free nodes
    for v in order:
        if v in fixed:
            continue
        if stuck > cap:
            raise Infeasible("search cap exceeded (budget %d)" % budget)
        start = lo[v]
        while active and active[0][0] < start:
            heappush(spare, heappop(active)[1])
        while marked[a] < start:
            a += 1
        if marked[a] > hi[v]:  # no fixed color on v's cliques
            if spare:
                c = heappop(spare)
            else:
                c, fresh = fresh, fresh + 1
        else:
            taken = pinned(a, hi[v])
            passed = []
            while True:
                if spare:
                    c = heappop(spare)
                else:
                    c, fresh = fresh, fresh + 1
                if c not in taken:
                    break
                passed.append(c)
            for p in passed:
                heappush(spare, p)
        if c > limit:
            break
        heappush(active, (hi[v], c))
        out[v] = c
        stuck += 1
    else:  # the descent colored every free node
        return out

    free = [v for v in order if v not in fixed]
    # color[i] is free[i]'s color while i is below the search position, and
    # the last color tried at i otherwise (0: none yet)
    color = [out[v] for v in free[:stuck]] + [0] * (len(free) - stuck)
    frontier_at: List[Tuple[int, ...]] = []  # positions in `free`
    front: List[int] = []
    start = 0
    for i, v in enumerate(free):
        if lo[v] != start:  # ranges leave the frontier only as the start moves on
            start = lo[v]
            front = [p for p in front if hi[free[p]] >= start]
        frontier_at.append(tuple(front))
        front.append(i)

    def state_key(i):
        named = set(fixed.values())
        seen: Dict[int, int] = {}
        return (i, tuple(-c if c in named else seen.setdefault(c, len(seen))
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
            taken = set(pinned(bisect_left(marked, lo[v]), hi[v]))
            taken.update(map(color.__getitem__, frontier_at[i]))
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
    out.update(zip(free, color))
    return out


def extend_coloring(strip: IntervalStrip, budget: int, fixed: Coloring) -> Coloring:
    """Extend a partial coloring of a clique path to all of it within `budget`.

    Colors are tried smallest-first along the canonical order, so the first
    descent is the plain greedy sweep, which takes each free node's color
    from a heap of released colors, passing over the fixed colors on its
    cliques (see `_sweep`); backtracking with dead-state memoization only
    kicks in when the fixed far boundary forces it, and only then are the
    frontiers of the free nodes listed. Raises Infeasible when a fixed color
    lies outside 1..budget or clashes with another, when no extension exists
    within the budget (never when the separation preconditions hold), or
    when the search takes more than `EXTENSION_CAP` steps.
    """
    return _sweep(strip, fixed, budget)


def greedy_fill(strip: IntervalStrip, fixed: Coloring) -> Coloring:
    """One-sided greedy extension along the canonical order: the
    released-color heap sweep of `extend_coloring` without a budget, so it
    never backtracks or lists a frontier, and without checking `fixed`."""
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
    floor((1 + 1/k) * omega) + 1 colors.

    Boundary cliques k + 3 hops apart (`_select_boundaries`) are colored
    1, 2, ... in id order; then one greedy sweep colors every other node
    around them. It equals one sweep per segment (the cliques from one
    boundary to the next) and one over the tail past the last boundary,
    each around the boundary colors it holds:
    - A free node lies in no boundary clique, and its cliques are
      consecutive, so its range falls strictly between two consecutive
      boundaries, or past the last one. Free nodes of different segments
      never share a clique, and the sweep's canonical order lists each
      segment's free nodes together, in their order within the segment.
    - So a free node's frontier, the earlier free nodes that overlap it, is
      its frontier in its segment's sweep, and the fixed colors on its
      cliques are those of the two boundary cliques around it (a boundary
      node that reaches one of its cliques lies in one of those two, as its
      own cliques are consecutive too). Greedy takes the same color in both.
    A segment within its own budget, color_budget(k, omega of the
    segment), is then exactly what `extend_coloring` gives it: its first
    descent is this greedy. Boundary colors are at most that omega, below
    the budget, so a segment is over budget iff one of its free nodes is,
    and only such a segment is colored again by `extend_coloring` on its
    cut of the strip. The tail has no budget. A one-clique strip is its
    own boundary and is not swept.
    """
    bounds = _select_boundaries(strip, k + 3)
    cliques = strip.cliques
    colors: Coloring = {}
    for b in bounds:
        colors.update(zip(sorted(cliques[b]), range(1, len(cliques[b]) + 1)))
    if len(cliques) == 1:
        return colors
    colors = greedy_fill(strip, colors)
    top = [0] * len(cliques)  # top[j]: the highest color of a node starting at j
    for v, j in strip.lo.items():
        if colors[v] > top[j]:
            top[j] = colors[v]
    for left, right in zip(bounds, bounds[1:]):
        budget = color_budget(k, max(map(len, cliques[left:right + 1])))
        if max(top[left:right + 1]) > budget:
            fixed = {v: colors[v] for v in cliques[left] | cliques[right]}
            colors.update(extend_coloring(strip.segment(left, right), budget, fixed))
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
    They are the coloring branch of the MVC replay and the skeleton branch
    of the MIS replays."""
    return [2 * k + 12] + [k + 6] * 9 + [3 * k + 15]


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
