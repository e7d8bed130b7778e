"""The strip sweep kept as a reference for the differential tests.

It is `intervals._sweep` before the greedy descent used a free-color heap:
each free node's blocked colors are rebuilt from its whole frontier and
from one set of fixed colors per clique, and every position's frontier is
listed while a budgeted sweep runs. The only edit is that the step cap is
read from `intervals`, so a test that patches it there patches both.
"""

from typing import Dict, List, Optional, Set, Tuple

from chordalg import intervals
from chordalg.cliqueforest import IntervalStrip
from chordalg.errors import Infeasible
from chordalg.intervals import Coloring


def reference_sweep(strip: IntervalStrip, fixed: Coloring, budget: Optional[int]) -> Coloring:
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
    # positions in `free`; only a search can read them, so greedy keeps none
    frontier_at: List[Tuple[int, ...]] = []
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
            if budget is not None and len(free) > intervals.EXTENSION_CAP:
                raise Infeasible("search cap exceeded (budget %d)" % budget)
            taken = set(map(color.__getitem__, active))
            taken.update(*fixed_at[start:hi[v] + 1])
            c = 1
            while c in taken:
                c += 1
            if budget is not None and c > budget:
                stuck, c = len(free), 0
        color.append(c)
        if budget is not None:
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
            if expansions > intervals.EXTENSION_CAP:
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
