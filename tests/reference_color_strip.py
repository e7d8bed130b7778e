"""The strip coloring kept as a reference for the differential tests.

It is `intervals.color_strip` before each strip was colored with one sweep:
every segment between consecutive boundary cliques is rebuilt as its own
`IntervalStrip` and extended within its own budget, and the tail past the
last boundary is rebuilt and filled greedily.
"""

from chordalg.cliqueforest import IntervalStrip
from chordalg.intervals import (
    _select_boundaries, color_budget, extend_coloring, greedy_fill,
)


def reference_color_strip(strip, k, extend=extend_coloring):
    """`extend` is called for every segment, so a test can watch the
    segments whose greedy colors exceed their budget."""
    bounds = _select_boundaries(strip, k + 3)
    colors = {}
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
        colors.update(extend(seg, color_budget(k, omega), fixed))
    if bounds[-1] < len(strip.cliques) - 1:
        tail = strip if bounds[-1] == 0 else IntervalStrip(strip.cliques[bounds[-1]:])
        fixed = {v: colors[v] for v in tail.nodes if v in colors}
        colors.update(greedy_fill(tail, fixed))
    return colors
