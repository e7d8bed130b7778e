"""The anchored MIS sweep kept as a reference for the differential tests.

It is `mis.absorbing_mis` before the sweep was read off the component's
strip: it cuts the record's cliques a second time, with the anchor clique
appended, into a strip that keeps the input direction (the `oriented` form
of `cliqueforest.strips_from_traces`), and sweeps that strip.
"""

from typing import List, Set

from chordalg.cliqueforest import IntervalStrip


def oriented_strips(clique_seq, keep) -> List[IntervalStrip]:
    """Clique paths of the subgraph induced by `keep` inside a clique path,
    one per connected component, in the input direction and order."""
    keep = set(keep)
    traces = []
    for c in clique_seq:
        tr = c & keep
        if not tr:
            continue
        while traces and traces[-1] <= tr:
            traces.pop()
        if traces and tr <= traces[-1]:
            continue
        traces.append(tr)
    runs: List[List[frozenset]] = []
    for tr in traces:
        if runs and runs[-1][-1] & tr:
            runs[-1].append(frozenset(tr))
        else:
            runs.append([frozenset(tr)])
    return [IntervalStrip(run) for run in runs]


def absorbing_mis(cliques, component, anchor) -> Set[int]:
    """Maximum independent set of a small interval component.

    `cliques` is the clique path the component was peeled from, ordered so
    that its last clique lies next to the `anchor` clique. The sweep runs
    on the strip of component plus anchor, which ends at the anchor, and
    takes the node with the smallest right end first.
    """
    component = set(component)
    anchor = frozenset(anchor)
    strips = oriented_strips(list(cliques) + [anchor], component | anchor)
    if len(strips) != 1 or strips[0].cliques[-1] != anchor:
        raise AssertionError("anchored strip is not one path ending at the anchor")
    # anchor members only widen ranges, they are never picked
    return strips[0].greedy_mis(allowed=component)


def reference_absorbing(record, strip, anchor) -> Set[int]:
    """The reference sweep for the component of `strip`, cut from `record`
    next to the attach clique `anchor`."""
    cliques = record.cliques[::-1] if anchor == record.attach_s else record.cliques
    return absorbing_mis(cliques, strip.nodes, anchor)
