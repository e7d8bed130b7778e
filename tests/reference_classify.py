"""The path classification kept as a reference for the differential tests.

It is `cliqueforest.classify_paths` before each run was found with one walk:
a breadth-first search collects the run of degree-<=2 cliques, the old
`walk_path` searches that run for its smaller-id end and then walks it, and
the records are sorted by their first clique's word at the end.
"""

from collections import deque
from typing import List, Set

from chordalg.cliqueforest import (
    BINARY_COMPONENT, INTERNAL, PENDANT, CliqueForest, PeelPath,
)


def walk_component(fadj, comp) -> List[int]:
    """The cliques of a path component `comp` of a forest, in path order
    from its smallest-id end."""
    compset = set(comp)
    seq = [min(i for i in compset
               if sum(1 for j in fadj[i] if j in compset) <= 1)]
    prev = None
    while len(seq) < len(compset):
        cur = seq[-1]
        nxt = [j for j in fadj[cur] if j in compset and j != prev]
        prev = cur
        seq.append(nxt[0])
    return seq


def reference_classify(forest: CliqueForest) -> List[PeelPath]:
    """All maximal pendant and internal paths plus whole path components,
    sorted by their first clique's word."""
    cliques = forest.cliques
    paths = []
    lowset = {i for i in range(len(forest)) if forest.degree(i) <= 2}
    seen: Set[int] = set()
    for start in sorted(lowset):
        if start in seen:
            continue
        # the run = connected component of `start` among degree-<=2 cliques
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for j in forest.fadj[cur]:
                if j in lowset and j not in seen:
                    seen.add(j)
                    comp.append(j)
                    queue.append(j)
        seq = walk_component(forest.fadj, comp) if len(comp) > 1 else comp
        attach_s = next((j for j in forest.fadj[seq[0]] if j not in lowset), None)
        attach_e = next((j for j in forest.fadj[seq[-1]]
                         if j not in lowset and j != attach_s), None)
        if attach_s is None and attach_e is None:
            kind = PENDANT if len(seq) == 1 else BINARY_COMPONENT
        elif attach_s is None or attach_e is None:
            kind = PENDANT
        else:
            kind = INTERNAL
        run = tuple(map(cliques.__getitem__, seq))
        ends = [None if a is None else cliques[a] for a in (attach_s, attach_e)]
        members = set().union(*run).difference(*filter(None, ends))
        paths.append(PeelPath(tuple(seq), run, kind, *ends, tuple(sorted(members))))
    paths.sort(key=lambda p: forest.words[p.ids[0]])
    return paths
