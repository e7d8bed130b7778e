"""Maximal cliques, the canonical maximum-weight clique forest, local views,
path classification on forests, and the peeling loop both algorithms run.

The clique forest is the maximum-weight spanning forest of the clique
intersection graph (weight = number of shared nodes). Ties are broken by a
total order on the edges: weight first, then the sorted member words of the
two endpoint cliques. Cliques are numbered in word order, so that is the
order (weight, lower id, higher id), and Kruskal run in decreasing order of
it picks the canonical forest. That is the definition; no code here runs
Kruskal. `clique_forest` reads the same forest off the clique tree that
maximum cardinality search builds in passing, and `local_view` keeps the
part of a ball's forest that the ball determines. Everything downstream
(peeling, coloring, correction) relies on that canonical choice, so the
tie-breaking here is load-bearing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .errors import DiameterTooSmall, RadiusTooSmall, debug_invariants
from .graphs import Graph, bfs_distances, _require_chordal

Word = Tuple[int, ...]
Link = Tuple[int, int, FrozenSet[int]]


def clique_word(clique) -> Word:
    """The members of a clique listed in increasing order."""
    return tuple(sorted(clique))


def _clique_tree(g: Graph) -> Tuple[List[FrozenSet[int]], List[Word], List[Link]]:
    """The maximal cliques of a chordal graph in word order, their words, and
    the clique tree T0 that `mcs_order` records as it visits, its edges
    (child id, parent id, separator) renumbered to word order.
    """
    eo = _require_chordal(g)
    words = [clique_word(c) for c in eo.runs]
    order = sorted(range(len(words)), key=words.__getitem__)
    rank = {k: i for i, k in enumerate(order)}
    return ([frozenset(eo.runs[k]) for k in order], [words[k] for k in order],
            [(rank[a], rank[b], sep) for a, b, sep in eo.links])


def maximal_cliques(g: Graph) -> List[FrozenSet[int]]:
    """All maximal cliques of a chordal graph, sorted by member word: the
    clique runs that `mcs_order` grows as it visits (see `EliminationOrder`).
    """
    return _clique_tree(g)[0]


def _star_forest(n: int, links: List[Link]) -> Set[Tuple[int, int]]:
    """The canonical forest from the clique tree T0: one star per separator.

    `links` are T0's edges (a, b, K_a & K_b) over `n` cliques in word order.
    For a separator S let E_S be the T0 edges with separator S. The cliques
    that contain S form a subtree T_S of T0, walked from E_S's endpoints by
    stepping to T0 neighbours that contain S (across an edge whose separator
    strictly contains S). Removing E_S splits T_S into |E_S| + 1 pieces, and
    two cliques in different pieces meet in exactly S. With `hub` the
    largest id in T_S, every piece without it is joined to `hub` at the
    piece's own largest id, its `top`.
    """
    tree: List[List[Tuple[int, FrozenSet[int]]]] = [[] for _ in range(n)]
    ends: Dict[FrozenSet[int], List[int]] = {}  # S -> the endpoints of E_S
    for a, b, sep in links:
        tree[a].append((b, sep))
        tree[b].append((a, sep))
        ends.setdefault(sep, []).extend((a, b))
    edges = set()
    for sep, cut in ends.items():
        tops = []
        seen: Set[int] = set()
        for start in cut:
            if start in seen:
                continue
            seen.add(start)
            top = start
            stack = [start]
            while stack:
                for c, s in tree[stack.pop()]:
                    if c not in seen and sep < s:
                        seen.add(c)
                        stack.append(c)
                        if c > top:
                            top = c
            tops.append(top)
        hub = max(tops)
        edges.update((top, hub) for top in tops if top != hub)
    return edges


class CliqueForest:
    """The canonical clique forest: cliques in word order plus forest edges."""

    __slots__ = ("cliques", "words", "edges", "fadj")

    def __init__(self, cliques: List[FrozenSet[int]], edges: Set[Tuple[int, int]],
                 words: Optional[List[Word]] = None):
        self.cliques = tuple(cliques)
        self.words = tuple(map(clique_word, self.cliques) if words is None else words)
        self.edges = frozenset(tuple(sorted(e)) for e in edges)
        fadj: Dict[int, Set[int]] = {i: set() for i in range(len(self.cliques))}
        for a, b in self.edges:
            fadj[a].add(b)
            fadj[b].add(a)
        self.fadj = {i: tuple(sorted(s)) for i, s in fadj.items()}

    def __len__(self):
        return len(self.cliques)

    def degree(self, i: int) -> int:
        return len(self.fadj[i])

    def signature(self):
        """Id-free structural identity, for comparing against recomputation."""
        edge_words = sorted(
            tuple(sorted((self.words[a], self.words[b]))) for a, b in self.edges
        )
        return (self.words, tuple(edge_words))


def _holder_ids(cliques, ids) -> Dict[int, List[int]]:
    """Per node of the cliques `ids`, those of `ids` that hold it, in the
    order of `ids`."""
    holders: Dict[int, List[int]] = {}
    for i in ids:
        for v in cliques[i]:
            holders.setdefault(v, []).append(i)
    return holders


def clique_forest(g: Graph) -> CliqueForest:
    """The canonical clique forest of a chordal graph, read off the clique
    tree T0 that `mcs_order` records (renumbered by `_clique_tree`) by the
    star rule of `_star_forest`.

    This is the forest Kruskal picks in decreasing (weight, lower id,
    higher id) order over every intersecting clique pair:
    - Every maximum-weight spanning forest of the clique intersection graph
      is a clique tree (T0 among them). So at each weight w, the components
      of the edges heavier than w are the same in every such forest.
    - The weight-w edges that join those components form one block per
      separator S with |S| = w: the pieces of T_S are in distinct
      components, and an edge (a, b) with |K_a & K_b| = w between two
      components crosses an edge of T0 with separator K_a & K_b. T0
      contracted is a forest, so no cycle crosses two separators, and
      Kruskal treats each block on its own.
    - A block is complete multipartite over the pieces of T_S. Kruskal in
      decreasing (a, b) order reaches a piece first at its largest id, and
      the largest partner there is the block's largest id; every piece
      without that id is joined to it exactly once.
    """
    cliques, words, links = _clique_tree(g)
    return CliqueForest(cliques, _star_forest(len(cliques), links), words)


def local_view(ball: Graph, center: int, d: int) -> CliqueForest:
    """The fragment of the clique forest that a radius-d ball determines.

    `ball` must be the subgraph induced on the radius-d neighborhood of
    `center` (in whatever host graph the caller cares about). The view is
    the ball's own canonical forest, kept to the cliques that hold a core
    node (one within d-1 of `center`) and to the edges whose intersection
    holds one. It is the same in the ball as in the host graph:
    - A core node's neighbors all lie in the ball, so every clique that
      holds it is maximal in the ball iff it is maximal in the host graph.
    - The cliques holding a node u span a subtree of the canonical forest.
      Swapping it for a better spanning tree of the same cliques would give
      a better forest, so it is their maximum spanning tree under the
      (weight, lower word, higher word) order, fixed by those cliques alone.
    The view is the union of these subtrees over the core nodes. Cliques are
    numbered in word order, as in `clique_forest`.
    """
    if d < 2:
        raise RadiusTooSmall("local views need radius at least 2")
    core = bfs_distances(ball, center, cutoff=d - 1)
    forest = clique_forest(ball)
    cliques = forest.cliques
    keep = [i for i, c in enumerate(cliques) if not c.isdisjoint(core)]
    rank = {i: r for r, i in enumerate(keep)}
    edges = {(rank[a], rank[b]) for a, b in forest.edges
             if not (cliques[a] & cliques[b]).isdisjoint(core)}
    return CliqueForest([cliques[i] for i in keep], edges,
                        words=[forest.words[i] for i in keep])


PENDANT = "pendant"
INTERNAL = "internal"
BINARY_COMPONENT = "binary-component"


@dataclass(frozen=True)
class PeelPath:
    """A maximal run of degree-<=2 cliques, oriented by smaller end word.

    `ids` are its clique ids in the forest it was classified on and
    `cliques` their sets, in path order; `attach_s` and `attach_e` are the
    junction cliques at its start and end sides, None where it has none.
    `members` are the nodes whose whole subtree (the cliques holding them)
    lies on the path, in increasing order. They are the nodes of its cliques
    outside both attach cliques: its cliques have forest degree at most 2,
    so only edges from its end cliques to its attach cliques leave it, and
    the cliques holding a node span a subtree (Blair & Peyton 1993), so a
    node whose subtree leaves the path lies in an attach clique.
    """

    ids: Tuple[int, ...]
    cliques: Tuple[FrozenSet[int], ...]
    kind: str
    attach_s: Optional[FrozenSet[int]]
    attach_e: Optional[FrozenSet[int]]
    members: Tuple[int, ...]


def walk_path(fadj, comp) -> List[int]:
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


def classify_paths(forest: CliqueForest) -> List[PeelPath]:
    """All maximal pendant and internal paths plus whole path components.

    Isolated forest vertices count as pendant paths; every clique of forest
    degree at most two lands in exactly one returned path. Each path comes
    with its `members` (see `PeelPath`).
    """
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
        if len(comp) == 1:
            seq = comp
            junctions = sorted(
                (j for j in forest.fadj[comp[0]] if j not in lowset),
                key=lambda j: forest.words[j],
            )
            attach_s = junctions[0] if junctions else None
            attach_e = junctions[1] if len(junctions) > 1 else None
        else:
            seq = walk_path(forest.fadj, comp)
            attach = []
            for end in (seq[0], seq[-1]):
                junctions = [j for j in forest.fadj[end] if j not in lowset]
                attach.append(junctions[0] if junctions else None)
            attach_s, attach_e = attach
        if attach_s is None and attach_e is None:
            kind = PENDANT if len(seq) == 1 else BINARY_COMPONENT
        elif attach_s is None or attach_e is None:
            kind = PENDANT
        else:
            kind = INTERNAL
        if forest.words[seq[0]] > forest.words[seq[-1]]:  # smaller end word first
            seq.reverse()
            attach_s, attach_e = attach_e, attach_s
        run = tuple(map(cliques.__getitem__, seq))
        ends = [None if a is None else cliques[a] for a in (attach_s, attach_e)]
        members = set().union(*run).difference(*filter(None, ends))
        paths.append(PeelPath(tuple(seq), run, kind, *ends, tuple(sorted(members))))
    paths.sort(key=lambda p: forest.words[p.ids[0]])
    return paths


class IntervalStrip:
    """An ordered clique path with per-node index ranges and O(1)-ish hops.

    Distances computed here agree with distances in the host graph restricted
    to the strip, because consecutive-clique separators are cliques.
    """

    def __init__(self, cliques: List[FrozenSet[int]]):
        self.cliques = list(cliques)
        t = len(self.cliques)
        lo: Dict[int, int] = {}
        hi: Dict[int, int] = {}
        prev: FrozenSet[int] = frozenset()
        for j, c in enumerate(self.cliques):
            for v in c - prev:
                if v in lo:
                    raise ValueError("clique list is not in path order (node %d)" % v)
                lo[v] = j
            for v in prev - c:
                hi[v] = j - 1
            prev = c
        for v in prev:
            hi[v] = t - 1
        self.lo, self.hi = lo, hi
        reach = list(range(t))
        for v, j in lo.items():
            if hi[v] > reach[j]:
                reach[j] = hi[v]
        self.jump = list(accumulate(reach, max))

    @property
    def nodes(self):
        return set(self.lo)

    def sorted_nodes(self):
        """Canonical order along the strip: by (first clique, last clique, id)."""
        return sorted(self.lo, key=lambda v: (self.lo[v], self.hi[v], v))

    def adjacent(self, u, v):
        return self.lo[u] <= self.hi[v] and self.lo[v] <= self.hi[u]

    def dist(self, u, v):
        if u == v:
            return 0
        if self.adjacent(u, v):
            return 1
        if self.hi[u] > self.hi[v]:  # disjoint ranges: make u the left one
            u, v = v, u
        hops = 1
        pos = self.hi[u]
        target = self.lo[v]
        while self.jump[pos] < target:
            if self.jump[pos] == pos:
                return None  # disconnected strip
            pos = self.jump[pos]
            hops += 1
        return hops + 1

    def hop(self, j: int, h: int) -> int:
        """jump^h[j]: a node that ends at or after clique j lies within h
        hops of a member of clique j iff its first clique is at most this."""
        jump = self.jump
        for _ in range(h):
            j = jump[j]
        return j

    def diameter(self) -> int:
        if len(self.lo) <= 1:
            return 0
        far_left = min(self.lo, key=lambda v: (self.hi[v], v))
        far_right = max(self.lo, key=lambda v: (self.lo[v], -v))
        d = self.dist(far_left, far_right)
        if d is None:
            raise ValueError("strip is disconnected")
        return max(d, 1)

    def greedy_mis(self, allowed=None) -> Set[int]:
        """Exact maximum independent set by the earliest-right-end sweep."""
        chosen: Set[int] = set()
        blocked_to = -1
        for v in sorted(self.lo, key=lambda v: (self.hi[v], self.lo[v], v)):
            if allowed is not None and v not in allowed:
                continue
            if self.lo[v] > blocked_to:
                chosen.add(v)
                blocked_to = self.hi[v]
        return chosen


def strips_from_traces(clique_seq, keep, oriented: bool = False) -> List[IntervalStrip]:
    """Clique paths of the subgraph induced by `keep` inside a clique path.

    Restricting a consecutive clique arrangement to a node subset yields the
    arrangement of the induced subgraph: drop empty traces, swallow traces
    contained in a neighbor, and split where consecutive traces are disjoint.
    One strip per connected component, canonically oriented unless `oriented`
    asks to preserve the input direction.
    """
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
    strips = []
    for run in runs:
        if not oriented and clique_word(run[0]) > clique_word(run[-1]):
            run.reverse()
        strips.append(IntervalStrip(run))
    if not oriented:
        strips.sort(key=lambda s: clique_word(s.cliques[0]))
    return strips


def path_diameter(path: PeelPath) -> int:
    """Largest pairwise distance among nodes of the path's cliques."""
    return IntervalStrip(path.cliques).diameter()


def remove_paths(forest: CliqueForest, g: Graph, paths) -> CliqueForest:
    """Peel the given `PeelPath`s, classified on `forest`, off it by their
    clique ids.

    Internal paths must have diameter at least 4. The surviving forest is
    the clique forest of the residual graph, and the removed nodes are the
    paths' `members`. `g` is not read; it keeps the paths the third
    positional argument, where wrappers of this function (the benchmark's
    tracer) read them.
    """
    removed_ids: Set[int] = set()
    for p in paths:
        if p.kind == INTERNAL and path_diameter(p) < 4:
            raise DiameterTooSmall("internal path of diameter < 4 cannot be peeled")
        removed_ids.update(p.ids)
    keep = [i for i in range(len(forest)) if i not in removed_ids]
    remap = {old: new for new, old in enumerate(keep)}
    edges = {
        (remap[a], remap[b]) for a, b in forest.edges
        if a in remap and b in remap
    }
    return CliqueForest([forest.cliques[i] for i in keep], edges,
                        [forest.words[i] for i in keep])


@dataclass(frozen=True)
class PeelStep:
    """One peeling iteration: the forest before it and the paths it peels."""

    index: int
    forest: CliqueForest
    paths: Tuple[PeelPath, ...]


def peel(g: Graph, select) -> Iterator[PeelStep]:
    """The peeling loop shared by coloring and independent set.

    Builds the clique forest of `g` once and yields step 1, 2, ... without
    end; `select(i, forest, paths)` picks the paths of step i among all
    classified paths. A step's paths are removed only when the caller asks
    for the next step, so a caller that stops after a step removes nothing
    more. Under `debug_invariants()` each step's paths have their members
    checked against the per-node clique lists of the step's forest.
    """
    forest = clique_forest(g)
    i = 1
    while True:
        paths = tuple(select(i, forest, classify_paths(forest)))
        if debug_invariants():  # members by definition: all their holders on the path
            phi = _holder_ids(forest.cliques, range(len(forest)))
            for p in paths:
                ids = set(p.ids)
                if list(p.members) != sorted(v for v in set().union(*p.cliques)
                                             if ids.issuperset(phi[v])):
                    raise AssertionError("peel bookkeeping mismatch")
        yield PeelStep(i, forest, paths)
        forest = remove_paths(forest, g, paths)
        i += 1
