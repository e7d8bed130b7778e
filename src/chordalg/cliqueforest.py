"""Maximal cliques, the canonical maximum-weight clique forest, local views,
path classification on forests, and the peeling loop both algorithms run.

The clique forest is the maximum-weight spanning forest of the clique
intersection graph (weight = number of shared nodes). Ties are broken by a
total order on the edges: weight first, then the sorted member words of the
two endpoint cliques. Cliques are numbered in word order, so that is the
order (weight, lower id, higher id), and Kruskal run in decreasing order of
it picks the canonical forest. `clique_forest` does not run Kruskal: it reads
the same forest off the clique tree that maximum cardinality search builds
in passing (see `clique_forest`). Everything downstream (peeling, coloring,
correction) relies on that canonical choice, so the tie-breaking here is
load-bearing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .errors import DiameterTooSmall, RadiusTooSmall
from .graphs import Graph, bfs_distances, _require_chordal

Word = Tuple[int, ...]
Link = Tuple[int, int, FrozenSet[int]]


def clique_word(clique) -> Word:
    """The members of a clique listed in increasing order."""
    return tuple(sorted(clique))


def _clique_tree(g: Graph) -> Tuple[List[FrozenSet[int]], List[Word], List[Link]]:
    """The maximal cliques of a chordal graph in word order, and the clique
    tree T0 that maximum cardinality search builds (Blair & Peyton 1993,
    "An introduction to chordal graphs and clique trees").

    Walk the visit order with L and p as in `EliminationOrder`. A visit v
    joins the clique being grown iff |L(v)| is one more than the |L| of the
    previous visit u: then p(v) = u and L(v) = {u} | L(u), which is that
    clique so far. Otherwise v opens the clique {v} | L(v). The comparison is
    with the previous visit, not with p(v): two visits may both have p = u
    and |L| = |L(u)| + 1 (two triangles on a shared edge), and only the
    first of them extends K(u). A clique opened by v hangs in T0 below the
    clique that owns p(v), and the two meet in exactly L(v); a visit with
    p(v) = None starts a new tree. Returns the cliques, their words and T0's
    edges as (child id, parent id, separator).
    """
    eo = _require_chordal(g)
    later, parent = eo.later, eo.parent
    grown: List[Set[int]] = []
    owner: Dict[int, int] = {}
    hangs: List[Link] = []
    cur = -1  # the clique that visits extend
    need = -1  # the |L| that extends it; none before the first visit
    for v in reversed(eo.order):
        lv = later[v]
        size = len(lv)
        if size != need:
            if size:
                hangs.append((cur + 1, owner[parent[v]], frozenset(lv)))
            grown.append({v, *lv})
            cur += 1
        else:
            grown[cur].add(v)
        owner[v] = cur
        need = size + 1
    words = [clique_word(c) for c in grown]
    order = sorted(range(len(grown)), key=words.__getitem__)
    rank = {k: i for i, k in enumerate(order)}
    return ([frozenset(grown[k]) for k in order], [words[k] for k in order],
            [(rank[a], rank[b], sep) for a, b, sep in hangs])


def maximal_cliques(g: Graph) -> List[FrozenSet[int]]:
    """All maximal cliques of a chordal graph, sorted by member word.

    They are the cliques of the clique tree T0 built by `_clique_tree`: along
    the MCS visit order, v joins the clique being grown iff |L(v)| is one
    more than the previous visit's |L|, and otherwise opens {v} | L(v).
    """
    return _clique_tree(g)[0]


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _greedy_forest(n: int, weight: Dict[Tuple[int, int], int]) -> Set[Tuple[int, int]]:
    """Unique maximum-weight spanning forest of a weighted clique graph.

    The `n` cliques must be numbered in word order and every key must be a
    pair (a, b) with a < b. Then decreasing (weight, a, b) is decreasing
    (weight, lower word, higher word), and that total order makes greedy
    selection canonical.
    """
    ranked = sorted(((w, a, b) for (a, b), w in weight.items()), reverse=True)
    uf = _UnionFind(n)
    edges = set()
    for _w, a, b in ranked:
        if uf.union(a, b):
            edges.add((a, b))
            if len(edges) == n - 1:
                break  # spanning tree: no later edge can join two trees
    return edges


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

    __slots__ = ("cliques", "words", "edges", "phi", "fadj")

    def __init__(self, cliques: List[FrozenSet[int]], edges: Set[Tuple[int, int]],
                 phi: Optional[Dict[int, Tuple[int, ...]]] = None,
                 words: Optional[List[Word]] = None):
        self.cliques = tuple(cliques)
        self.words = tuple(map(clique_word, self.cliques) if words is None else words)
        self.edges = frozenset(tuple(sorted(e)) for e in edges)
        self.phi = _member_ids(self.cliques) if phi is None else phi
        fadj: Dict[int, Set[int]] = {i: set() for i in range(len(self.cliques))}
        for a, b in self.edges:
            fadj[a].add(b)
            fadj[b].add(a)
        self.fadj = {i: tuple(sorted(s)) for i, s in fadj.items()}

    def __len__(self):
        return len(self.cliques)

    @property
    def nodes(self) -> Set[int]:
        return set(self.phi)

    def degree(self, i: int) -> int:
        return len(self.fadj[i])

    def signature(self):
        """Id-free structural identity, for comparing against recomputation."""
        edge_words = sorted(
            tuple(sorted((self.words[a], self.words[b]))) for a, b in self.edges
        )
        return (self.words, tuple(edge_words))


def _member_ids(cliques) -> Dict[int, Tuple[int, ...]]:
    """Per node, the ids of the cliques holding it, in increasing order."""
    phi: Dict[int, List[int]] = {}
    for i, c in enumerate(cliques):
        for v in c:
            phi.setdefault(v, []).append(i)
    return {v: tuple(ids) for v, ids in phi.items()}


def clique_forest(g: Graph) -> CliqueForest:
    """The canonical clique forest of a chordal graph, read off the MCS
    clique tree T0 of `_clique_tree` by the star rule of `_star_forest`.

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
    return CliqueForest(cliques, _star_forest(len(cliques), links),
                        _member_ids(cliques), words)


def local_view(ball: Graph, center: int, d: int) -> CliqueForest:
    """Fragment of the clique forest reconstructed from a radius-d ball.

    `ball` must be the subgraph induced on the radius-d neighborhood of
    `center` (in whatever host graph the caller cares about). For every node
    within distance d-1 the maximal cliques containing it are exact, and the
    unique spanning forest of each such clique family is the node's subtree,
    so the union of those edges is a sub-forest of the global clique forest.
    Cliques are numbered in word order, as in `clique_forest`, so both rank
    edges by the same (weight, lower id, higher id) order.
    """
    if d < 2:
        raise RadiusTooSmall("local views need radius at least 2")
    dist = bfs_distances(ball, center)
    core = sorted(u for u, du in dist.items() if du <= d - 1)
    by_word: Dict[Word, FrozenSet[int]] = {}
    cliques_of: Dict[int, List[Word]] = {}
    for u in core:
        sub = ball.subgraph(ball.closed_neighborhood(u))
        found = maximal_cliques(sub)
        cliques_of[u] = [clique_word(c) for c in found]
        for c in found:
            by_word[clique_word(c)] = c
    words = sorted(by_word)
    index = {w: i for i, w in enumerate(words)}
    cliques = [by_word[w] for w in words]
    edges: Set[Tuple[int, int]] = set()
    for u in core:
        ids = sorted(index[w] for w in cliques_of[u])
        weight = {}
        for a, b in combinations(ids, 2):
            inter = len(cliques[a] & cliques[b])
            if inter:
                weight[(a, b)] = inter
        edges |= _greedy_forest(len(words), weight)
    return CliqueForest(cliques, edges)


PENDANT = "pendant"
INTERNAL = "internal"
BINARY_COMPONENT = "binary-component"


@dataclass(frozen=True)
class ForestPath:
    """A maximal run of degree-<=2 cliques, oriented by smaller end word."""

    forest: CliqueForest
    cliques: Tuple[int, ...]
    kind: str
    attach_s: Optional[int]
    attach_e: Optional[int]

    def clique_sets(self):
        return [self.forest.cliques[i] for i in self.cliques]

    def node_set(self) -> Set[int]:
        out: Set[int] = set()
        for i in self.cliques:
            out |= self.forest.cliques[i]
        return out

    def attach_cliques(self) -> Tuple[Optional[FrozenSet[int]], Optional[FrozenSet[int]]]:
        """The junction cliques at the start and end sides (None if free)."""
        return tuple(None if a is None else self.forest.cliques[a]
                     for a in (self.attach_s, self.attach_e))


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


def _orient(forest, seq, attach_s, attach_e):
    if forest.words[seq[0]] > forest.words[seq[-1]]:
        seq = list(reversed(seq))
        attach_s, attach_e = attach_e, attach_s
    return tuple(seq), attach_s, attach_e


def classify_paths(forest: CliqueForest) -> List[ForestPath]:
    """All maximal pendant and internal paths plus whole path components.

    Isolated forest vertices count as pendant paths; every clique of forest
    degree at most two lands in exactly one returned path.
    """
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
        seq, attach_s, attach_e = _orient(forest, list(seq), attach_s, attach_e)
        paths.append(ForestPath(forest, seq, kind, attach_s, attach_e))
    paths.sort(key=lambda p: forest.words[p.cliques[0]])
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


def path_strip(path: ForestPath) -> IntervalStrip:
    return IntervalStrip(path.clique_sets())


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


def path_diameter(path: ForestPath) -> int:
    """Largest pairwise distance among nodes of the path's cliques."""
    return path_strip(path).diameter()


def remove_paths(forest: CliqueForest, g: Graph, paths) -> Tuple[CliqueForest, Set[int]]:
    """Peel the given paths off the forest.

    Internal paths must have diameter at least 4; the removed nodes are those
    whose whole subtree lies on a removed path, and the surviving forest is
    the clique forest of the residual graph. `g` is not read; it keeps the
    paths the third positional argument, where wrappers of this function
    (the benchmark's tracer) read them.
    """
    removed_ids: Set[int] = set()
    for p in paths:
        if p.kind == INTERNAL and path_diameter(p) < 4:
            raise DiameterTooSmall("internal path of diameter < 4 cannot be peeled")
        removed_ids |= set(p.cliques)
    keep = [i for i in range(len(forest)) if i not in removed_ids]
    remap = {old: new for new, old in enumerate(keep)}
    cliques = [forest.cliques[i] for i in keep]
    edges = {
        (remap[a], remap[b]) for a, b in forest.edges
        if a in remap and b in remap
    }
    # remap is increasing, so each restricted id tuple stays increasing
    phi: Dict[int, Tuple[int, ...]] = {}
    removed_nodes: Set[int] = set()
    for v, ids in forest.phi.items():
        kept = tuple([j for j in map(remap.get, ids) if j is not None])
        if kept:
            phi[v] = kept
        else:
            removed_nodes.add(v)
    return CliqueForest(cliques, edges, phi, [forest.words[i] for i in keep]), removed_nodes


@dataclass(frozen=True)
class PeelStep:
    """One peeling iteration: the forest before it, the paths it peels and,
    per path, the nodes whose whole subtree lies on that path."""

    index: int
    forest: CliqueForest
    paths: Tuple[ForestPath, ...]
    members: Tuple[Tuple[int, ...], ...]


def peel(g: Graph, select) -> Iterator[PeelStep]:
    """The peeling loop shared by coloring and independent set.

    Builds the clique forest of `g` once and yields step 1, 2, ... without
    end; `select(i, forest, paths)` picks the paths of step i among all
    classified paths. A step's paths are removed only when the caller asks
    for the next step, so a caller that stops after a step removes nothing
    more.
    """
    forest = clique_forest(g)
    i = 1
    while True:
        paths = tuple(select(i, forest, classify_paths(forest)))
        members = []
        for p in paths:
            ids = set(p.cliques)
            members.append(tuple(sorted(
                v for v in p.node_set() if all(j in ids for j in forest.phi[v]))))
        yield PeelStep(i, forest, paths, tuple(members))
        forest, removed = remove_paths(forest, g, paths)
        if set().union(*members) != removed:
            raise AssertionError("peel bookkeeping mismatch")
        i += 1
