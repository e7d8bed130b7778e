"""Maximal cliques, the canonical maximum-weight clique forest, local views,
path classification on forests, and the peeling loop both algorithms run.

The forest is made unique by a total order on the weighted clique
intersection edges: weight first, then the sorted member words of the two
endpoint cliques. Cliques are numbered in word order, so the greedy scan
ranks edges by (weight, lower id, higher id), which is the same order.
Everything downstream (peeling, coloring, correction) relies on that
canonical choice, so the tie-breaking here is load-bearing.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .errors import DiameterTooSmall, RadiusTooSmall
from .graphs import Graph, alpha_oracle, bfs_distances, _require_chordal

Word = Tuple[int, ...]


def clique_word(clique) -> Word:
    """The members of a clique listed in increasing order."""
    return tuple(sorted(clique))


def maximal_cliques(g: Graph) -> List[FrozenSet[int]]:
    """All maximal cliques of a chordal graph, sorted by member word.

    Candidates are the sets K(v) = {v} | L(v) along the perfect elimination
    ordering, L and p as in `EliminationOrder` (Blair & Peyton 1993). K(v)
    is not maximal iff some w has p(w) = v and |L(w)| = |L(v)| + 1. If so,
    L(w) - {v} lies in L(v) (it is adjacent to v and after it) and has
    |L(v)| members, so K(w) strictly contains K(v). Conversely, take the
    latest w whose K(w) strictly contains K(v). If p(w) were some x before
    v, then K(x) would contain L(w), which contains K(v), and x is not in
    K(v), so K(x) would be a later such set. Hence p(w) = v, and then the
    elimination-order property forces L(w) = {v} | L(v).
    """
    eo = _require_chordal(g)
    later = eo.later
    non_maximal = {
        v for w, v in eo.parent.items()
        if v is not None and len(later[w]) == len(later[v]) + 1
    }
    cliques = [frozenset(later[v] | {v}) for v in eo.order if v not in non_maximal]
    cliques.sort(key=clique_word)
    return cliques


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


def _max_weight_forest(n: int, phi_lists) -> Set[Tuple[int, int]]:
    """Forest over all cliques, weight = number of shared nodes."""
    weight: Counter = Counter()
    for ids in phi_lists:
        weight.update(combinations(sorted(ids), 2))
    return _greedy_forest(n, weight)


class CliqueForest:
    """The canonical clique forest: cliques in word order plus forest edges."""

    __slots__ = ("cliques", "words", "edges", "phi", "fadj")

    def __init__(self, cliques: List[FrozenSet[int]], edges: Set[Tuple[int, int]],
                 phi: Optional[Dict[int, Tuple[int, ...]]] = None):
        self.cliques = tuple(cliques)
        self.words = tuple(clique_word(c) for c in cliques)
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

    def subtree_is_connected(self, v: int) -> bool:
        ids = self.phi[v]
        if len(ids) <= 1:
            return True
        idset = set(ids)
        seen = {ids[0]}
        queue = deque([ids[0]])
        while queue:
            i = queue.popleft()
            for j in self.fadj[i]:
                if j in idset and j not in seen:
                    seen.add(j)
                    queue.append(j)
        return len(seen) == len(ids)


def _member_ids(cliques) -> Dict[int, Tuple[int, ...]]:
    """Per node, the ids of the cliques holding it, in increasing order."""
    phi: Dict[int, List[int]] = {}
    for i, c in enumerate(cliques):
        for v in c:
            phi.setdefault(v, []).append(i)
    return {v: tuple(ids) for v, ids in phi.items()}


def clique_forest(g: Graph) -> CliqueForest:
    cliques = maximal_cliques(g)
    phi = _member_ids(cliques)
    edges = _max_weight_forest(len(cliques), phi.values())
    return CliqueForest(cliques, edges, phi)


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
        count: Dict[int, int] = {}
        for j, c in enumerate(self.cliques):
            for v in c:
                lo.setdefault(v, j)
                hi[v] = j
                count[v] = count.get(v, 0) + 1
        for v, c in count.items():
            if hi[v] - lo[v] + 1 != c:
                raise ValueError("clique list is not in path order (node %d)" % v)
        self.lo, self.hi = lo, hi
        reach = [j for j in range(t)]
        for v in lo:
            j = lo[v]
            if hi[v] > reach[j]:
                reach[j] = hi[v]
        best = 0
        self.jump = []
        for j in range(t):
            best = max(best, reach[j])
            self.jump.append(best)

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


def path_diameter(g: Graph, path: ForestPath) -> int:
    """Largest pairwise distance among nodes of the path's cliques."""
    return path_strip(path).diameter()


def path_alpha(g: Graph, path: ForestPath) -> int:
    """Independence number of the subgraph induced by the path's cliques."""
    return len(alpha_oracle(g.subgraph(path.node_set())))


def remove_paths(forest: CliqueForest, g: Graph, paths) -> Tuple[CliqueForest, Set[int]]:
    """Peel the given paths off the forest.

    Internal paths must have diameter at least 4; the removed nodes are those
    whose whole subtree lies on a removed path, and the surviving forest is
    the clique forest of the residual graph.
    """
    removed_ids: Set[int] = set()
    for p in paths:
        if p.kind == INTERNAL and path_diameter(g, p) < 4:
            raise DiameterTooSmall("internal path of diameter < 4 cannot be peeled")
        removed_ids |= set(p.cliques)
    on_removed: Counter = Counter()
    for i in removed_ids:
        on_removed.update(forest.cliques[i])
    removed_nodes = {v for v, c in on_removed.items() if c == len(forest.phi[v])}
    keep = [i for i in range(len(forest)) if i not in removed_ids]
    remap = {old: new for new, old in enumerate(keep)}
    cliques = [forest.cliques[i] for i in keep]
    edges = {
        (remap[a], remap[b]) for a, b in forest.edges
        if a in remap and b in remap
    }
    return CliqueForest(cliques, edges), removed_nodes


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
