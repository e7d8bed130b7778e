"""Undirected graphs over positive integer node ids, chordality machinery,
and the exact oracles used to check approximation ratios.

All operations are pure: nothing here mutates a graph after it is built,
and every tie is broken on node ids so repeated runs give identical output.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from .errors import NotChordal, TooLarge, UnknownNode

Coloring = Dict[int, int]


class Graph:
    """Simple undirected graph: adjacency sets keyed by node id.

    Ids are positive integers and are never renumbered; several tie-breaking
    rules downstream depend on the raw ids.
    """

    __slots__ = ("adj",)

    def __init__(self, edges: Iterable[Tuple[int, int]] = (), nodes: Iterable[int] = ()):
        self.adj: Dict[int, Set[int]] = {}
        for v in nodes:
            self.add_node(v)
        for u, v in edges:
            self.add_edge(u, v)

    def add_node(self, v: int):
        if not isinstance(v, int) or v <= 0:
            raise ValueError("node ids must be positive integers, got %r" % (v,))
        if v not in self.adj:
            self.adj[v] = set()

    def add_edge(self, u: int, v: int):
        if u == v:
            raise ValueError("self-loops are not allowed")
        self.add_node(u)
        self.add_node(v)
        self.adj[u].add(v)
        self.adj[v].add(u)

    @property
    def nodes(self) -> Set[int]:
        return set(self.adj)

    def sorted_nodes(self):
        return sorted(self.adj)

    def __contains__(self, v):
        return v in self.adj

    def __len__(self):
        return len(self.adj)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.adj.values()) // 2

    def neighbors(self, v: int) -> Set[int]:
        return self.adj[v]

    def closed_neighborhood(self, v: int) -> Set[int]:
        return self.adj[v] | {v}

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())

    def edges(self):
        for u in sorted(self.adj):
            for v in sorted(self.adj[u]):
                if u < v:
                    yield (u, v)

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        keep = set(keep)
        sub = Graph()
        for v in keep:
            if v not in self.adj:
                raise UnknownNode("node %r not in graph" % (v,))
            sub.adj[v] = self.adj[v] & keep
        return sub

    def connected_components(self):
        """Components as sorted node lists, ordered by smallest member."""
        seen = set()
        comps = []
        for start in sorted(self.adj):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w in self.adj[u]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        queue.append(w)
            comps.append(sorted(comp))
        return comps


class BfsBall:
    """Breadth-first ball around a node or a set of nodes, grown on demand.

    Levels are labelled whole, so every labelled node carries its exact
    distance and a caller may stop as soon as it has the labels it reads,
    then resume the same search later.
    """

    __slots__ = ("adj", "dist", "frontier", "depth")

    def __init__(self, g: Graph, sources):
        self.adj = g.adj
        self.frontier = [sources] if isinstance(sources, int) else sorted(sources)
        self.dist: Dict[int, int] = dict.fromkeys(self.frontier, 0)
        self.depth = 0

    def grow(self) -> List[int]:
        """Label the next level and return it (empty once exhausted)."""
        adj, dist = self.adj, self.dist
        d = self.depth + 1
        nxt = []
        for u in self.frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        self.frontier = nxt
        self.depth = d
        return nxt

    def reach(self, targets, limit: int) -> None:
        """Grow until every target is labelled or the depth reaches `limit`."""
        missing = {t for t in targets if t not in self.dist}
        while missing and self.frontier and self.depth < limit:
            missing.difference_update(self.grow())


def bfs_distances(g: Graph, sources, cutoff: Optional[int] = None) -> Dict[int, int]:
    """Distances from a node or a set of nodes, optionally truncated at cutoff."""
    ball = BfsBall(g, sources)
    while ball.frontier and (cutoff is None or ball.depth < cutoff):
        ball.grow()
    return ball.dist


def ball(g: Graph, center: int, radius: int) -> "Graph":
    """Induced subgraph on the radius-`radius` closed neighborhood of center."""
    return g.subgraph(bfs_distances(g, center, cutoff=radius))


@dataclass(frozen=True)
class EliminationOrder:
    """A candidate perfect elimination ordering plus the verdict on it.

    `later[v]` is L(v), the neighbors of v after it in `order`, and
    `parent[v]` is p(v), the earliest member of L(v) (None when L(v) is
    empty). Both are read off the search that built the order, so they take
    no part in comparisons.
    """

    order: Tuple[int, ...]
    is_perfect: bool
    later: Dict[int, Set[int]] = field(compare=False, repr=False)
    parent: Dict[int, Optional[int]] = field(compare=False, repr=False)


def mcs_order(g: Graph) -> EliminationOrder:
    """Maximum cardinality search; ties broken by smallest node id.

    Unvisited nodes wait in buckets by weight (the number of visited
    neighbors), each bucket a min-heap of node ids, and `top` steps down past
    buckets that have run empty. A node is pushed again whenever its weight
    rises; an entry whose weight is no longer the node's own (or whose node
    is visited) is skipped when popped. So each visit takes the largest
    weight, then the smallest id, in O(n + m) pushes and pops.

    Returns the visit order reversed, so that if the graph is chordal the
    returned order is a perfect elimination ordering (later neighbors of each
    node form a clique). The same pass checks that (Tarjan & Yannakakis
    1984): when v is visited, its visited neighbors are exactly L(v), and the
    most recently visited of them is p(v); v's weight is |L(v)|. The order
    is perfect iff L(v) - {p(v)} lies inside the neighborhood of p(v) for
    every v, and `is_perfect` reports whether that holds.
    """
    adj = g.adj
    heappop, heappush = heapq.heappop, heapq.heappush
    weight = dict.fromkeys(adj, 0)  # -1 once visited
    parent: Dict[int, Optional[int]] = dict.fromkeys(adj)
    buckets = [sorted(adj)]
    buckets += [[] for _ in range(max(map(len, adj.values()), default=0))]
    top = 0
    visit = []
    visited: Set[int] = set()
    later: Dict[int, Set[int]] = {}
    perfect = True
    while top >= 0:
        bucket = buckets[top]
        if not bucket:
            top -= 1
            continue
        v = heappop(bucket)
        if weight[v] != top:
            continue
        weight[v] = -1
        nbrs = adj[v]
        lv = later[v] = nbrs & visited
        if perfect and top > 1 and len(lv & adj[parent[v]]) != top - 1:
            perfect = False
        visit.append(v)
        visited.add(v)
        for u in nbrs - visited:
            w = weight[u] + 1
            weight[u] = w
            parent[u] = v  # the last visit to touch u sets p(u)
            heappush(buckets[w], u)
            if w > top:
                top = w
    return EliminationOrder(tuple(reversed(visit)), perfect, later, parent)


def is_chordal(g: Graph) -> bool:
    return mcs_order(g).is_perfect


def _require_chordal(g: Graph):
    eo = mcs_order(g)
    if not eo.is_perfect:
        raise NotChordal("graph is not chordal")
    return eo


def omega_oracle(g: Graph) -> int:
    """Exact maximum clique size (= chromatic number) of a chordal graph."""
    eo = _require_chordal(g)
    if not eo.order:
        return 0
    return max(map(len, eo.later.values())) + 1


def alpha_oracle(g: Graph) -> Set[int]:
    """Exact maximum independent set of a chordal graph.

    Scans a perfect elimination ordering, repeatedly taking the earliest
    remaining node and deleting its closed neighborhood.
    """
    eo = _require_chordal(g)
    taken = set()
    blocked = set()
    for v in eo.order:
        if v not in blocked:
            taken.add(v)
            blocked.add(v)
            blocked |= g.adj[v]
    return taken


def greedy_color_reverse_peo(g: Graph) -> Coloring:
    """Greedy coloring along the reverse elimination order; optimal on chordal graphs."""
    eo = _require_chordal(g)
    colors: Coloring = {}
    for v in reversed(eo.order):
        used = {colors[u] for u in g.adj[v] if u in colors}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return colors


BRUTE_ALPHA_LIMIT = 20
BRUTE_CHROMATIC_LIMIT = 12


def brute_alpha(g: Graph) -> int:
    """Exact independence number by branching; only for tiny graphs."""
    if len(g) > BRUTE_ALPHA_LIMIT:
        raise TooLarge("brute_alpha accepts at most %d nodes" % BRUTE_ALPHA_LIMIT)

    def best(avail: frozenset) -> int:
        if not avail:
            return 0
        v = max(avail, key=lambda u: (len(g.adj[u] & avail), -u))
        without = best(avail - {v})
        with_v = 1 + best(avail - {v} - g.adj[v])
        return max(without, with_v)

    return best(frozenset(g.adj))


def brute_chromatic(g: Graph) -> int:
    """Exact chromatic number by backtracking; only for tiny graphs."""
    if len(g) > BRUTE_CHROMATIC_LIMIT:
        raise TooLarge("brute_chromatic accepts at most %d nodes" % BRUTE_CHROMATIC_LIMIT)
    if not g.adj:
        return 0
    order = sorted(g.adj, key=lambda v: -len(g.adj[v]))

    def feasible(c: int) -> bool:
        assigned: Coloring = {}

        def assign(i: int) -> bool:
            if i == len(order):
                return True
            v = order[i]
            used = {assigned[u] for u in g.adj[v] if u in assigned}
            for col in range(1, c + 1):
                if col not in used:
                    assigned[v] = col
                    if assign(i + 1):
                        return True
                    del assigned[v]
                if col not in used:
                    # an unused color is interchangeable with any other unused
                    # one, so trying more than one fresh color is redundant
                    break
            return False

        return assign(0)

    c = 1
    while not feasible(c):
        c += 1
    return c


def induced_cycle_chordality(g: Graph) -> bool:
    """Brute-force chordality: no induced cycle of length >= 4 (tiny graphs only)."""
    if len(g) > 12:
        raise TooLarge("induced-cycle check accepts at most 12 nodes")
    nodes = g.sorted_nodes()
    for size in range(4, len(nodes) + 1):
        for subset in combinations(nodes, size):
            sub = g.subgraph(subset)
            if all(sub.degree(v) == 2 for v in subset):
                comps = sub.connected_components()
                if len(comps) == 1:
                    return False
    return True


class VerifyResult(NamedTuple):
    legal: bool
    palette: int


def verify_coloring(g: Graph, colors: Coloring) -> VerifyResult:
    """Legality verdict plus palette size for a (possibly partial) coloring."""
    for v in colors:
        if v not in g.adj:
            raise UnknownNode("colored node %r not in graph" % (v,))
    legal = True
    for u, v in g.edges():
        if u in colors and v in colors and colors[u] == colors[v]:
            legal = False
            break
    return VerifyResult(legal, len(set(colors.values())))


def first_conflict(g: Graph, colors: Coloring):
    """The smallest conflicting edge, or None. Used by the verifier CLI."""
    for u, v in g.edges():
        if u in colors and v in colors and colors[u] == colors[v]:
            return (u, v)
    return None


def verify_is(g: Graph, members: Iterable[int]) -> bool:
    members = set(members)
    for v in members:
        if v not in g.adj:
            raise UnknownNode("member %r not in graph" % (v,))
    return all(not (g.adj[v] & members) for v in members)
