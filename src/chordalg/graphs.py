"""Undirected graphs over positive integer node ids, chordality machinery,
and the exact oracles used to check approximation ratios. One maximum
cardinality search (`mcs_order`) yields the elimination order, the
chordality verdict and the clique tree every clique forest starts from.

A graph is built with `add_node` and `add_edge`, which check an id once,
when it first comes in: `add_edge` skips the check for an exact `int`
already in the graph. `Graph.subgraph` and the generators write adjacency
sets directly, for ids already in a graph or made by `Graph(nodes=...)`.

All operations are pure: nothing here mutates a graph after it is built,
and every tie is broken by a rule on the node ids and edges alone, never on
the build order, so repeated runs give identical output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
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
        adj = self.adj
        # An exact int already in the graph passed `add_node` when it came
        # in; anything else (a new id, 1.0, True) takes the full check.
        if type(u) is not int or u not in adj:
            self.add_node(u)
        if type(v) is not int or v not in adj:
            self.add_node(v)
        adj[u].add(v)
        adj[v].add(u)

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
    """A candidate perfect elimination ordering, the verdict on it, and the
    clique tree T0 the search grew on the way (Blair & Peyton 1993, "An
    introduction to chordal graphs and clique trees").

    L(v) is the set of v's neighbors visited before it, p(v) the latest of
    them. A visit v opens the run {v} | L(v) in `runs`, or joins the run
    grown so far when L(v) is that run; on a chordal graph the runs are the
    maximal cliques. `links` has one T0 edge (run opened by v, run holding
    p(v)) per run opened with L(v) nonempty. Its separator is not stored: on
    a chordal graph it is the intersection of the two runs, which is L(v).
    The parent run was closed before v opened its run, and the nodes that
    join v's run later lie in no earlier run. Both lists are read off the
    search, so they take no part in comparisons.
    """

    order: Tuple[int, ...]
    is_perfect: bool
    runs: List[Set[int]] = field(compare=False, repr=False)
    links: List[Tuple[int, int]] = field(compare=False, repr=False)


def mcs_order(g: Graph) -> EliminationOrder:
    """Maximum cardinality search, ties broken by a rule on the graph alone.

    Each visit takes an unvisited node of the largest weight (its number of
    visited neighbors). Nodes wait in buckets by weight, each an
    insertion-ordered dict: a visit pops the newest member of the top bucket
    and moves its unvisited neighbors, in id order, one bucket up. The first
    bucket is filled in id order, so ties depend on the node and edge sets
    alone, never on the build order, and no output past this order depends
    on them (the cliques and the forest are canonical). Only bucket top + 1
    can gain a node, so `top` steps up at most once per visit.

    Returns the visit order reversed, with the runs and links of
    `EliminationOrder`. It is a perfect elimination ordering iff the graph is
    chordal, iff L(v) - {p(v)} lies inside L(p(v)) for every v (Tarjan &
    Yannakakis 1984). A bucket holds the run of the visit that last raised a
    node: for v the run R of p(v), which up to p(v) is {p(v)} | L(p(v)), so
    the check reads L(v) <= R.

    The run K being grown is {u} | L(u) for the previous visit u. A visit v
    of weight |K| with K inside N(v) has L(v) = K, so p(v) = u and the check
    holds: v joins K with N(v) - K unvisited, and no intersection is taken.
    While every check holds, the visited prefix induces a chordal graph and
    is an MCS order of it (weights count visited neighbors only); if adding
    v keeps it chordal, weight |L(u)| + 1 forces L(v) = K (Blair & Peyton).
    So a visit of weight |K| with K not inside N(v) fails its check. Every
    other visit computes L(v) = N(v) & visited, checks it and opens a run.
    A move is O(1), so with the sort the search costs O(n + m log Δ); a
    visit that joins K spends O(|N(v)|) on one subset test and a difference.
    A visit raises nodes to at most `top` + 1, so the buckets grow one at a
    time, to the largest weight reached plus one: on a chordal graph at most
    ω + 1 of them, however large the degrees.
    """
    adj = g.adj
    weight = dict.fromkeys(adj, 0)
    buckets = [dict.fromkeys(sorted(adj)), {}]
    top = 0
    visit = []
    visited: Set[int] = set()
    runs: List[Set[int]] = []
    links = []
    grown: Set[int] = set()  # the run being grown, runs[cur]
    cur = -1
    need = -1  # the weight that extends it; none before the first visit
    perfect = True
    while top >= 0:
        bucket = buckets[top]
        if not bucket:
            top -= 1
            continue
        v, r = bucket.popitem()
        nbrs = adj[v]
        if top == need and grown <= nbrs:
            rest = nbrs - grown
            grown.add(v)
        else:  # v opens the run {v} | L(v)
            grown = nbrs & visited
            cur += 1
            if grown:
                perfect = perfect and grown <= runs[r]
                links.append((cur, r))
            rest = nbrs - visited
            grown.add(v)
            runs.append(grown)
        need = top + 1
        if need == len(buckets):
            buckets.append({})
        visit.append(v)
        visited.add(v)
        for u in sorted(rest):
            w = weight[u]
            del buckets[w][u]
            weight[u] = w + 1
            buckets[w + 1][u] = cur
        if buckets[top + 1]:
            top += 1
    return EliminationOrder(tuple(reversed(visit)), perfect, runs, links)


def is_chordal(g: Graph) -> bool:
    return mcs_order(g).is_perfect


def _require_chordal(g: Graph):
    eo = mcs_order(g)
    if not eo.is_perfect:
        raise NotChordal("graph is not chordal")
    return eo


def omega_oracle(g: Graph) -> int:
    """Exact maximum clique size (= chromatic number) of a chordal graph."""
    return max(map(len, _require_chordal(g).runs), default=0)


def alpha_oracle(g: Graph) -> Set[int]:
    """Exact maximum independent set of a chordal graph.

    Scans a perfect elimination ordering, repeatedly taking the earliest
    remaining node and deleting its closed neighborhood. Which maximum set it
    returns follows `mcs_order`'s tie rule.
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
    """Greedy coloring along the reverse elimination order; optimal on chordal
    graphs. Which optimal coloring it returns follows `mcs_order`'s tie rule."""
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
            # colors no node holds yet are interchangeable, so trying the
            # first of them is enough
            fresh = max(assigned.values(), default=0) + 1
            for col in range(1, min(c, fresh) + 1):
                if col not in used:
                    assigned[v] = col
                    if assign(i + 1):
                        return True
                    del assigned[v]
            return False

        return assign(0)

    c = 1
    while not feasible(c):
        c += 1
    return c


class VerifyResult(NamedTuple):
    legal: bool
    palette: int


def verify_coloring(g: Graph, colors: Coloring) -> VerifyResult:
    """Legality verdict plus palette size for a (possibly partial) coloring."""
    for v in colors:
        if v not in g.adj:
            raise UnknownNode("colored node %r not in graph" % (v,))
    return VerifyResult(first_conflict(g, colors) is None, len(set(colors.values())))


def first_conflict(g: Graph, colors: Coloring):
    """The smallest conflicting edge, or None. `verify_coloring` and the
    verifier CLI use it."""
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
