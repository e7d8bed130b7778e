import importlib.util
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import strategies as st

from chordalg import Graph, gen_chordal, gen_spider, omega_oracle


def graph_from_edge_mask(n, mask):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    g = Graph(nodes=range(1, n + 1))
    for bit, (u, v) in enumerate(pairs):
        if mask >> bit & 1:
            g.add_edge(u, v)
    return g


@st.composite
def small_graphs(draw, max_nodes=7):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    bits = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    return graph_from_edge_mask(n, mask)


@st.composite
def interval_models(draw, max_nodes=24):
    """Up to `max_nodes` ids with gaps and one closed integer span each:
    often apart, often nested or equal."""
    ids = draw(st.lists(st.integers(1, 90), min_size=1, max_size=max_nodes,
                        unique=True))
    spans = [(a, a + w) for a, w in draw(st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 8)),
        min_size=len(ids), max_size=len(ids)))]
    return ids, spans


@st.composite
def interval_graphs(draw, max_nodes=24):
    """Intersection graphs of `interval_models`: often disconnected, often
    with nested and equal intervals."""
    return intersection_graph(*draw(interval_models(max_nodes)))


@st.composite
def proper_interval_graphs(draw, max_nodes=30):
    """Intersection graphs of up to `max_nodes` integer intervals of one
    common length, which are proper interval graphs (Roberts 1969). Starts
    advance by small steps, so components are long, with twins and with
    nodes that sit in one maximal clique."""
    ids = draw(st.lists(st.integers(1, 90), min_size=1, max_size=max_nodes,
                        unique=True))
    width = draw(st.integers(0, 4))
    steps = draw(st.lists(st.integers(0, width + 1), min_size=len(ids),
                          max_size=len(ids)))
    return intersection_graph(ids, [(a, a + width) for a in itertools.accumulate(steps)])


def intersection_graph(ids, spans):
    """The graph on `ids` joining two nodes whose closed spans meet."""
    g = Graph(nodes=ids)
    for i, (u, (a, b)) in enumerate(zip(ids, spans)):
        for w, (c, d) in zip(ids[i + 1:], spans[i + 1:]):
            if a <= d and c <= b:
                g.add_edge(u, w)
    return g


@st.composite
def chordal_graphs(draw, max_nodes=20, max_host=10):
    """Intersection graphs of up to `max_nodes` random subtrees of a random
    host tree (chordal by Gavril 1974), on ids with gaps: tie-heavy, often
    disconnected. Each subtree spans up to three host nodes."""
    host = draw(st.integers(1, max_host))
    up = [None] + [draw(st.integers(0, i - 1)) for i in range(1, host)]

    def to_root(x):
        chain = [x]
        while up[chain[-1]] is not None:
            chain.append(up[chain[-1]])
        return chain

    ids = draw(st.lists(st.integers(1, 90), min_size=1, max_size=max_nodes,
                        unique=True))
    subtrees = []
    for _ in ids:
        chains = [to_root(x) for x in draw(st.lists(
            st.integers(0, host - 1), min_size=1, max_size=3))]
        common = set(chains[0]).intersection(*chains[1:])
        meet = next(y for y in chains[0] if y in common)
        subtrees.append({y for c in chains for y in c[:c.index(meet) + 1]})
    g = Graph(nodes=ids)
    for i, u in enumerate(ids):
        for w, other in zip(ids[i + 1:], subtrees[i + 1:]):
            if subtrees[i] & other:
                g.add_edge(u, w)
    return g


def complete_graph(m):
    g = Graph(nodes=range(1, m + 1))
    for u in range(1, m + 1):
        for v in range(u + 1, m + 1):
            g.add_edge(u, v)
    return g


def cycle_graph(m):
    g = Graph(nodes=range(1, m + 1))
    for u in range(1, m):
        g.add_edge(u, u + 1)
    g.add_edge(m, 1)
    return g


def dumbbell(legs, leg_len, bridge):
    """Two spiders whose centers are joined by a path of `bridge` edges."""
    g = gen_spider(legs, leg_len)
    offset = len(g)
    for u, v in list(g.edges()):
        g.add_edge(u + offset, v + offset)
    prev, nxt = 1, 2 * offset + 1
    for _ in range(bridge - 1):
        g.add_edge(prev, nxt)
        prev, nxt = nxt, nxt + 1
    g.add_edge(prev, 1 + offset)
    return g


def graph_wait_set(g, layering, children, level):
    """A correction level's wait set read off the graph: the children's
    neighbours in layers above `level`."""
    return tuple(sorted({u for w in children for u in g.adj[w]
                         if layering.layer[u] > level}))


def graph_conflicted(g, layering, members, level, colors):
    """A correction job's conflict test read off the graph: some member
    shares its color with a neighbour in a layer above `level`."""
    return any(colors[w] == colors[u] for w in members for u in g.adj[w]
               if layering.layer[u] > level)


def graph_outside(g, residual, members, component):
    """A small MIS component's outside set read off the graph: its
    neighbours in `residual` other than its record's members."""
    return {u for v in component for u in g.adj[v] & residual}.difference(members)


def chordal_corpus(eps, n: int, max_clique: int, count: int):
    """The acceptance corpus: a deterministic stream of `count` graphs
    `gen_chordal(n, seed, max_clique)` with their clique numbers, seeds from
    0 up; skips instances whose clique number is too small for the requested
    accuracy (eps >= 2/omega must hold)."""
    need_omega = math.ceil(2 / eps)
    seed = 0
    produced = 0
    while produced < count:
        g = gen_chordal(n, seed=seed, max_clique=max_clique)
        seed += 1
        omega = omega_oracle(g)
        if omega < need_omega:
            continue
        produced += 1
        yield g, omega


# (seed, max_clique) pairs whose `long_paths_generator()(600, ...)` graphs
# reach internal peels at every k the tests use
LONG_PATH_CASES = [(0, 3), (0, 6), (2, 4), (5, 3), (6, 6), (9, 4)]

# the dumbbell and the `LONG_PATH_CASES` graphs, as a `make` parameter
internal_peel_graphs = pytest.mark.parametrize("make", [lambda: dumbbell(3, 6, 20)] + [
    (lambda s=s, m=m: long_paths_generator()(600, s, max_clique=m))
    for s, m in LONG_PATH_CASES
], ids=["dumbbell"] + ["long_paths-%d-%d" % case for case in LONG_PATH_CASES])


def long_paths_generator():
    """`gen_long_paths` of the benchmark's long_paths workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "longpaths.py"
    spec = importlib.util.spec_from_file_location("longpaths", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.gen_long_paths


def brute_maximal_cliques(g):
    nodes = g.sorted_nodes()
    cliques = []
    for size in range(len(nodes), 0, -1):
        for subset in itertools.combinations(nodes, size):
            if all(b in g.adj[a] for a, b in itertools.combinations(subset, 2)):
                s = set(subset)
                if not any(s < c for c in cliques):
                    cliques.append(s)
    return sorted((frozenset(c) for c in cliques), key=sorted)


@pytest.fixture
def k4():
    return complete_graph(4)
