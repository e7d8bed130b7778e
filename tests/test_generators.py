import random

import pytest

from chordalg import (
    Graph, gen_caterpillar, gen_chordal, gen_interval, gen_path, gen_spider,
    is_chordal, omega_oracle,
)
from chordalg.fileio import graph_to_text
from chordalg.generators import _rand_below, _sample_sorted
from chordalg.intervals import _component_strips

from reference_graph import ReferenceGraph


def test_path_edges():
    g = gen_path(4)
    assert sorted(g.edges()) == [(1, 2), (2, 3), (3, 4)]


def test_spider_shape():
    g = gen_spider(3, 10)
    assert len(g) == 31
    assert sum(1 for v in g.nodes if g.degree(v) == 3) == 1


def test_caterpillar_is_chordal_tree():
    g = gen_caterpillar(6, 2)
    assert len(g) == 6 + 12 and g.num_edges == len(g) - 1
    assert is_chordal(g)


def test_chordal_generator_always_chordal():
    g = gen_chordal(50, seed=9, max_clique=5)
    assert is_chordal(g)
    assert omega_oracle(g) <= 5


def test_chordal_generator_deterministic():
    a = gen_chordal(80, seed=4, max_clique=6)
    b = gen_chordal(80, seed=4, max_clique=6)
    assert graph_to_text(a) == graph_to_text(b)
    c = gen_chordal(80, seed=5, max_clique=6)
    assert graph_to_text(a) != graph_to_text(c)


def test_interval_generator_deterministic():
    a = gen_interval(60, seed=2)
    b = gen_interval(60, seed=2)
    assert graph_to_text(a) == graph_to_text(b)


def reference_gen_interval(n, seed, span=0, max_len=0):
    """`gen_interval` as it was written first: each interval scans a copy of
    the rest of the sorted list."""
    rng = random.Random(seed)
    span = span or 4 * n
    max_len = max_len or max(2, n // 10)
    intervals = []
    for v in range(1, n + 1):
        lo = _rand_below(rng, span)
        hi = lo + 1 + _rand_below(rng, max_len)
        intervals.append((lo, hi, v))
    g = Graph(nodes=range(1, n + 1))
    order = sorted(intervals)
    for i, (lo, hi, v) in enumerate(order):
        for lo2, hi2, w in order[i + 1:]:
            if lo2 > hi:
                break
            g.add_edge(v, w)
    return g


@pytest.mark.parametrize("n,seed,span,max_len", [
    (1, 0, 0, 0), (60, 2, 0, 0), (300, 7, 0, 0), (2048, 1000, 0, 0),
    (2048, 1001, 0, 0), (400, 3, 50, 0), (200, 11, 0, 1), (500, 12, 600, 90),
])
def test_interval_generator_matches_the_copying_loop(n, seed, span, max_len):
    g = gen_interval(n, seed, span, max_len)
    ref = reference_gen_interval(n, seed, span, max_len)
    assert list(g.edges()) == list(ref.edges())
    assert graph_to_text(g) == graph_to_text(ref)
    # the same edges in the same order: every adjacency set iterates alike
    assert all(list(g.adj[v]) == list(ref.adj[v]) for v in ref.adj)


def reference_gen_path(n):
    g = ReferenceGraph(nodes=[1])
    for v in range(2, n + 1):
        g.add_edge(v - 1, v)
    return g


def reference_gen_caterpillar(spine, legs):
    g = reference_gen_path(spine)
    nxt = spine + 1
    for s in range(1, spine + 1):
        for _ in range(legs):
            g.add_edge(s, nxt)
            nxt += 1
    return g


def reference_gen_spider(legs, leg_len):
    g = ReferenceGraph(nodes=[1])
    nxt = 2
    for _ in range(legs):
        prev = 1
        for _ in range(leg_len):
            g.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
    return g


def reference_gen_chordal(n, seed, max_clique=6):
    """`gen_chordal` as it was written first: every pair u < w of a bag is
    added as an edge, each end checked by `add_node`."""
    rng = random.Random(seed)
    g = ReferenceGraph(nodes=range(1, n + 1))
    if max_clique == 1:
        return g

    def add_bag(members):
        for i, u in enumerate(members):
            for w in members[i + 1:]:
                g.add_edge(u, w)

    first = min(1 + _rand_below(rng, max_clique), n)
    bags = [list(range(1, first + 1))]
    add_bag(bags[0])
    nxt = first + 1
    while nxt <= n:
        parent = bags[_rand_below(rng, len(bags))]
        size = 2 + _rand_below(rng, max_clique - 1)
        shared_k = 1 + _rand_below(rng, min(size - 1, len(parent)))
        shared = _sample_sorted(rng, sorted(parent), shared_k)
        fresh = list(range(nxt, min(nxt + size - shared_k, n + 1)))
        nxt += len(fresh)
        bag = shared + fresh
        add_bag(bag)
        bags.append(bag)
    return g


def assert_built_alike(g, ref):
    assert list(g.edges()) == list(ref.edges())
    assert graph_to_text(g) == graph_to_text(ref)
    # the same ids inserted in the same order: every set iterates alike
    assert list(g.adj) == list(ref.adj)
    assert all(list(g.adj[v]) == list(ref.adj[v]) for v in ref.adj)


@pytest.mark.parametrize("n,seed,max_clique", [
    (1, 0, 6), (5, 3, 1), (500, 4, 1), (2, 1, 2), (300, 5, 2), (50, 9, 5),
    (80, 4, 6), (400, 8, 3), (150, 2, 30), (2048, 1000, 12), (2048, 1001, 12),
    (2048, 1002, 12), (2048, 1003, 12),
])
def test_chordal_generator_matches_the_pair_loop(n, seed, max_clique):
    assert_built_alike(gen_chordal(n, seed, max_clique),
                       reference_gen_chordal(n, seed, max_clique))


@pytest.mark.parametrize("n,k", [(1, 0), (1, 3), (2, 1), (7, 2), (40, 5)])
def test_tree_generators_match_their_edge_loops(n, k):
    assert_built_alike(gen_path(n), reference_gen_path(n))
    assert_built_alike(gen_caterpillar(n, k), reference_gen_caterpillar(n, k))
    if k:
        assert_built_alike(gen_spider(k, n), reference_gen_spider(k, n))


def test_interval_generator_is_interval():
    for seed in (2, 6, 13):
        _component_strips(gen_interval(30, seed=seed))


def test_chordal_generator_with_cliques_of_one_is_edgeless():
    g = gen_chordal(5, seed=3, max_clique=1)
    assert g.sorted_nodes() == [1, 2, 3, 4, 5]
    assert g.num_edges == 0 and omega_oracle(g) == 1


def test_single_node():
    g = gen_chordal(1, seed=3)
    assert len(g) == 1 and is_chordal(g) and omega_oracle(g) == 1


def test_bad_sizes():
    with pytest.raises(ValueError):
        gen_path(0)
    with pytest.raises(ValueError):
        gen_spider(0, 3)
    with pytest.raises(ValueError):
        gen_chordal(0, seed=1)
    with pytest.raises(ValueError):
        gen_interval(0, seed=1)
    with pytest.raises(ValueError):
        gen_caterpillar(0, 2)


def test_edge_list_format_frozen():
    g = gen_path(3)
    g.add_node(9)
    assert graph_to_text(g) == "n 4\nnode 9\n1 2\n2 3\n"
