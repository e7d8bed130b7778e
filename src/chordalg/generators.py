"""Deterministic instance generators.

Every generator is a pure function of its arguments: the same (n, seed)
always produces the identical graph, byte for byte once serialized.
"""

from __future__ import annotations

import random
from bisect import bisect_right

from .graphs import Graph


def _rand_below(rng: random.Random, n: int) -> int:
    # randrange via the core generator only; keeps output stable across
    # Python versions that tweak the convenience samplers
    return rng.randrange(n)


def _sample_sorted(rng: random.Random, pool, k: int):
    """k distinct items from a sorted pool, chosen by index draws."""
    pool = list(pool)
    picked = []
    for _ in range(k):
        i = _rand_below(rng, len(pool))
        picked.append(pool.pop(i))
    return picked


def gen_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("n must be positive")
    g = Graph(nodes=[1])
    for v in range(2, n + 1):
        g.add_edge(v - 1, v)
    return g


def gen_caterpillar(spine: int, legs: int) -> Graph:
    """A spine path with `legs` pendant nodes hanging off every spine node."""
    if spine < 1 or legs < 0:
        raise ValueError("need spine >= 1 and legs >= 0")
    g = gen_path(spine)
    nxt = spine + 1
    for s in range(1, spine + 1):
        for _ in range(legs):
            g.add_edge(s, nxt)
            nxt += 1
    return g


def gen_spider(legs: int, leg_len: int) -> Graph:
    """A center node with `legs` pendant paths of length leg_len each."""
    if legs < 1 or leg_len < 1:
        raise ValueError("need legs >= 1 and leg_len >= 1")
    g = Graph(nodes=[1])
    nxt = 2
    for _ in range(legs):
        prev = 1
        for _ in range(leg_len):
            g.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
    return g


def gen_chordal(n: int, seed: int, max_clique: int = 6) -> Graph:
    """Random chordal graph built from a random tree of bags.

    Bags of size at most max_clique are attached to a uniformly random earlier
    bag, sharing a random nonempty subset of it; the produced graph is the
    intersection graph of the node subtrees, hence chordal by construction.
    New node ids are handed out sequentially, so for max_clique >= 2 the
    graph is connected (with max_clique 1 it is n isolated nodes), and its
    clique number never exceeds max_clique.
    """
    if n < 1 or max_clique < 1:
        raise ValueError("need n >= 1 and max_clique >= 1")
    rng = random.Random(seed)
    g = Graph(nodes=range(1, n + 1))
    if max_clique == 1:
        return g

    adj = g.adj

    def add_bag(members):
        # each member's set takes the bag's other members, in bag order
        for i, u in enumerate(members):
            adj[u].update(members[:i] + members[i + 1:])

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


def gen_interval(n: int, seed: int, span: int = 0, max_len: int = 0) -> Graph:
    """Random interval graph from n random integer intervals on a line.

    Node ids 1..n are assigned in order of generation. Defaults keep the
    graph sparse enough to have several components and long clique paths.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    span = span or 4 * n
    max_len = max_len or max(2, n // 10)
    intervals = []
    for v in range(1, n + 1):
        lo = _rand_below(rng, span)
        hi = lo + 1 + _rand_below(rng, max_len)
        intervals.append((lo, hi, v))
    g = Graph(nodes=range(1, n + 1))
    adj = g.adj
    order = sorted(intervals)
    los = [lo for lo, _, _ in order]
    ids = [v for _, _, v in order]
    for i, (_, hi, v) in enumerate(order):
        # the later intervals that start by hi: v's neighbours after it
        run = ids[i + 1:bisect_right(los, hi, i + 1)]
        adj[v].update(run)
        for w in run:
            adj[w].add(v)
    return g
