"""Chain-biased random chordal graphs: long clique paths between few junctions.

The construction follows ``chordalg.generators.gen_chordal`` with two changes.
Each new bag attaches to the previous bag, or with probability 1/200 to a
uniformly random earlier bag, and it shares the parent's highest-numbered
members (the shared count is drawn as in ``gen_chordal``). The graph is the
intersection graph of node subtrees in a tree of bags, hence chordal, and its
clique number never exceeds ``max_clique``.

Only the core ``random.Random`` draws are used (``randrange``), so the same
(n, seed, max_clique) gives the same edge list on every Python version.
"""

from __future__ import annotations

import random

from chordalg.graphs import Graph

JUMP_ODDS = 200  # one bag in JUMP_ODDS attaches away from its predecessor


def gen_long_paths(n: int, seed: int, max_clique: int = 8) -> Graph:
    if n < 1 or max_clique < 2:
        raise ValueError("need n >= 1 and max_clique >= 2")
    rng = random.Random(seed)
    g = Graph(nodes=range(1, n + 1))

    def add_bag(members):
        for i, u in enumerate(members):
            for w in members[i + 1:]:
                g.add_edge(u, w)

    first = min(1 + rng.randrange(max_clique), n)
    bags = [list(range(1, first + 1))]
    add_bag(bags[0])
    nxt = first + 1
    while nxt <= n:
        if rng.randrange(JUMP_ODDS) == 0:
            parent = bags[rng.randrange(len(bags))]
        else:
            parent = bags[-1]
        size = 2 + rng.randrange(max_clique - 1)
        shared_k = 1 + rng.randrange(min(size - 1, len(parent)))
        shared = sorted(parent)[-shared_k:]
        fresh = list(range(nxt, min(nxt + size - shared_k, n + 1)))
        nxt += len(fresh)
        bag = shared + fresh
        add_bag(bag)
        bags.append(bag)
    return g
