from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Tuple

import networkx as nx
import pytest
from hypothesis import given, settings

from chordalg import (
    DiameterTooSmall, Graph, NotChordal, RadiusTooSmall, alpha_oracle,
    classify_paths, clique_forest, gen_caterpillar, gen_chordal,
    gen_interval, gen_path, gen_spider, is_chordal, local_view, maximal_cliques,
    mcs_order, path_diameter, remove_paths,
)
from chordalg.cliqueforest import (
    BINARY_COMPONENT, INTERNAL, PENDANT, CliqueForest, IntervalStrip,
    _clique_tree, _member_ids, clique_word, peel, strips_from_traces,
)
from chordalg.fileio import forest_dump
from chordalg.graphs import ball, bfs_distances
from chordalg.intervals import _component_strips

from conftest import (
    brute_maximal_cliques, chordal_graphs, complete_graph, dumbbell,
    interval_graphs, small_graphs,
)

Word = Tuple[int, ...]


def words_of(forest):
    return set(forest.words)


def edge_words(forest):
    return {tuple(sorted((forest.words[a], forest.words[b]))) for a, b in forest.edges}


class TestMaximalCliques:
    def test_path3(self):
        assert maximal_cliques(gen_path(3)) == [frozenset({1, 2}), frozenset({2, 3})]

    def test_k4(self, k4):
        assert maximal_cliques(k4) == [frozenset({1, 2, 3, 4})]

    def test_matches_brute_enumeration(self):
        g = gen_chordal(12, seed=3)
        assert maximal_cliques(g) == brute_maximal_cliques(g)

    def test_several_instances_vs_brute(self):
        for seed in range(8):
            g = gen_chordal(11, seed=seed, max_clique=4)
            assert maximal_cliques(g) == brute_maximal_cliques(g)

    def test_count_at_most_n(self):
        for seed in range(4):
            g = gen_chordal(100, seed=seed)
            assert len(maximal_cliques(g)) <= len(g)

    def test_not_chordal(self):
        c4 = Graph([(1, 2), (2, 3), (3, 4), (4, 1)])
        with pytest.raises(NotChordal):
            maximal_cliques(c4)


def subset_test_cliques(g):
    """Reference extraction: K(v) = {v} | L(v) along the MCS order, dropped
    when it lies inside K(w) for some w with v in L(w)."""
    order = mcs_order(g).order
    pos = {v: i for i, v in enumerate(order)}
    later = {v: {u for u in g.adj[v] if pos[u] > pos[v]} for v in order}
    non_maximal = set()
    for w in order:
        kw = later[w] | {w}
        for v in later[w]:
            if later[v] <= kw:
                non_maximal.add(v)
    cliques = [frozenset(later[v] | {v}) for v in order if v not in non_maximal]
    cliques.sort(key=clique_word)
    return cliques


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(g.adj)
    h.add_edges_from(g.edges())
    return h


def chordal_corpus():
    yield Graph()
    yield Graph(nodes=[3, 8, 20])
    yield dumbbell(3, 6, 5)
    for seed in range(6):
        yield gen_chordal(150, seed=seed, max_clique=2 + 2 * seed)
        yield gen_interval(120, seed=seed)
        yield gen_interval(80, seed=seed, span=60, max_len=25)


class TestMaximalCliquesAgainstReferences:
    def test_corpus_matches_subset_test(self):
        for g in chordal_corpus():
            assert maximal_cliques(g) == subset_test_cliques(g)

    @given(interval_graphs())
    @settings(max_examples=80, deadline=None)
    def test_interval_graphs_match_subset_test(self, g):
        assert maximal_cliques(g) == subset_test_cliques(g)

    def test_corpus_matches_networkx(self):
        for g in chordal_corpus():
            h = to_networkx(g)
            assert nx.is_chordal(h) and is_chordal(g)
            assert set(maximal_cliques(g)) == set(nx.chordal_graph_cliques(h))

    @given(small_graphs())
    @settings(max_examples=80, deadline=None)
    def test_small_graphs_match_networkx(self, g):
        h = to_networkx(g)
        assert is_chordal(g) == nx.is_chordal(h)
        if is_chordal(g):
            assert maximal_cliques(g) == subset_test_cliques(g)
            assert set(maximal_cliques(g)) == set(nx.chordal_graph_cliques(h))


@dataclass(frozen=True)
class EdgeTriple:
    """Comparison key of one weighted clique-intersection edge."""

    w: int
    l: Word
    h: Word


def edge_less(e: EdgeTriple, f: EdgeTriple) -> bool:
    """Strict total order: weight, then lower word, then higher word."""
    return (e.w, e.l, e.h) < (f.w, f.l, f.h)


class TestEdgeOrder:
    def test_weight_dominates(self):
        e = EdgeTriple(1, (1, 2), (2, 3))
        f = EdgeTriple(2, (5,), (6,))
        assert edge_less(e, f) and not edge_less(f, e)

    def test_lower_word_breaks_ties(self):
        e = EdgeTriple(1, (1, 2), (2, 3))
        f = EdgeTriple(1, (2, 3), (3, 4))
        assert edge_less(e, f)

    def test_higher_word_breaks_final_ties(self):
        e = EdgeTriple(1, (1, 2), (2, 3))
        f = EdgeTriple(1, (1, 2), (2, 5))
        assert edge_less(e, f)


def subtree_is_connected(forest, v) -> bool:
    """Whether the forest cliques holding `v` form one connected subtree
    (the clique-forest property)."""
    ids = forest.phi[v]
    idset = set(ids)
    seen = {ids[0]}
    queue = deque([ids[0]])
    while queue:
        i = queue.popleft()
        for j in forest.fadj[i]:
            if j in idset and j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == len(ids)


class TestCliqueForest:
    def test_path5_is_linear(self):
        f = clique_forest(gen_path(5))
        assert len(f) == 4
        assert all(f.degree(i) <= 2 for i in range(4))
        assert len(f.edges) == 3

    def test_k4_single_clique(self, k4):
        f = clique_forest(k4)
        assert len(f) == 1 and not f.edges

    def test_invariants_on_generated_instance(self):
        g = gen_chordal(30, seed=5)
        f = clique_forest(g)
        for v in sorted(g.nodes):
            assert subtree_is_connected(f, v)
        for u, w in g.edges():
            assert any(u in c and w in c for c in f.cliques)

    def test_deterministic_under_build_order(self):
        g1 = gen_chordal(50, seed=7)
        edges = list(g1.edges())
        g2 = Graph(reversed(edges), nodes=g1.nodes)
        assert clique_forest(g1).signature() == clique_forest(g2).signature()

    def test_dump_format_frozen(self):
        f = clique_forest(gen_path(4))
        assert forest_dump(f) == "C0: 1,2\nC1: 2,3\nC2: 3,4\nE: 0-1\nE: 1-2\n"


def word_keyed_signature(g):
    """Reference forest: Kruskal over every intersecting clique pair, ranked
    by decreasing (weight, lower word, higher word), with no clique ids."""
    words = [clique_word(c) for c in maximal_cliques(g)]
    ranked = []
    for x, y in combinations(words, 2):
        w = len(set(x) & set(y))
        if w:
            ranked.append((w, min(x, y), max(x, y)))
    ranked.sort(reverse=True)
    root = {x: x for x in words}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    edges = []
    for _w, x, y in ranked:
        rx, ry = find(x), find(y)
        if rx != ry:
            root[ry] = rx
            edges.append((x, y))
    return tuple(sorted(words)), tuple(sorted(edges))


class TestForestMatchesWordKeyedKruskal:
    @pytest.mark.parametrize("g", [
        gen_chordal(150, seed=2, max_clique=6),
        gen_chordal(200, seed=8, max_clique=10),
        gen_interval(120, seed=3),
        gen_interval(150, seed=12, span=300, max_len=40),
        dumbbell(3, 8, 5),
        gen_caterpillar(12, 3),
        gen_caterpillar(30, 1),
        gen_interval(600, seed=1),
    ], ids=["chordal-2", "chordal-8", "interval-3", "interval-12", "dumbbell",
            "caterpillar-12x3", "caterpillar-30x1", "interval-600"])
    def test_signature(self, g):
        assert clique_forest(g).signature() == word_keyed_signature(g)

    @given(chordal_graphs())
    @settings(max_examples=200, deadline=None)
    def test_subtree_intersection_graphs(self, g):
        assert clique_forest(g).signature() == word_keyed_signature(g)

    def test_more_seeds(self):
        for seed in range(6):
            g = gen_chordal(60, seed=100 + seed, max_clique=5)
            assert clique_forest(g).signature() == word_keyed_signature(g)
            h = gen_interval(60, seed=100 + seed)
            assert clique_forest(h).signature() == word_keyed_signature(h)


def shared_separator(t, k):
    """t cliques that pairwise meet in exactly {1, ..., k}, each with one to
    three nodes of its own."""
    g = complete_graph(k)
    nxt = k + 1
    for i in range(t):
        own = list(range(nxt, nxt + 1 + i % 3))
        nxt += len(own)
        for a, b in combinations(list(range(1, k + 1)) + own, 2):
            g.add_edge(a, b)
    return g


class TestStarRule:
    @pytest.mark.parametrize("t", range(2, 9))
    @pytest.mark.parametrize("k", [1, 3])
    def test_cliques_sharing_one_separator(self, t, k):
        g = shared_separator(t, k)
        cliques, _words, links = _clique_tree(g)
        assert len(cliques) == t
        assert [sep for _a, _b, sep in links] == [frozenset(range(1, k + 1))] * (t - 1)
        f = clique_forest(g)
        assert f.edges == {(i, t - 1) for i in range(t - 1)}
        assert f.signature() == word_keyed_signature(g)

    def test_two_triangles_on_a_shared_edge(self):
        # MCS visits 1, 2, 3, 4; both 3 and 4 have p = 2 and |L| = 2, but
        # only 3 extends the clique of 2
        g = Graph([(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
        cliques, _words, links = _clique_tree(g)
        assert cliques == [frozenset({1, 2, 3}), frozenset({1, 2, 4})]
        assert links == [(1, 0, frozenset({1, 2}))]
        assert clique_forest(g).signature() == word_keyed_signature(g)

    def test_disjoint_union(self):
        g = gen_chordal(80, seed=4, max_clique=5)
        h = gen_interval(60, seed=2)
        for v in h.adj:
            g.add_node(v + 100)
        for u, v in h.edges():
            g.add_edge(u + 100, v + 100)
        g.add_node(500)
        f = clique_forest(g)
        assert len(f.edges) == len(f) - len(g.connected_components())
        assert f.signature() == word_keyed_signature(g)


class TestLocalView:
    def test_path_center(self):
        g = gen_path(5)
        frag = local_view(ball(g, 3, 2), 3, 2)
        ws = words_of(frag)
        assert (2, 3) in ws and (3, 4) in ws
        idx = {w: i for i, w in enumerate(frag.words)}
        assert tuple(sorted((idx[(2, 3)], idx[(3, 4)]))) in frag.edges

    def test_k4_single_clique(self, k4):
        frag = local_view(k4, 1, 2)
        assert len(frag) == 1 and not frag.edges

    def test_radius_too_small(self, k4):
        with pytest.raises(RadiusTooSmall):
            local_view(k4, 1, 1)

    def test_fragments_contained_in_global_forest(self):
        g = gen_chordal(40, seed=11)
        full = clique_forest(g)
        fw, fe = words_of(full), edge_words(full)
        for v in sorted(g.nodes):
            frag = local_view(ball(g, v, 4), v, 4)
            assert words_of(frag) <= fw
            assert edge_words(frag) <= fe


class TestClassifyPaths:
    def test_single_path_component(self):
        f = clique_forest(gen_path(7))
        paths = classify_paths(f)
        assert len(paths) == 1
        assert paths[0].kind == BINARY_COMPONENT
        assert len(paths[0].cliques) == 6

    def test_spider_three_pendants(self):
        f = clique_forest(gen_spider(3, 10))
        paths = classify_paths(f)
        assert len(paths) == 3
        assert all(p.kind == PENDANT for p in paths)

    def test_isolated_clique_is_pendant(self, k4):
        paths = classify_paths(clique_forest(k4))
        assert [p.kind for p in paths] == [PENDANT]

    def test_internal_chain_between_junctions(self):
        # synthetic forest: two degree-3 cliques joined by a chain of four
        cliques = [frozenset({i}) for i in range(1, 12)]
        # 0,1,2 hang off 3; chain 4-5-6-7; 8 carries 9, 10
        edges = {(0, 3), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                 (7, 8), (8, 9), (8, 10)}
        f = CliqueForest(cliques, edges)
        paths = classify_paths(f)
        internal = [p for p in paths if p.kind == INTERNAL]
        assert len(internal) == 1
        assert len(internal[0].cliques) == 4
        assert {internal[0].attach_s, internal[0].attach_e} == {3, 8}
        covered = set()
        for p in paths:
            covered |= set(p.cliques)
        assert covered == {i for i in range(11) if f.degree(i) <= 2}


def path_alpha(g, path) -> int:
    """Independence number of the subgraph induced by the path's cliques."""
    return len(alpha_oracle(g.subgraph(path.node_set())))


class TestPathMetrics:
    def test_single_clique_in_k4(self, k4):
        p = classify_paths(clique_forest(k4))[0]
        assert path_diameter(p) == 1
        assert path_alpha(k4, p) == 1

    def test_full_clique_path_of_path7(self):
        g = gen_path(7)
        p = classify_paths(clique_forest(g))[0]
        assert path_diameter(p) == 6
        assert path_alpha(g, p) == 4

    def test_diameter_matches_bfs_oracle(self):
        for seed in (3, 8):
            g = gen_interval(40, seed=seed)
            f = clique_forest(g)
            for p in classify_paths(f):
                nodes = sorted(p.node_set())
                best = 0
                for u in nodes:
                    dist = bfs_distances(g.subgraph(nodes), u)
                    best = max(best, max(dist.values()))
                assert path_diameter(p) == best


class TestRemovePaths:
    def test_remove_whole_path_graph(self):
        g = gen_path(6)
        f = clique_forest(g)
        paths = classify_paths(f)
        residual, removed = remove_paths(f, g, paths)
        assert len(residual) == 0
        assert removed == set(g.nodes)

    def test_spider_leg_removal_matches_recomputation(self):
        g = gen_spider(3, 10)
        f = clique_forest(g)
        pendants = [p for p in classify_paths(f) if p.kind == PENDANT]
        residual, removed = remove_paths(f, g, pendants)
        recomputed = clique_forest(g.subgraph(g.nodes - removed))
        assert residual.signature() == recomputed.signature()

    def test_internal_removal_matches_recomputation(self):
        # two three-legged spiders whose leg tips are joined: the connecting
        # chain is a maximal internal path between the two junction cliques
        g = gen_spider(3, 6)
        other = gen_spider(3, 6)
        shift = 30
        for u, v in other.edges():
            g.add_edge(u + shift, v + shift)
        g.add_edge(7, 37)
        f = clique_forest(g)
        internal = [p for p in classify_paths(f) if p.kind == INTERNAL]
        assert internal and path_diameter(internal[0]) >= 4
        residual, removed = remove_paths(f, g, internal)
        recomputed = clique_forest(g.subgraph(g.nodes - removed))
        assert residual.signature() == recomputed.signature()

    def test_short_internal_rejected(self):
        cliques = [frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})]
        g = Graph([(1, 2), (2, 3), (3, 4)])
        f = clique_forest(g)
        # fake an internal path of one middle clique: diameter below 4
        paths = [p for p in classify_paths(f)]
        from dataclasses import replace
        fake = replace(paths[0], kind=INTERNAL, cliques=(1,))
        with pytest.raises(DiameterTooSmall):
            remove_paths(f, g, [fake])

    def test_peeling_soundness_on_generated_instances(self):
        for seed in (5, 9):
            g = gen_chordal(120, seed=seed, max_clique=5)
            f = clique_forest(g)
            live = set(g.nodes)
            while len(f):
                paths = [p for p in classify_paths(f)
                         if p.kind != INTERNAL or path_diameter(p) >= 6]
                f, removed = remove_paths(f, g, paths)
                live -= removed
                assert f.signature() == clique_forest(g.subgraph(live)).signature()

    @pytest.mark.parametrize("g", [dumbbell(3, 5, 400), gen_chordal(300, seed=11, max_clique=6)],
                             ids=["dumbbell", "chordal-11"])
    def test_restricted_phi_matches_member_ids(self, g):
        def select(i, forest, paths):
            return [p for p in paths if p.kind != INTERNAL or path_diameter(p) >= 6]

        steps = 0
        for step in peel(g, select):
            assert step.forest.phi == _member_ids(step.forest.cliques)
            if not len(step.forest):
                break
            steps += 1
        assert steps >= 2


class TestStripsFromTraces:
    def test_restriction_splits_components(self):
        cliques = [frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}),
                   frozenset({4, 5}), frozenset({5, 6})]
        strips = strips_from_traces(cliques, {1, 2, 5, 6})
        assert len(strips) == 2
        assert {frozenset(s.nodes) for s in strips} == {frozenset({1, 2}), frozenset({5, 6})}

    def test_contained_traces_are_swallowed(self):
        cliques = [frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})]
        strips = strips_from_traces(cliques, {2, 3})
        assert len(strips) == 1
        assert list(strips[0].cliques) == [frozenset({2, 3})]


def per_clique_fields(cliques):
    """Reference strip fields by a loop over every node of every clique:
    (in path order, lo, hi, jump)."""
    lo, hi, count = {}, {}, {}
    for j, c in enumerate(cliques):
        for v in c:
            lo.setdefault(v, j)
            hi[v] = j
            count[v] = count.get(v, 0) + 1
    in_order = all(hi[v] - lo[v] + 1 == count[v] for v in count)
    jump, best = [], 0
    for j in range(len(cliques)):
        best = max([best, j] + [hi[v] for v in lo if lo[v] == j])
        jump.append(best)
    return in_order, lo, hi, jump


class TestIntervalStrip:
    def test_rejects_out_of_order_cliques(self):
        with pytest.raises(ValueError):
            IntervalStrip([frozenset({1, 2}), frozenset({3, 4}), frozenset({2, 3})])

    @given(interval_graphs())
    @settings(max_examples=80, deadline=None)
    def test_fields_match_per_clique_loop(self, g):
        for strip in _component_strips(g):
            assert per_clique_fields(strip.cliques) == (True, strip.lo, strip.hi, strip.jump)
            rotated = strip.cliques[1:] + strip.cliques[:1]
            if per_clique_fields(rotated)[0]:
                IntervalStrip(rotated)
            else:
                with pytest.raises(ValueError, match="not in path order"):
                    IntervalStrip(rotated)

    def test_distances_on_path(self):
        g = gen_path(8)
        f = clique_forest(g)
        p = classify_paths(f)[0]
        strip = IntervalStrip([f.cliques[i] for i in p.cliques])
        dist = bfs_distances(g, 1)
        for v in range(2, 9):
            assert strip.dist(1, v) == dist[v]

    def test_greedy_mis_is_exact(self):
        for seed in (1, 4):
            g = gen_interval(25, seed=seed)
            f = clique_forest(g)
            for p in classify_paths(f):
                strip = IntervalStrip([f.cliques[i] for i in p.cliques])
                sub = g.subgraph(p.node_set())
                assert len(strip.greedy_mis()) == len(alpha_oracle(sub))


def test_forest_path_strips_are_interval_graphs():
    from chordalg.intervals import require_interval
    for seed in (5, 13):
        g = gen_chordal(150, seed=seed, max_clique=6)
        f = clique_forest(g)
        for p in classify_paths(f):
            require_interval(g.subgraph(p.node_set()))
