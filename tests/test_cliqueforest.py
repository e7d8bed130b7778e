import random
from collections import deque
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Tuple

import networkx as nx
import pytest
from hypothesis import given, settings

from chordalg import (
    DiameterTooSmall, Graph, NotChordal, RadiusTooSmall, alpha_oracle,
    classify_paths, clique_forest, gen_caterpillar, gen_chordal,
    gen_interval, gen_path, gen_spider, is_chordal, local_view, maximal_cliques,
    mcs_order, omega_oracle, remove_paths, set_debug_invariants,
)
from chordalg import cliqueforest
from chordalg.cliqueforest import (
    BINARY_COMPONENT, INTERNAL, PENDANT, CliqueForest, IntervalStrip,
    _clique_tree, clique_word, peel, strips_from_traces,
)
from chordalg.graphs import ball, bfs_distances
from chordalg.intervals import _component_strips
from chordalg.mis import mis_chordal_run
from chordalg.mvc import mvc_pipeline, prune_layers

from conftest import (
    LONG_PATH_CASES, brute_maximal_cliques, chordal_graphs, complete_graph,
    dumbbell, internal_peel_graphs, interval_graphs, long_paths_generator,
    proper_interval_graphs, small_graphs,
)
from conftest import chordal_corpus as acceptance_corpus
from reference_classify import reference_classify

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


def holder_ids(forest):
    """Per node, the set of ids of the forest cliques that hold it."""
    phi = {}
    for i, c in enumerate(forest.cliques):
        for v in c:
            phi.setdefault(v, set()).add(i)
    return phi


def subtree_is_connected(forest, v) -> bool:
    """Whether the forest cliques holding `v` form one connected subtree
    (the clique-forest property)."""
    idset = holder_ids(forest)[v]
    first = min(idset)
    seen = {first}
    queue = deque([first])
    while queue:
        i = queue.popleft()
        for j in forest.fadj[i]:
            if j in idset and j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == len(idset)


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


def word_keyed_kruskal(words):
    """Kruskal over every intersecting pair of the clique `words`, ranked by
    decreasing (weight, lower word, higher word): the picked edges as sorted
    word pairs, with no clique ids."""
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
    return sorted(edges)


def word_keyed_signature(g):
    """Reference forest: the word-keyed Kruskal over all maximal cliques."""
    words = [clique_word(c) for c in maximal_cliques(g)]
    return tuple(sorted(words)), tuple(word_keyed_kruskal(words))


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

    @given(chordal_graphs())
    @settings(max_examples=200, deadline=None)
    def test_forced_edges_are_those_no_third_clique_holds(self, g):
        # the forced edges the star rule reports are the forest edges whose
        # separator lies in no other clique; asking for them changes nothing
        forced = {}
        forest = clique_forest(g, forced)
        assert forest.signature() == clique_forest(g).signature()
        cl = forest.cliques
        want = {(a, b) for a, b in forest.edges
                if not any(cl[a] & cl[b] <= c for i, c in enumerate(cl) if i not in (a, b))}
        assert {(a, b) for a in forced for b in forced[a] if a < b} == want
        assert all(a in forced[b] for a in forced for b in forced[a])

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
        # the last two visits both have the second visit as p and |L| = 2,
        # but only the first of them extends the clique grown so far; that
        # clique is T0's root and the other hangs below it
        g = Graph([(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
        cliques, _words, links = _clique_tree(g)
        assert cliques == [frozenset({1, 2, 3}), frozenset({1, 2, 4})]
        visit = mcs_order(g).order[::-1]
        root = cliques.index(frozenset(visit[:3]))
        assert links == [(1 - root, root, frozenset({1, 2}))]
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


def per_node_kruskal_view(ball, center, d):
    """A local view built node by node: for each node u within d - 1 of
    `center`, the maximal cliques of u's closed neighborhood and the
    word-keyed Kruskal over them. Returns the union of the clique words and
    of the edge word pairs."""
    words, edges = set(), set()
    for u in bfs_distances(ball, center, cutoff=d - 1):
        own = [clique_word(c) for c in
               maximal_cliques(ball.subgraph(ball.closed_neighborhood(u)))]
        words.update(own)
        edges.update(word_keyed_kruskal(own))
    return sorted(words), edges


class TestLocalViewMatchesPerNodeKruskal:
    """`local_view` keeps the ball's own forest; it must equal the union of
    the per-node spanning trees, in clique words and in edge words."""

    @staticmethod
    def check(b, center, d):
        frag = local_view(b, center, d)
        words, edges = per_node_kruskal_view(b, center, d)
        assert list(frag.words) == words
        assert edge_words(frag) == edges

    @pytest.mark.parametrize("g", [
        gen_chordal(60, seed=0, max_clique=6),
        gen_chordal(60, seed=1, max_clique=8),
        gen_interval(200, seed=0),
        gen_interval(200, seed=1),
    ], ids=["chordal-0", "chordal-1", "interval-0", "interval-1"])
    def test_whole_balls(self, g):
        for v in sorted(g.nodes)[::2]:
            for d in (2, 4, 8):
                self.check(ball(g, v, d), v, d)

    @pytest.mark.parametrize("make", [
        lambda seed: long_paths_generator()(300, seed),
        lambda seed: gen_chordal(150, seed=seed),
    ], ids=["long-paths", "chordal"])
    def test_residual_balls(self, make):
        for seed in range(2):
            g = make(seed)
            rng = random.Random(seed)
            kept = {v for v in sorted(g.nodes) if rng.random() < 0.8}
            for v in sorted(kept)[::6]:
                for d in (2, 4, 8):
                    # the ball in g cut to the kept nodes, as a peel
                    # decision sees it: often disconnected
                    b = g.subgraph(bfs_distances(g, v, cutoff=d).keys() & kept)
                    self.check(b, v, d)


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
        assert {internal[0].attach_s, internal[0].attach_e} == {f.cliques[3], f.cliques[8]}
        covered = set()
        for p in paths:
            covered |= set(p.ids)
        assert covered == {i for i in range(11) if f.degree(i) <= 2}


def check_path_record(forest, p):
    """A path record against the forest it was classified on: its clique
    sets are its ids' cliques, and its attach cliques are the forest
    neighbours of its end ids outside the run, None iff there are none."""
    assert p.cliques == tuple(forest.cliques[i] for i in p.ids)
    run = set(p.ids)
    outside = [[forest.cliques[j] for j in forest.fadj[end] if j not in run]
               for end in (p.ids[0], p.ids[-1])]
    if len(p.ids) == 1:
        # both sides are the one clique's: its junctions in word order
        assert [s for s in (p.attach_s, p.attach_e) if s is not None] == sorted(
            outside[0], key=clique_word)
    else:
        for side, nbrs in zip((p.attach_s, p.attach_e), outside):
            assert len(nbrs) <= 1
            assert side == (nbrs[0] if nbrs else None)


def check_members(p, phi):
    """A record's members are exactly the nodes of its cliques whose holder
    cliques (`phi`, from `holder_ids`) all lie on it, in increasing order."""
    ids = set(p.ids)
    assert set(p.members) == {v for v in set().union(*p.cliques) if phi[v] <= ids}
    assert list(p.members) == sorted(p.members)


def peel_checking_members(g, select):
    """Peel `g` to the end with `select`. At every step, every classified
    record's members follow the definition, and the selected records'
    members together are exactly the nodes missing from the next step's
    forest. Returns the steps."""
    steps = []
    for step in peel(g, select):
        left = set().union(*step.forest.cliques)
        if steps:
            peeled = set().union(*(p.members for p in steps[-1].paths))
            assert peeled <= nodes and left == nodes - peeled
        phi = holder_ids(step.forest)
        for p in classify_paths(step.forest):
            check_members(p, phi)
        steps.append(step)
        nodes = left
        if not nodes:
            return steps


RECORD_GRAPHS = {
    "chordal": lambda: gen_chordal(300, seed=11, max_clique=6),
    "long-paths": lambda: long_paths_generator()(800, 8, max_clique=4),
    "dumbbell": lambda: dumbbell(3, 5, 400),
}


@pytest.mark.parametrize("name", sorted(RECORD_GRAPHS))
def test_path_records_match_their_forest(name):
    g = RECORD_GRAPHS[name]()
    kinds = set()
    for step in peel_checking_members(g, lambda i, strip: strip.diameter() >= 6):
        classified = classify_paths(step.forest)
        for p in classified:
            check_path_record(step.forest, p)
        for p in step.paths:
            assert p in classified
            kinds.add(p.kind)
    assert PENDANT in kinds
    if name != "chordal":
        assert INTERNAL in kinds


def path_alpha(g, path) -> int:
    """Independence number of the subgraph induced by the path's cliques."""
    return len(alpha_oracle(g.subgraph(set().union(*path.cliques))))


@given(chordal_graphs())
@settings(max_examples=150, deadline=None)
def test_members_rule_on_random_chordal_graphs(g):
    steps = peel_checking_members(g, lambda i, strip: strip.diameter() >= 4)
    assert set().union(*(p.members for s in steps for p in s.paths)) == set(g.nodes)


def classify_as_reference(forests) -> int:
    """Asserts that `classify_paths` gives the reference's records, in its
    order, on each forest. Returns the number of forests compared."""
    compared = 0
    for forest in forests:
        assert classify_paths(forest) == reference_classify(forest)
        compared += 1
    return compared


def peel_forests(g):
    """The forest of every step of a peel that takes each pendant path and
    each internal path of diameter at least 4, until no clique is left."""
    for step in peel(g, lambda i, strip: strip.diameter() >= 4):
        if not len(step.forest):
            return
        yield step.forest


def pipeline_forests(g, mvc_eps, mis_eps=0.4):
    """The forest of every peel step of `mvc_pipeline` (where eps admits the
    graph's clique number) and of `mis_chordal_run`."""
    forests = []

    def spy(forest):
        forests.append(forest)
        return classify_paths(forest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cliqueforest, "classify_paths", spy)
        if mvc_eps >= 2.0 / omega_oracle(g):
            mvc_pipeline(g, mvc_eps)
        mis_chordal_run(g, mis_eps)
    return forests


def local_views(g, step=7):
    """Local views of every `step`-th node's balls of radius 2, 4 and 8."""
    for v in sorted(g.nodes)[::step]:
        for d in (2, 4, 8):
            yield local_view(ball(g, v, d), v, d)


def test_classify_matches_reference_on_random_chordal_graphs():
    compared = []

    @given(chordal_graphs())
    @settings(max_examples=150, deadline=None)
    def check(g):
        compared.append(classify_as_reference(peel_forests(g)))
        compared.append(classify_as_reference(local_views(g, step=3)))

    check()
    assert sum(compared)


# the first admissible instance of some acceptance-corpus configurations,
# as (eps, n, max_clique)
@pytest.mark.parametrize("eps,n,mc", [(0.5, 512, 8), (0.5, 2048, 20), (0.25, 512, 20)])
def test_classify_matches_reference_on_acceptance_corpus_sample(eps, n, mc):
    (g, _), = acceptance_corpus(eps, n, mc, 1)
    assert classify_as_reference(pipeline_forests(g, eps))


@pytest.mark.parametrize("seed,mc", LONG_PATH_CASES)
def test_classify_matches_reference_on_long_paths(seed, mc):
    g = long_paths_generator()(600, seed, max_clique=mc)
    assert classify_as_reference(pipeline_forests(g, 0.5))


@pytest.mark.parametrize("seed", range(3))
def test_classify_matches_reference_on_interval_graphs(seed):
    g = gen_interval(300, seed)
    assert classify_as_reference(pipeline_forests(g, 0.5))


@pytest.mark.parametrize("name", sorted(RECORD_GRAPHS))
def test_classify_matches_reference_on_local_views(name):
    assert classify_as_reference(local_views(RECORD_GRAPHS[name]()))


class TestPathMetrics:
    def test_single_clique_in_k4(self, k4):
        p = classify_paths(clique_forest(k4))[0]
        assert IntervalStrip(p.cliques).diameter() == 1
        assert path_alpha(k4, p) == 1

    def test_full_clique_path_of_path7(self):
        g = gen_path(7)
        p = classify_paths(clique_forest(g))[0]
        assert IntervalStrip(p.cliques).diameter() == 6
        assert path_alpha(g, p) == 4

    def test_diameter_matches_bfs_oracle(self):
        for seed in (3, 8):
            g = gen_interval(40, seed=seed)
            f = clique_forest(g)
            for p in classify_paths(f):
                nodes = sorted(set().union(*p.cliques))
                best = 0
                for u in nodes:
                    dist = bfs_distances(g.subgraph(nodes), u)
                    best = max(best, max(dist.values()))
                assert IntervalStrip(p.cliques).diameter() == best


def strips_of(paths):
    """The strip of each path's cliques, as `peel` hands them to
    `remove_paths`."""
    return [IntervalStrip(p.cliques) for p in paths]


class TestRemovePaths:
    def test_remove_whole_path_graph(self):
        g = gen_path(6)
        f = clique_forest(g)
        paths = classify_paths(f)
        residual = remove_paths(f, g, paths, strips_of(paths))
        assert len(residual) == 0
        assert {v for p in paths for v in p.members} == set(g.nodes)

    def test_spider_leg_removal_matches_recomputation(self):
        g = gen_spider(3, 10)
        f = clique_forest(g)
        pendants = [p for p in classify_paths(f) if p.kind == PENDANT]
        residual = remove_paths(f, g, pendants, strips_of(pendants))
        removed = {v for p in pendants for v in p.members}
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
        assert internal and IntervalStrip(internal[0].cliques).diameter() >= 4
        residual = remove_paths(f, g, internal, strips_of(internal))
        removed = {v for p in internal for v in p.members}
        recomputed = clique_forest(g.subgraph(g.nodes - removed))
        assert residual.signature() == recomputed.signature()

    def test_short_internal_rejected(self):
        cliques = [frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})]
        g = Graph([(1, 2), (2, 3), (3, 4)])
        f = clique_forest(g)
        # fake an internal path of one middle clique: diameter below 4
        paths = [p for p in classify_paths(f)]
        fake = replace(paths[0], kind=INTERNAL, ids=(1,), cliques=(f.cliques[1],))
        with pytest.raises(DiameterTooSmall):
            remove_paths(f, g, [fake], strips_of([fake]))

    def test_peeling_soundness_on_generated_instances(self):
        for seed in (5, 9):
            g = gen_chordal(120, seed=seed, max_clique=5)
            f = clique_forest(g)
            live = set(g.nodes)
            while len(f):
                paths = [p for p in classify_paths(f)
                         if p.kind != INTERNAL or IntervalStrip(p.cliques).diameter() >= 6]
                f = remove_paths(f, g, paths, strips_of(paths))
                live -= {v for p in paths for v in p.members}
                assert f.signature() == clique_forest(g.subgraph(live)).signature()

    def test_debug_check_catches_a_forest_without_the_subtree_property(
            self, monkeypatch):
        # three pendant paths on the junction {2, 3}: {1, 2}, {3, 4}-{1, 6}
        # and {3, 5}. Node 1 lies in {1, 2} and in {1, 6}, which are not
        # adjacent, so the rule counts it a member of both paths
        cliques = [frozenset(c) for c in ({1, 2}, {1, 6}, {2, 3}, {3, 4}, {3, 5})]
        broken = CliqueForest(cliques, {(0, 2), (2, 3), (2, 4), (1, 3)})
        monkeypatch.setattr(cliqueforest, "clique_forest", lambda g: broken)
        g = Graph([(1, 2)])
        steps = peel(g, lambda i, strip: True)
        assert next(steps).paths  # the check is off by default
        set_debug_invariants(True)
        try:
            with pytest.raises(AssertionError, match="peel bookkeeping mismatch"):
                next(peel(g, lambda i, strip: True))
        finally:
            set_debug_invariants(False)

    def test_debug_check_catches_a_forest_of_another_graph(self, monkeypatch):
        # the dumbbell's forest over the dumbbell plus one edge from a
        # step-1 member to a node outside its record's cliques: members and
        # ids still agree, but that member's neighbours are not the record's
        g = dumbbell(3, 6, 20)
        forest = clique_forest(g)
        record = classify_paths(forest)[0]
        far = min(g.nodes - set().union(*record.cliques))
        h = Graph([*g.edges(), (record.members[0], far)])
        monkeypatch.setattr(cliqueforest, "clique_forest", lambda g: forest)
        steps = peel(h, lambda i, strip: True)
        assert record in next(steps).paths  # the check is off by default
        set_debug_invariants(True)
        try:
            with pytest.raises(AssertionError,
                               match="members' neighbours differ from the record's"):
                next(peel(h, lambda i, strip: True))
        finally:
            set_debug_invariants(False)


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
        strip = IntervalStrip(p.cliques)
        dist = bfs_distances(g, 1)
        for v in range(2, 9):
            assert strip.dist(1, v) == dist[v]

    def test_distances_either_way_round(self):
        g = gen_path(8)
        strip = IntervalStrip(classify_paths(clique_forest(g))[0].cliques)
        for u in range(1, 9):
            dist = bfs_distances(g, u)
            for v in range(1, 9):
                assert strip.dist(v, u) == strip.dist(u, v) == dist[v]

    def test_disconnected_strip(self):
        # without the None, the hop loop would never leave clique 0
        strip = IntervalStrip([frozenset({1}), frozenset({2})])
        assert strip.dist(1, 2) is None and strip.dist(2, 1) is None
        with pytest.raises(ValueError, match="strip is disconnected"):
            strip.diameter()

    def test_greedy_mis_is_exact(self):
        for seed in (1, 4):
            g = gen_interval(25, seed=seed)
            f = clique_forest(g)
            for p in classify_paths(f):
                strip = IntervalStrip(p.cliques)
                sub = g.subgraph(set().union(*p.cliques))
                assert len(strip.greedy_mis()) == len(alpha_oracle(sub))


def check_views(strip, cuts) -> int:
    """`reversed()`, and `segment(a, b)` for each (a, b) in `cuts`, of
    `strip` and of its reverse, and the reverse of each cut, equal the
    strips the constructor builds from the same cliques. Returns the number
    of views compared."""
    def same(view, cliques):
        built = IntervalStrip(cliques)
        assert ((view.cliques, view.lo, view.hi, view.jump)
                == (built.cliques, built.lo, built.hi, built.jump))
        return 1

    cliques = strip.cliques
    back = strip.reversed()
    compared = same(back, cliques[::-1])
    for a, b in cuts:
        compared += same(strip.segment(a, b), cliques[a:b + 1])
        compared += same(back.segment(a, b), cliques[::-1][a:b + 1])
        compared += same(strip.segment(a, b).reversed(), cliques[a:b + 1][::-1])
    return compared


@given(proper_interval_graphs())
@settings(max_examples=150, deadline=None)
def test_views_equal_rebuilt_strips(g):
    for strip in _component_strips(g):
        t = len(strip.cliques)
        check_views(strip, [(a, b) for a in range(t) for b in range(a, t)])


@pytest.mark.parametrize("seed, max_clique", LONG_PATH_CASES)
def test_views_equal_rebuilt_strips_on_peel_records(seed, max_clique):
    g = long_paths_generator()(600, seed, max_clique=max_clique)
    kinds = set()
    compared = 0
    for records in prune_layers(g, 2).peeled_paths.values():
        for record in records:
            strip = IntervalStrip(record.cliques)
            t = len(strip.cliques)
            compared += check_views(strip, [(a, b) for a in range(t)
                                            for b in sorted({a, min(a + 3, t - 1), t - 1})])
            kinds.add(record.kind)
    assert INTERNAL in kinds and compared


@internal_peel_graphs
def test_peel_builds_each_internal_strip_once(monkeypatch, make):
    """`prune_layers` builds one strip per internal record classified at
    each step, and `remove_paths` checks the strip `select` was given."""
    g = make()
    built, given_to_select, checked = [], [], []
    real_strip, real_remove = IntervalStrip, cliqueforest.remove_paths

    def counting(cliques):
        built.append(cliques)
        return real_strip(cliques)

    def remove(forest, g, paths, strips):
        checked.extend(s for p, s in zip(paths, strips) if p.kind == INTERNAL)
        return real_remove(forest, g, paths, strips)

    def select(i, strip):
        given_to_select.append(strip)
        return strip.diameter() >= 6

    monkeypatch.setattr(cliqueforest, "IntervalStrip", counting)
    monkeypatch.setattr(cliqueforest, "remove_paths", remove)
    layering = prune_layers(g, 2)
    internal = [p.cliques for f in layering.forest_history
                for p in classify_paths(f) if p.kind == INTERNAL]
    assert internal and built == internal
    built.clear()
    checked.clear()
    for step in peel(g, select):
        if not len(step.forest):
            break
    assert len(built) == len(given_to_select)
    assert checked and set(map(id, checked)) <= set(map(id, given_to_select))


def test_forest_path_strips_are_interval_graphs():
    from chordalg.intervals import _component_strips
    for seed in (5, 13):
        g = gen_chordal(150, seed=seed, max_clique=6)
        f = clique_forest(g)
        for p in classify_paths(f):
            _component_strips(g.subgraph(set().union(*p.cliques)))
