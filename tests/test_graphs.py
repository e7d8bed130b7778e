import hashlib
import heapq
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordalg import (
    Graph, NotChordal, TooLarge, UnknownNode, alpha_oracle, brute_alpha,
    brute_chromatic, clique_forest, color_interval, gen_caterpillar,
    gen_chordal, gen_interval, greedy_color_reverse_peo,
    is_chordal, mcs_order, mis_interval, omega_oracle,
    verify_coloring, verify_is,
)
from chordalg import graphs
from chordalg.cliqueforest import _clique_tree
from chordalg.graphs import EliminationOrder
from chordalg.mis import mis_chordal_run
from chordalg.mvc import mvc_pipeline

from reference_graph import ReferenceGraph
from conftest import (
    chordal_graphs, complete_graph, cycle_graph, dumbbell, long_paths_generator,
    small_graphs,
)


def path(n):
    return Graph([(i, i + 1) for i in range(1, n)])


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


class TestMcsOrder:
    def test_path_is_perfect(self):
        eo = mcs_order(path(3))
        assert eo.is_perfect
        assert sorted(eo.order) == [1, 2, 3]

    def test_four_cycle_not_perfect(self):
        assert not mcs_order(cycle_graph(4)).is_perfect

    def test_empty_graph(self):
        eo = mcs_order(Graph())
        assert eo.order == () and eo.is_perfect

    def test_deterministic_under_build_order(self):
        edges = [(1, 2), (2, 3), (3, 4), (2, 4)]
        a = mcs_order(Graph(edges))
        b = mcs_order(Graph(reversed(edges)))
        assert a == b

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_peo_invariant(self, g):
        eo = mcs_order(g)
        if eo.is_perfect:
            pos = {v: i for i, v in enumerate(eo.order)}
            for v in eo.order:
                later = [u for u in g.adj[v] if pos[u] > pos[v]]
                for a in later:
                    for b in later:
                        if a < b:
                            assert b in g.adj[a]


# sha256 of " ".join(order) for the benchmark's generators at seed 1000,
# taken before the search recorded its clique runs
PINNED_ORDERS = {
    "random_trees": "4c6317f311d80c1dc6438bf475bc4a44e04b166c1d08acc4fe30cb96b13092d6",
    "long_paths": "afddc62de8a9510d5d86a26143c3aa8281b7f633cd1b2beb929797f00f0c475c",
    "dense_intervals": "4359ec61cab6e66802f4ae4aa01895cf5c934c9a2631e3e5a38bad6f23c42381",
}


# sha256 of repr(forest.signature()) and of repr(sorted(forced.items())) for
# `clique_forest(g, forced)` on the same graphs, taken before the search
# stopped storing separators and the star rule took its forced shortcut
PINNED_FORESTS = {
    "random_trees": (
        "a082d05fb88977f38781b26f554608a445332febc784ef89a8a9af91f9d8acc6",
        "139d630f97c76b6837d8bbd9e342f6f1cc7cfc7d790db5bfb431f3184fd7b00b"),
    "long_paths": (
        "f9acbba430036da86fcdce756c29872ed2393caae17b4f3878bd23eaee49b4b1",
        "2679a59904574ebae9f0a057d3410e96a9a022d9db8f982bd57d930411bd38a1"),
    "dense_intervals": (
        "0c96e3c80331719510e928f0743850a7afeae9696d94d53bc9fd9a661b29bf47",
        "8cc9a9679b1e3f43699b177e81b470428388971f64dd7700445fb7c271780108"),
}


def benchmark_graph(workload):
    return {
        "random_trees": lambda: gen_chordal(2048, 1000, max_clique=12),
        "long_paths": lambda: long_paths_generator()(4096, 1000, max_clique=8),
        "dense_intervals": lambda: gen_interval(2048, 1000),
    }[workload]()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(PINNED_ORDERS))
def test_benchmark_visit_orders_pinned(workload):
    order = " ".join(map(str, mcs_order(benchmark_graph(workload)).order))
    assert sha256(order) == PINNED_ORDERS[workload]


@pytest.mark.parametrize("workload", sorted(PINNED_FORESTS))
def test_benchmark_forests_pinned(workload):
    forced = {}
    forest = clique_forest(benchmark_graph(workload), forced)
    assert (sha256(repr(forest.signature())), sha256(repr(sorted(forced.items())))
            ) == PINNED_FORESTS[workload]


def lazy_heap_mcs(g):
    """Reference MCS that breaks ties by the smallest id: one heap of
    (-weight, id) entries, stale ones skipped."""
    visited = set()
    weight = {v: 0 for v in g.adj}
    heap = [(0, v) for v in sorted(g.adj)]
    heapq.heapify(heap)
    visit = []
    while heap:
        negw, v = heapq.heappop(heap)
        if v in visited or -negw != weight[v]:
            continue
        visited.add(v)
        visit.append(v)
        for u in g.adj[v]:
            if u not in visited:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], u))
    return tuple(reversed(visit))


@st.composite
def sparse_graphs(draw):
    """Up to 30 nodes with gaps in their ids, any edges: often disconnected
    and often not chordal."""
    ids = draw(st.lists(st.integers(1, 80), max_size=30, unique=True))
    g = Graph(nodes=ids)
    if len(ids) > 1:
        pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
        for u, v in draw(st.lists(pairs, max_size=70)):
            if u != v:
                g.add_edge(u, v)
    return g


def reversed_build(g):
    return Graph(reversed(list(g.edges())), nodes=sorted(g.adj, reverse=True))


def later_and_parent(g, order):
    """Reference L(v) and p(v): the neighbors after v in `order` and the
    earliest of them, recomputed from positions."""
    pos = {v: i for i, v in enumerate(order)}
    later = {v: {u for u in g.adj[v] if pos[u] > pos[v]} for v in order}
    parent = {v: min(later[v], key=pos.__getitem__) if later[v] else None
              for v in order}
    return later, parent


def runs_and_links(g, order):
    """Reference clique runs and T0 links (child run, parent run): a second
    pass over `order` with L and p recomputed from positions. A visit v joins
    the run grown so far iff |L(v)| is one more than the previous visit's |L|
    and L(v) lies inside that run, and otherwise opens {v} | L(v) below the
    run holding p(v). On a chordal graph the first condition implies the
    second (Blair & Peyton), which is asserted."""
    later, parent = later_and_parent(g, order)
    chordal = is_peo_by_positions(g, order)
    runs, links, owner = [], [], {}
    need = -1
    for v in reversed(order):
        lv = later[v]
        if len(lv) == need and lv <= runs[-1]:
            runs[-1].add(v)
        else:
            assert not (chordal and len(lv) == need)
            if lv:
                links.append((len(runs), owner[parent[v]]))
            runs.append({v, *lv})
        owner[v] = len(runs) - 1
        need = len(lv) + 1
    return runs, links


def check_derived_separators(g):
    """Each separator that `_clique_tree` derives by intersecting a T0 link's
    two cliques is L(v) recomputed from positions, for the visit v that
    opened the child run. A node's own run is the first run that holds it,
    and a run's opener is the first visit it owns."""
    eo = mcs_order(g)
    later, _ = later_and_parent(g, eo.order)
    own = {}
    for k, run in enumerate(eo.runs):
        for v in run:
            own.setdefault(v, k)
    opener = {}
    for v in reversed(eo.order):
        opener.setdefault(own[v], v)
    cliques, _words, links = _clique_tree(g)
    assert len(links) == len(eo.links)
    for (child, parent), (a, b, sep) in zip(eo.links, links):
        assert (cliques[a], cliques[b]) == (eo.runs[child], eo.runs[parent])
        assert sep == later[opener[child]]


class TestDerivedSeparators:
    @given(chordal_graphs())
    @settings(max_examples=150, deadline=None)
    def test_random_chordal_graphs(self, g):
        check_derived_separators(g)

    def test_generated_graphs(self):
        for seed in range(3):
            check_derived_separators(gen_chordal(300, seed=seed, max_clique=8))
            check_derived_separators(gen_interval(200, seed=seed))
            check_derived_separators(long_paths_generator()(600, seed, max_clique=6))


def is_peo_by_positions(g, order):
    """Reference elimination-order check: a second pass over the order."""
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in g.adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        u0 = min(later, key=pos.__getitem__)
        if not (set(later) - {u0}) <= g.adj[u0]:
            return False
    return True


def is_mcs_order(g, order):
    """Whether `order` reversed visits every node once, each visit taking a
    node of the largest weight (visited neighbors) among the unvisited."""
    if sorted(order) != sorted(g.adj):
        return False
    weight = dict.fromkeys(g.adj, 0)  # unvisited nodes only
    count = Counter(weight.values())  # unvisited nodes per weight

    def drop(w):
        count[w] -= 1
        if not count[w]:
            del count[w]

    for v in reversed(order):
        w = weight.pop(v)
        if w != max(count):
            return False
        drop(w)
        for u in g.adj[v]:
            if u in weight:
                drop(weight[u])
                weight[u] += 1
                count[weight[u]] += 1
    return True


def first_failing_visit(g, order):
    """|L(v)| for the first visit v whose L(v) is not a clique, and one more
    than |L| of the visit before it."""
    later, _ = later_and_parent(g, order)
    need = -1
    for v in reversed(order):
        lv = later[v]
        if any(b not in g.adj[a] for a, b in combinations(lv, 2)):
            return len(lv), need
        need = len(lv) + 1
    return None


def band(n, width, first=1):
    """The interval graph of n unit steps, each node adjacent to the next
    width - 1: a path of cliques of size width."""
    return [(first + i, first + j) for i in range(n)
            for j in range(i + 1, min(n, i + width))]


def without_edge(edges, u, v):
    return Graph([e for e in edges if set(e) != {u, v}])


def cycle_on_band(length, shared):
    """A chordless cycle glued to a clique path at `shared` of its nodes."""
    g = cycle_graph(length)
    for u, v in band(10, 4, first=length + 1 - shared):
        g.add_edge(u, v)
    return g


NEAR_CHORDAL = [pytest.param(cycle_graph(4), id="c4")]
NEAR_CHORDAL += [pytest.param(without_edge(band(n, w), i, i + 1),
                              id="band%d-%d-minus-%d-%d" % (n, w, i, i + 1))
                 for n, w in [(10, 4), (12, 5), (14, 6)] for i in (2, n // 2)]
NEAR_CHORDAL += [pytest.param(cycle_on_band(length, shared),
                              id="c%d-glued-at-%d" % (length, shared))
                 for length in range(4, 9) for shared in (1, 2)]


class TestMcsMatchesLazyHeap:
    """`mcs_order` may break ties differently from the smallest-id reference,
    but it must be a maximum cardinality search with the reference's verdict,
    whatever order the graph was built in."""

    def check(self, g):
        eo = mcs_order(g)
        assert is_mcs_order(g, eo.order)
        assert eo.is_perfect == is_peo_by_positions(g, lazy_heap_mcs(g))
        assert mcs_order(reversed_build(g)) == eo
        assert (eo.runs, eo.links) == runs_and_links(g, eo.order)
        assert eo.is_perfect == is_peo_by_positions(g, eo.order)
        return eo

    def test_empty_graph(self):
        assert self.check(Graph()).order == ()

    @given(small_graphs())
    @settings(max_examples=80, deadline=None)
    def test_small_graphs(self, g):
        eo = self.check(g)
        assert eo.is_perfect == induced_cycle_chordality(g)

    @given(sparse_graphs())
    @settings(max_examples=80, deadline=None)
    def test_sparse_graphs_with_id_gaps(self, g):
        self.check(g)

    def test_generated_chordal_and_interval(self):
        for seed in range(4):
            assert self.check(gen_chordal(300, seed=seed, max_clique=8)).is_perfect
            assert self.check(gen_interval(200, seed=seed)).is_perfect

    def test_generated_long_paths(self):
        gen_long_paths = long_paths_generator()
        for seed in range(3):
            assert self.check(gen_long_paths(600, seed, max_clique=6)).is_perfect

    @pytest.mark.parametrize("g", NEAR_CHORDAL)
    def test_near_chordal_fails_at_the_extending_weight(self, g):
        # the visit that first sees a non-clique L(v) has the weight that
        # would extend the run being grown, so only the search's subset
        # test keeps it from joining that run unchecked
        weight, need = first_failing_visit(g, mcs_order(g).order)
        assert weight == need
        assert not self.check(g).is_perfect
        with pytest.raises(NotChordal):
            clique_forest(g)

    def test_disconnected_non_chordal(self):
        g = cycle_graph(6)
        for u, v in gen_caterpillar(4, 2).edges():
            g.add_edge(u + 10, v + 10)
        assert not self.check(g).is_perfect

    def test_large_star(self):
        # every leaf ties with every other at each visit
        g = Graph([(1, leaf) for leaf in range(2, 20_002)])
        assert self.check(g).is_perfect

    def test_reference_is_an_mcs_order(self):
        for g in (gen_chordal(300, seed=0, max_clique=8), cycle_graph(6)):
            assert is_mcs_order(g, lazy_heap_mcs(g))
        assert not is_mcs_order(path(3), (2, 1, 3))


def smallest_id_mcs(g):
    """`mcs_order`'s result for the smallest-id reference visit order."""
    order = lazy_heap_mcs(g)
    return EliminationOrder(order, is_peo_by_positions(g, order),
                            *runs_and_links(g, order))


def tie_rule_outputs(g, mvc_eps=0.5):
    """Every output read off the clique forest that must not depend on how
    the search breaks ties."""
    mvc = mvc_pipeline(g, mvc_eps)
    mis = mis_chordal_run(g, 0.4)
    return (clique_forest(g).signature(), mvc.layering.layer, mvc.final_colors,
            mis.state.layer, mis.state.branch, mis.chosen)


class TestOutputsIndependentOfTieRule:
    def outputs_with_both_rules(self, monkeypatch, outputs, *args):
        calls = []

        def reference(h):
            calls.append(h)
            return smallest_id_mcs(h)

        ours = outputs(*args)
        with monkeypatch.context() as patch:
            patch.setattr(graphs, "mcs_order", reference)
            theirs = outputs(*args)
        assert calls
        return ours, theirs

    def test_chordal_families(self, monkeypatch):
        instances = [gen_chordal(200, seed=s, max_clique=6) for s in range(3)]
        instances += [gen_interval(150, seed=s) for s in range(2)]
        instances += [long_paths_generator()(400, s, max_clique=4) for s in range(2)]
        # the two rules visit in different orders, so the check has teeth
        assert all(mcs_order(g).order != lazy_heap_mcs(g) for g in instances)
        for g in instances:
            ours, theirs = self.outputs_with_both_rules(monkeypatch, tie_rule_outputs, g)
            assert ours == theirs

    def test_dumbbell(self, monkeypatch):
        # an internal peel and an approximate-branch component; omega is 2
        g = dumbbell(3, 5, 400)
        ours, theirs = self.outputs_with_both_rules(
            monkeypatch, tie_rule_outputs, g, 1.0)
        assert ours == theirs

    def test_interval_routines(self, monkeypatch):
        def outputs(h):
            return mis_interval(h, 0.4), color_interval(h, 3)

        for seed in range(3):
            ours, theirs = self.outputs_with_both_rules(
                monkeypatch, outputs, gen_interval(150, seed=seed))
            assert ours == theirs


class TestChordality:
    def test_complete_graph(self, k4):
        assert is_chordal(k4)

    def test_five_cycle(self):
        assert not is_chordal(cycle_graph(5))

    def test_caterpillar(self):
        assert is_chordal(gen_caterpillar(5, 3))

    def test_generated_instance_cross_check(self):
        g = gen_chordal(10, seed=7)
        assert is_chordal(g)
        assert induced_cycle_chordality(g)

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_induced_cycle_check(self, g):
        assert is_chordal(g) == induced_cycle_chordality(g)


class TestOracles:
    def test_omega_k5(self):
        assert omega_oracle(complete_graph(5)) == 5

    def test_omega_path(self):
        assert omega_oracle(path(6)) == 2

    def test_omega_matches_brute_clique_search(self):
        from conftest import brute_maximal_cliques
        g = gen_chordal(12, seed=3)
        assert omega_oracle(g) == max(len(c) for c in brute_maximal_cliques(g))

    def test_omega_counts_later_neighbors(self):
        for g in (gen_chordal(300, seed=2, max_clique=9), gen_interval(200, seed=3),
                  Graph(nodes=[4, 9])):
            later, _ = later_and_parent(g, mcs_order(g).order)
            assert omega_oracle(g) == max(len(s) for s in later.values()) + 1

    def test_alpha_path5(self):
        assert len(alpha_oracle(path(5))) == 3

    def test_alpha_k4(self, k4):
        assert len(alpha_oracle(k4)) == 1

    def test_alpha_matches_brute(self):
        g = gen_chordal(12, seed=3)
        assert len(alpha_oracle(g)) == brute_alpha(g)

    def test_alpha_output_is_independent(self):
        g = gen_chordal(40, seed=5)
        assert verify_is(g, alpha_oracle(g))

    def test_not_chordal_raises(self):
        with pytest.raises(NotChordal):
            omega_oracle(cycle_graph(4))
        with pytest.raises(NotChordal):
            alpha_oracle(cycle_graph(5))

    def test_oracle_cross_check_small(self):
        g = gen_chordal(10, seed=1)
        assert omega_oracle(g) == brute_chromatic(g)
        assert len(alpha_oracle(g)) == brute_alpha(g)

    def test_brute_chromatic_backtracks_past_neighbor_colors(self):
        # the path 6-1-4-3-2-5 in degree order 1, 4, 2, 3: a greedy pass
        # gives 3 a third color, so 2 colors need a backtrack past 2
        g = Graph()
        for u, v in [(1, 4), (1, 6), (2, 3), (2, 5), (3, 4)]:
            g.add_edge(u, v)
        assert brute_chromatic(g) == 2

    @given(small_graphs(max_nodes=6))
    @settings(max_examples=40, deadline=None)
    def test_oracles_equal_brute_on_chordal(self, g):
        if is_chordal(g) and len(g):
            assert omega_oracle(g) == brute_chromatic(g)
            assert len(alpha_oracle(g)) == brute_alpha(g)


class TestBruteForce:
    def test_four_cycle(self):
        c4 = cycle_graph(4)
        assert brute_alpha(c4) == 2
        assert brute_chromatic(c4) == 2

    def test_k4(self, k4):
        assert brute_alpha(k4) == 1
        assert brute_chromatic(k4) == 4

    def test_empty_graph(self):
        assert brute_chromatic(Graph()) == 0

    def test_size_limits(self):
        with pytest.raises(TooLarge):
            brute_alpha(Graph(nodes=range(1, 22)))
        with pytest.raises(TooLarge):
            brute_chromatic(Graph(nodes=range(1, 14)))


class TestGraph:
    def test_argument_checks(self):
        with pytest.raises(ValueError):
            Graph(nodes=[0])
        with pytest.raises(ValueError):
            Graph([(2, 2)])
        with pytest.raises(UnknownNode):
            Graph([(1, 2)]).subgraph([1, 3])

    # new (7) and existing (1, 2) ids, and ids that are not positive ints
    # or are ints only by subclass
    IDS = [1, 2, 7, 0, -3, 1.0, "1", None, True, [1], 2 ** 70]

    @staticmethod
    def built(make):
        """The type and message of the exception `make` raises, or None."""
        try:
            make()
        except Exception as exc:
            return type(exc), str(exc)
        return None

    @staticmethod
    def snapshot(g):
        """The adjacency in iteration order, with the type of every id."""
        return [(repr(v), [repr(w) for w in s]) for v, s in g.adj.items()]

    @pytest.mark.parametrize("start", [[], [1, 2, 3], [True, 2]])
    def test_add_edge_accepts_and_rejects_as_the_reference(self, start):
        for u in self.IDS:
            for v in self.IDS:
                g, ref = Graph(nodes=start), ReferenceGraph(nodes=start)
                assert self.built(lambda: g.add_edge(u, v)) == \
                    self.built(lambda: ref.add_edge(u, v)), (u, v)
                assert self.snapshot(g) == self.snapshot(ref), (u, v)

    def test_membership_and_neighbors(self):
        g = Graph([(1, 2), (2, 3)], nodes=[7])
        assert 2 in g and 7 in g
        assert 4 not in g
        assert g.neighbors(2) == {1, 3}
        assert g.neighbors(7) == set()


class TestVerifiers:
    def test_coloring_legal(self):
        g = path(3)
        res = verify_coloring(g, {1: 1, 2: 2, 3: 1})
        assert res.legal and res.palette == 2

    def test_coloring_illegal(self):
        g = Graph([(1, 2)])
        assert not verify_coloring(g, {1: 1, 2: 1}).legal

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            verify_coloring(Graph([(1, 2)]), {3: 1})
        with pytest.raises(UnknownNode):
            verify_is(Graph([(1, 2)]), {9})

    def test_greedy_reverse_peo_hits_omega(self):
        for seed in range(4):
            g = gen_chordal(60, seed=seed, max_clique=5)
            colors = greedy_color_reverse_peo(g)
            res = verify_coloring(g, colors)
            assert res.legal
            assert res.palette == omega_oracle(g)
