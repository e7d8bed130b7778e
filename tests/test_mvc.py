import math
from dataclasses import replace

import pytest
from hypothesis import given, settings

import chordalg
from chordalg import (
    BadEpsilon, EpsilonTooSmall, Graph, NonTermination, NotChordal, clique_forest, gen_chordal, gen_interval, gen_path,
    gen_spider, mvc_centralized, mvc_distributed, omega_oracle, prune_layers,
    verify_coloring,
)
from chordalg.cliqueforest import INTERNAL, IntervalStrip, clique_word, strips_from_traces
from chordalg.fileio import coloring_to_text
from chordalg import errors, graphs, localsim, mvc
from chordalg.graphs import bfs_distances
from chordalg.intervals import _component_strips, color_budget
from chordalg.mvc import (
    CorrectionJob, MvcProgram, _side_hops, build_correction_job, color_layers,
    correct_colors, correction_forest, correction_poll_radius, default_round_cap,
    eps_to_k, mvc_pipeline, mvc_distributed_run, set_color_latency,
)

from conftest import (
    LONG_PATH_CASES, chordal_corpus, chordal_graphs, complete_graph, cycle_graph,
    dumbbell, graph_conflicted, graph_wait_set, internal_peel_graphs,
    long_paths_generator,
)
from local_peel import local_peel_decision


def bound(k, omega):
    return color_budget(k, omega)


class TestPruneLayers:
    def test_interval_graph_single_layer(self):
        g = gen_interval(60, seed=3)
        layering = prune_layers(g, 4)
        assert layering.num_layers == 1
        assert all(l == 1 for l in layering.layer.values())
        assert all(p is None for p in correction_forest(layering, 4)[0].values())

    def test_spider_two_layers_and_parents(self):
        g = gen_spider(3, 20)
        layering = prune_layers(g, 3)
        assert layering.num_layers == 2
        assert sorted(layering.layer_nodes(2)) == [1, 42]
        parent = correction_forest(layering, 3)[0]
        legs_near_center = [v for v in layering.layer_nodes(1)
                            if parent[v] is not None]
        assert legs_near_center
        assert all(parent[v] == 42 for v in legs_near_center)
        # nodes with a parent sit within k + 3 of the attach clique {1, 42}
        reach = bfs_distances(g, {1, 42}, cutoff=6)
        for v in layering.layer_nodes(1):
            assert (parent[v] is not None) == (v in reach)

    def test_partition_and_layer_bound(self):
        g = gen_chordal(500, seed=21, max_clique=6)
        layering = prune_layers(g, 4)
        assert set(layering.layer) == g.nodes
        assert layering.num_layers <= math.ceil(math.log2(max(2, layering.clique_count)))

    def test_layers_are_interval(self):
        g = gen_chordal(500, seed=21, max_clique=6)
        layering = prune_layers(g, 4)
        for i in range(1, layering.num_layers + 1):
            _component_strips(g.subgraph(layering.layer_nodes(i)))

    def test_peeled_forests_match_recomputation(self):
        g = gen_chordal(300, seed=21, max_clique=6)
        layering = prune_layers(g, 4)
        for i in range(1, layering.num_layers + 1):
            leftover = {v for v, l in layering.layer.items() if l > i}
            maintained = layering.forest_history[i]
            assert maintained.signature() == clique_forest(g.subgraph(leftover)).signature()

    def test_parent_monotonicity_and_junction_halving(self):
        g = gen_chordal(400, seed=9, max_clique=6)
        layering = prune_layers(g, 4)
        for v, par in correction_forest(layering, 4)[0].items():
            if par is not None:
                assert layering.layer[par] > layering.layer[v]
        counts = [sum(1 for j in range(len(f)) if f.degree(j) > 2)
                  for f in layering.forest_history[:-1]]
        for a, b in zip(counts, counts[1:]):
            if a:
                assert b < a / 2 or b == 0


def reference_parents(g, layering, k):
    """Parents and children recomputed from full radius-(k + 3) balls around
    every attach clique: nearest clique wins, ties broken by clique word."""
    parent, children = {}, {}
    for i, records in layering.peeled_paths.items():
        for record in records:
            balls = [(bfs_distances(g, side, cutoff=k + 3), side)
                     for side in (record.attach_s, record.attach_e)
                     if side is not None]
            for v in record.members:
                keys = [((dist[v], clique_word(side)), side)
                        for dist, side in balls if v in dist]
                parent[v] = max(min(keys)[1]) if keys else None
                if keys:
                    children.setdefault(parent[v], {}).setdefault(i, []).append(v)
    children = {par: {i: tuple(sorted(vs)) for i, vs in per.items()}
                for par, per in children.items()}
    return parent, children


def forest(layering, k):
    """`correction_forest`'s parents, and its children in the shape of
    `reference_parents`'."""
    parent, levels, _ = correction_forest(layering, k)
    return parent, {par: {i: kids for i, kids, _ in per} for par, per in levels.items()}


@pytest.mark.parametrize("seed,k", [(1, 4), (5, 2), (21, 4), (33, 3), (40, 6)])
def test_prune_parents_match_full_balls_on_generated(seed, k):
    g = gen_chordal(400, seed=seed, max_clique=6)
    layering = prune_layers(g, k)
    assert forest(layering, k) == reference_parents(g, layering, k)


def test_prune_parents_match_full_balls_on_dumbbell():
    k = 4
    g = dumbbell(3, 6, 3 * k + 8)
    layering = prune_layers(g, k)
    kinds = [r.kind for records in layering.peeled_paths.values() for r in records]
    assert INTERNAL in kinds
    parent, children = reference_parents(g, layering, k)
    assert forest(layering, k) == (parent, children)
    # the internal path's far middle is beyond k + 3 of both junctions
    assert None in parent.values() and any(p is not None for p in parent.values())


def internal_members(layering):
    return [v for records in layering.peeled_paths.values() for r in records
            if r.kind == INTERNAL for v in r.members]


@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("seed,m", LONG_PATH_CASES)
def test_prune_parents_match_full_balls_on_long_paths(seed, m, k):
    """Internal peels after earlier peels are where a shortcut through the
    peeled part of g would show; their members sit both within and beyond
    k + 3 of the junctions."""
    g = long_paths_generator()(600, seed, max_clique=m)
    layering = prune_layers(g, k)
    parent, children = forest(layering, k)
    assert (parent, children) == reference_parents(g, layering, k)
    inner = [parent[v] for v in internal_members(layering)]
    assert None in inner and any(p is not None for p in inner)


@pytest.mark.parametrize("seed,m", LONG_PATH_CASES[:2])
def test_side_hops_match_graph_distances(seed, m):
    """Hops along [side, *path cliques] equal distances in g for every node
    of those cliques, not only where a parent choice turns on them."""
    g = long_paths_generator()(600, seed, max_clique=m)
    for k in (2, 6):
        for records in prune_layers(g, k).peeled_paths.values():
            for r in records:
                for side, seq in ((r.attach_s, r.cliques), (r.attach_e, r.cliques[::-1])):
                    if side is None:
                        continue
                    nodes = side.union(*seq)
                    full = bfs_distances(g, side, cutoff=k + 3)
                    assert _side_hops((side, *seq), k + 3)[0] == {
                        v: d for v, d in full.items() if v in nodes}


@pytest.mark.parametrize("bridge", [6, 7, 8, 9])
def test_prune_parents_match_full_balls_on_dumbbell_threshold(bridge):
    """At k = 2 the bridge's internal path has diameter bridge - 2, so it is
    peeled from bridge 3k + 2 on; below that it joins the last layer."""
    k = 2
    g = dumbbell(3, 6, bridge)
    layering = prune_layers(g, k)
    parent, children = forest(layering, k)
    assert (parent, children) == reference_parents(g, layering, k)
    assert bool(internal_members(layering)) == (bridge >= 3 * k + 2)
    parents = list(parent.values())
    assert None in parents and any(p is not None for p in parents)


pipeline_graphs = pytest.mark.parametrize("make", [
    lambda: gen_chordal(400, seed=5, max_clique=12),
    lambda: long_paths_generator()(600, 2, max_clique=4),
], ids=["random_trees", "long_paths"])


@pipeline_graphs
def test_correction_forest_searches_no_graph(monkeypatch, make):
    """The peel and the correction forest, the set-color routes included,
    come from the peel records alone: with every binding of `bfs_distances`
    and `BfsBall` made to raise, and debug invariants off, the layering and
    the forest are unchanged."""
    g = make()
    expected = {k: prune_layers(g, k) for k in (2, 4)}
    forests = {k: correction_forest(layering, k) for k, layering in expected.items()}
    assert all(routes for _, _, routes in forests.values())

    def no_search(*args, **kwargs):
        raise AssertionError("the graph was searched")

    monkeypatch.setattr(errors, "_DEBUG_INVARIANTS", False)
    searches = (graphs.bfs_distances, graphs.BfsBall)
    for module in vars(chordalg).values():
        for name in ("bfs_distances", "BfsBall"):
            if getattr(module, name, None) in searches:
                monkeypatch.setattr(module, name, no_search)
    for k, want in expected.items():
        got = prune_layers(g, k)
        assert (got.layer, got.num_layers) == (want.layer, want.num_layers)
        assert correction_forest(got, k) == forests[k]


def routed_sends(g, eps):
    """Replay MVC's node program on g; returns the pipeline run and every
    Send its steps make, as (sender, Send) pairs."""
    run = mvc_pipeline(g, eps)
    program = MvcProgram(run)
    step, sends = program.step, []

    def spy(state, rnd, inbox):
        res = step(state, rnd, inbox)
        sends.extend((res.state.id, req) for req in res.requests
                     if type(req) is localsim.Send)
        return res

    program.step = spy
    transcript = localsim.run(g, program, default_round_cap(g, eps))
    assert transcript.outputs == run.final_colors
    return run, sends


def check_routes(g, eps):
    """Every child of the correction forest gets one Send from its parent,
    and its route is a path of g from the parent to the child with at most
    `set_color_latency(k)` edges; `bfs_distances` finds the child within the
    route's length of the parent. Returns the number of Sends."""
    run, sends = routed_sends(g, eps)
    latency = set_color_latency(run.k)
    parent = correction_forest(run.layering, run.k)[0]
    assert sorted(send.target for _, send in sends) == sorted(
        v for v, par in parent.items() if par is not None)
    by_sender = {}
    for u, send in sends:
        route = send.route
        assert send.latency == latency
        assert route[0] == u == parent[send.target] and route[-1] == send.target
        assert len(route) - 1 <= latency
        assert all(b in g.adj[a] for a, b in zip(route, route[1:]))
        by_sender.setdefault(u, []).append(send)
    for u, mine in by_sender.items():
        dist = bfs_distances(g, u, cutoff=latency)
        assert all(dist.get(send.target, latency + 1) <= len(send.route) - 1
                   for send in mine)
    return len(sends)


# the first admissible instance of some acceptance-corpus configurations,
# as (eps, n, max_clique)
CORPUS_SAMPLE = [(0.5, 128, 8), (0.5, 512, 20), (0.5, 2048, 8), (0.25, 512, 8),
                 (0.25, 2048, 20)]


@pytest.mark.parametrize("eps,n,mc", CORPUS_SAMPLE)
def test_set_color_routes_on_acceptance_corpus_sample(eps, n, mc):
    (g, _), = chordal_corpus(eps, n, mc, 1)
    assert check_routes(g, eps)


@internal_peel_graphs
def test_set_color_routes_on_internal_peels(make):
    g = make()
    for eps in (1.0, 0.5):
        if eps >= 2.0 / omega_oracle(g):
            assert check_routes(g, eps)


@pytest.mark.parametrize("n,seed,mc,eps", [(200, 30, 6, 0.4), (400, 16, 4, 0.5)])
def test_set_color_routes_on_joint_branch_instances(n, seed, mc, eps):
    assert check_routes(long_paths_generator()(n, seed, max_clique=mc), eps)


@pipeline_graphs
def test_replay_grows_balls_only_for_poll_readers(monkeypatch, make):
    """The engine checks every set-color Send by its route, so an MVC
    replay grows a ball only for a node that reads a wait set, and only as
    far as the poll radius. The same replay with route-less Sends grows
    balls to the Send latency too."""
    g = make()
    run = mvc_pipeline(g, 0.5)
    readers = set(correction_forest(run.layering, run.k)[1])
    sources, limits = [], set()  # of every ball, and every depth it was asked for

    class Spy(graphs.BfsBall):
        def __init__(self, g, source):
            sources.append(source)
            super().__init__(g, source)

        def reach(self, targets, limit):
            limits.add(limit)
            return super().reach(targets, limit)

    monkeypatch.setattr(localsim, "BfsBall", Spy)
    mvc_distributed_run(run)
    assert sources and set(sources) <= readers
    assert limits == {correction_poll_radius(run.k)}

    def routeless(target, payload, latency, route):
        return localsim.Send(target, payload, latency)

    monkeypatch.setattr(mvc, "Send", routeless)
    limits.clear()
    mvc_distributed_run(run)
    assert limits == {correction_poll_radius(run.k), set_color_latency(run.k)}


class TestColorLayers:
    def test_per_layer_legal_with_conflicts_only_between_layers(self):
        g = gen_chordal(300, seed=21, max_clique=6)
        k = 4
        layering = prune_layers(g, k)
        base = color_layers(layering, k)
        for u, v in g.edges():
            if base[u] == base[v]:
                assert layering.layer[u] != layering.layer[v]

    def test_per_layer_palette_bound(self):
        g = gen_chordal(300, seed=21, max_clique=6)
        k = 4
        layering = prune_layers(g, k)
        base = color_layers(layering, k)
        for i in range(1, layering.num_layers + 1):
            sub = g.subgraph(layering.layer_nodes(i))
            palette = {base[v] for v in sub.nodes}
            assert len(palette) <= bound(k, omega_oracle(sub))


class TestCorrectColors:
    def test_single_layer_unchanged(self):
        g = gen_interval(80, seed=5)
        k = 4
        layering = prune_layers(g, k)
        base = color_layers(layering, k)
        assert correct_colors(layering, base, k) == base

    def test_conflicts_resolved_locally(self):
        g = gen_chordal(400, seed=21, max_clique=6)
        k = 4
        layering = prune_layers(g, k)
        base = color_layers(layering, k)
        final = correct_colors(layering, base, k)
        assert verify_coloring(g, final).legal
        changed = {v for v in base if base[v] != final[v]}
        parent = correction_forest(layering, k)[0]
        for v in changed:
            assert parent[v] is not None

    def test_global_bound(self):
        g = gen_chordal(400, seed=21, max_clique=6)
        k = 4
        run = mvc_pipeline(g, 0.5)
        res = verify_coloring(g, run.final_colors)
        assert res.legal
        assert res.palette <= bound(k, run.omega)


class TestMvcCentralized:
    def test_complete_graph_exact(self):
        for m in (2, 5, 9):
            g = complete_graph(m)
            colors = mvc_centralized(g, 1.0)
            res = verify_coloring(g, colors)
            assert res.legal and res.palette == m

    def test_eps_too_small(self, k4):
        for eps in (0.3, 0.0, -0.5):
            with pytest.raises(EpsilonTooSmall):
                mvc_centralized(k4, eps)

    def test_eps_not_finite_or_two_and_above(self, k4):
        # k = ceil(2 / eps) is below 2 there, or not a number; the range is
        # checked before the graph, as the MIS entry points check theirs
        for g in (k4, cycle_graph(5), Graph()):
            for eps in (2.0, 7.5, math.inf, -math.inf, math.nan):
                with pytest.raises(BadEpsilon):
                    mvc_pipeline(g, eps)
        assert verify_coloring(k4, mvc_centralized(k4, 1.99)).legal

    def test_ratio_on_generated(self):
        g = gen_chordal(500, seed=21, max_clique=6)
        omega = omega_oracle(g)
        res = verify_coloring(g, mvc_centralized(g, 0.5))
        assert res.legal and res.palette <= 1.5 * omega

    def test_tight_eps_on_wide_instance(self):
        g = gen_chordal(800, seed=22, max_clique=20)
        omega = omega_oracle(g)
        assert omega >= 10
        res = verify_coloring(g, mvc_centralized(g, 0.2))
        assert res.legal and res.palette <= 1.2 * omega


class TestOmegaFromForest:
    @pytest.mark.parametrize("g", [
        gen_chordal(300, seed=3, max_clique=8),
        gen_interval(200, seed=4),
        dumbbell(3, 8, 6),
        Graph(),
    ], ids=["chordal", "interval", "dumbbell", "empty"])
    def test_one_mcs_per_run_and_oracle_omega(self, g, monkeypatch):
        omega = omega_oracle(g)
        eps = max(0.5, 2.0 / omega) if omega else 0.5
        real = graphs.mcs_order
        calls = []

        def counting(h):
            calls.append(len(h))
            return real(h)

        monkeypatch.setattr(graphs, "mcs_order", counting)
        run = mvc_pipeline(g, eps)
        assert calls == [len(g)]
        assert run.omega == omega

    def test_not_chordal_comes_first(self):
        for eps in (0.01, 0.0, -1.0):
            with pytest.raises(NotChordal):
                mvc_pipeline(cycle_graph(5), eps)

    def test_prune_needs_k_at_least_two(self):
        with pytest.raises(ValueError):
            prune_layers(gen_path(4), 1)

    def test_nonpositive_eps_on_empty_graph(self):
        # no omega to compare with; the library's error, as on one node
        for g in (Graph(), Graph(nodes=[1])):
            for eps in (0.0, -0.5):
                with pytest.raises(EpsilonTooSmall):
                    mvc_pipeline(g, eps)

    @pytest.mark.parametrize("n", [1, 3, 50])
    def test_edgeless_graph_takes_every_eps_below_two(self, n):
        # omega = 1 asks for no eps >= 2/omega: every strip is one node,
        # colored 1, and both variants agree
        g = Graph(nodes=range(1, n + 1))
        for eps in (0.01, 0.5, 1.0, 1.5, 1.99):
            run = mvc_pipeline(g, eps)
            assert run.omega == 1
            assert set(run.final_colors.values()) == {1}
            assert mvc_distributed_run(run)[0] == run.final_colors


class TestMvcDistributed:
    def test_spider_byte_equal(self):
        # trees have omega = 2, so the smallest admissible eps is 1.0
        g = gen_spider(3, 20)
        central = mvc_centralized(g, 1.0)
        dist, transcript = mvc_distributed(g, 1.0)
        assert coloring_to_text(central) == coloring_to_text(dist)
        assert transcript.complete

    def test_equivalence_on_generated(self):
        for seed in (2, 11):
            g = gen_chordal(150, seed=seed, max_clique=6)
            if omega_oracle(g) < 4:
                continue
            central = mvc_centralized(g, 0.5)
            dist, _ = mvc_distributed(g, 0.5)
            assert central == dist

    def test_rounds_grow_with_depth_not_size(self):
        # single peel iteration on path graphs regardless of n
        t1 = mvc_distributed(gen_path(60), 1.0)[1].rounds_elapsed
        t2 = mvc_distributed(gen_path(600), 1.0)[1].rounds_elapsed
        assert t1 == t2

    def test_transcript_deterministic(self):
        g = gen_chordal(100, seed=3, max_clique=5)
        a = mvc_distributed(g, 0.5)[1].serialize()
        b = mvc_distributed(g, 0.5)[1].serialize()
        assert a == b

    @pytest.mark.parametrize("serves", [False, True],
                             ids=["child", "child with levels"])
    def test_a_tampered_set_color_payload_diverges(self, monkeypatch, serves):
        """A correction child outputs the color its parent's Send carries,
        and the run compares the replayed colors with the pipeline's: one
        Send that carries another color, to a child with or without
        correction levels of its own, makes the run raise."""
        run = mvc_pipeline(gen_chordal(150, seed=2, max_clique=6), 0.5)
        levels = correction_forest(run.layering, run.k)[1]
        tampered = []

        def send(target, payload, latency, route):
            if not tampered and (target in levels) == serves:
                tampered.append(target)
                payload = ("set_color", payload[1] + 1)
            return localsim.Send(target, payload, latency, route)

        assert mvc_distributed_run(run)[0] == run.final_colors
        monkeypatch.setattr(mvc, "Send", send)
        with pytest.raises(AssertionError, match="distributed coloring diverged"):
            mvc_distributed_run(run)
        assert len(tampered) == 1


def check_local_decisions(g, k):
    """Every node's `local_peel_decision` in every layer it is residual in,
    on its radius-10k ball, against the layering and the correction
    forest's parents. Returns the number of decisions."""
    layering = prune_layers(g, k)
    parents = correction_forest(layering, k)[0]
    decisions = 0
    for i in range(1, layering.num_layers + 1):
        residual = {v for v, l in layering.layer.items() if l >= i}
        for v in sorted(residual):
            ballg = g.subgraph(bfs_distances(g, v, cutoff=10 * k))
            peel, parent = local_peel_decision(ballg, v, residual, k)
            assert peel == (layering.layer[v] == i)
            if peel:
                assert parent == parents[v]
            decisions += 1
    return decisions


def stars_on_a_path():
    """Two three-leaf stars whose centres, 1 and 5, end an 80-node path."""
    return dumbbell(3, 1, 79)


class TestLocalDecisions:
    def test_every_node_matches_pipeline(self):
        for seed in (0, 3):
            check_local_decisions(gen_chordal(60, seed=seed, max_clique=4), 2)

    def test_horizon_stops_match_pipeline(self):
        # nodes deep inside the path see no junction within their ball,
        # so their run stops at the horizon
        assert check_local_decisions(stars_on_a_path(), 2) == 90

    def test_node_beyond_both_junctions_peels_without_parent(self):
        k, g = 2, stars_on_a_path()
        near = bfs_distances(g, {1, 5}, cutoff=10 * k)
        v = min(g.nodes - near.keys())
        ballg = g.subgraph(bfs_distances(g, v, cutoff=10 * k))
        assert local_peel_decision(ballg, v, g.nodes, k) == (True, None)


def test_layer_components_match_trace_strips():
    g = gen_chordal(250, seed=13, max_clique=6)
    layering = prune_layers(g, 4)
    for i in range(1, layering.num_layers + 1):
        seen = set()
        for record in layering.peeled_paths[i]:
            for strip in strips_from_traces(record.cliques, set(record.members)):
                assert not (strip.nodes & seen)
                seen |= strip.nodes
        assert seen == set(layering.layer_nodes(i))


def graph_context(g, layering, record, layer):
    """A correction job's context derived from the graph, as the job once
    did: W' is the members' neighbours in later layers, and the strips are
    the members with W' over the path's cliques extended by its attach
    cliques."""
    w_set = set(record.members)
    wprime = set()
    for w in record.members:
        for u in g.adj[w]:
            if u not in w_set:
                assert layering.layer[u] != layer, "same-layer neighbor outside the path"
                if layering.layer[u] > layer:
                    wprime.add(u)
    ext_seq = [c for c in (record.attach_s, *record.cliques, record.attach_e)
               if c is not None]
    return wprime, strips_from_traces(ext_seq, w_set | wprime)


def check_record_context(g, k):
    """Every peeled record at k: each clique holds a member, W' is the
    non-members of its cliques, and the context strip is its own clique
    path. Returns the kinds of the records checked."""
    layering = prune_layers(g, k)
    kinds = []
    for i, records in layering.peeled_paths.items():
        for record in records:
            assert all(not c.isdisjoint(record.members) for c in record.cliques)
            wprime, strips = graph_context(g, layering, record, i)
            assert wprime == set().union(*record.cliques).difference(record.members)
            want = IntervalStrip(record.cliques)
            assert [(s.cliques, s.lo, s.hi) for s in strips] == [
                (want.cliques, want.lo, want.hi)]
            kinds.append(record.kind)
    return kinds


@given(chordal_graphs())
@settings(max_examples=150, deadline=None)
def test_correction_context_is_the_record_on_random_chordal_graphs(g):
    for k in (2, 4):
        check_record_context(g, k)


@internal_peel_graphs
def test_correction_context_is_the_record_on_internal_peels(make):
    g = make()
    for k in (2, 4):
        assert INTERNAL in check_record_context(g, k)


def check_wait_sets(g, k):
    """Every parent's levels run top first, each has children, and each
    level's wait set, read off the records, is the children's later-layer
    neighbours by the graph. Every attach side of a record keeps a child.
    Returns the number of levels checked."""
    layering = prune_layers(g, k)
    parent, levels, _ = correction_forest(layering, k)
    for per in levels.values():
        assert [i for i, _, _ in per] == sorted({i for i, _, _ in per}, reverse=True)
        for i, kids, wait in per:
            assert kids
            assert wait == graph_wait_set(g, layering, kids, i)
    for records in layering.peeled_paths.values():
        for record in records:
            for side in (record.attach_s, record.attach_e):
                assert side is None or max(side) in map(parent.get, record.members)
    return sum(map(len, levels.values()))


@given(chordal_graphs())
@settings(max_examples=150, deadline=None)
def test_wait_sets_are_the_graph_side_on_random_chordal_graphs(g):
    for k in (2, 4):
        check_wait_sets(g, k)


@internal_peel_graphs
def test_wait_sets_are_the_graph_side_on_internal_peels(make):
    g = make()
    for k in (2, 4):
        assert check_wait_sets(g, k)


@pipeline_graphs
def test_pipeline_builds_no_correction_forest(monkeypatch, make):
    """The centralized phase repairs record by record: with
    `correction_forest` and `_side_hops` made to raise, `mvc_pipeline`
    returns the same colors, and only the node program fails."""
    g = make()
    want = mvc_pipeline(g, 1.0).final_colors

    def refuse(*args, **kwargs):
        raise AssertionError("the correction forest was built")

    monkeypatch.setattr(mvc, "correction_forest", refuse)
    monkeypatch.setattr(mvc, "_side_hops", refuse)
    run = mvc_pipeline(g, 1.0)
    assert run.final_colors == want
    with pytest.raises(AssertionError, match="correction forest was built"):
        mvc_distributed_run(run)


def check_conflict_tests(g, k):
    """Every job of the repair at k, run on the colors it is given, is
    conflicted iff a member shares its color with a later-layer neighbour in
    the graph. Returns the number of conflicted jobs."""
    layering = prune_layers(g, k)
    base = color_layers(layering, k)
    out = dict(base)
    conflicted = 0
    for i in range(layering.num_layers - 1, 0, -1):
        for record in layering.peeled_paths[i]:
            job = build_correction_job(record, out, k)
            assert job.conflicted == graph_conflicted(g, layering, record.members, i, out)
            conflicted += job.conflicted
            out.update(job.new_colors)
    assert out == correct_colors(layering, base, k)
    return conflicted


@given(chordal_graphs())
@settings(max_examples=150, deadline=None)
def test_conflict_tests_are_the_graph_side_on_random_chordal_graphs(g):
    for k in (2, 4):
        check_conflict_tests(g, k)


@internal_peel_graphs
def test_conflict_tests_are_the_graph_side_on_internal_peels(make):
    g = make()
    assert sum(check_conflict_tests(g, k) for k in (2, 4))


def test_a_step_that_peels_nothing_raises_non_termination(monkeypatch):
    """A nonempty forest has a leaf, so each step peels a pendant path or a
    path component. A peel whose first step selects nothing raises instead
    of looping."""
    real = mvc.peel

    def stalled(g, select):
        for step in real(g, select):
            yield replace(step, paths=())

    monkeypatch.setattr(mvc, "peel", stalled)
    with pytest.raises(NonTermination, match="no peelable path"):
        prune_layers(gen_spider(3, 6), 4)


def test_conflict_nodes_off_the_end_cliques_raise():
    """W' lies in the attach cliques, which meet the path only in its end
    cliques (`PeelPath`). A record whose start attach clique also claims a
    middle node, taken from the members and given a member's color, fails
    that check."""
    run = mvc_pipeline(dumbbell(3, 6, 20), 1.0)
    record = next(p for records in run.layering.peeled_paths.values()
                  for p in records if p.kind == INTERNAL)
    ends = record.cliques[0] | record.cliques[-1]
    x = next(v for v in record.members if v not in ends)
    y = min(set().union(*(c for c in record.cliques if x in c)) - ends - {x})
    mutant = replace(record, members=tuple(v for v in record.members if v != x),
                     attach_s=record.attach_s | {x})
    colors = {**run.final_colors, x: run.final_colors[y]}
    assert not build_correction_job(record, run.final_colors, run.k).conflicted
    with pytest.raises(AssertionError, match="conflict nodes outside the end cliques"):
        build_correction_job(mutant, colors, run.k)


def test_debug_check_catches_a_far_recoloring(monkeypatch):
    """A job that recolors every member, some far beyond k + 4 hops of W'
    on a long spider leg: only the debug check in `mvc_pipeline`, which
    holds the graph, notices."""
    g = dumbbell(3, 20, 20)
    real = mvc.build_correction_job

    def shifted(record, colors, k):
        job = real(record, colors, k)
        return CorrectionJob(True, {v: c + 1 for v, c in job.new_colors.items()},
                             set(job.new_colors))

    monkeypatch.setattr(mvc, "build_correction_job", shifted)
    monkeypatch.setattr(errors, "_DEBUG_INVARIANTS", False)
    mvc_pipeline(g, 1.0)
    monkeypatch.setattr(errors, "_DEBUG_INVARIANTS", True)
    with pytest.raises(AssertionError, match="beyond distance k \\+ 4 of conflicts"):
        mvc_pipeline(g, 1.0)


FROZEN_CAP_CONSTANT = 4  # calibrated once on small instances


def test_quiescence_under_frozen_cap():
    for n, seed in ((64, 1), (128, 0), (256, 2)):
        g = gen_chordal(n, seed=seed, max_clique=6)
        if omega_oracle(g) < 4:
            continue
        eps = 0.5
        cap = 10 * math.ceil((1 / eps) * math.ceil(math.log2(n))) * FROZEN_CAP_CONSTANT
        _, transcript = mvc_distributed(g, eps, round_cap=cap)
        assert transcript.complete


def test_debug_invariant_sweeps_run_clean():
    from chordalg import set_debug_invariants
    from chordalg.mis import mis_chordal_run
    set_debug_invariants(True)
    try:
        g = gen_chordal(200, seed=21, max_clique=6)
        run = mvc_pipeline(g, 0.5)
        assert verify_coloring(g, run.final_colors).legal
        mis_chordal_run(g, 0.4)
    finally:
        set_debug_invariants(False)
