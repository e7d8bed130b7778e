import dataclasses
import hashlib
import inspect
import math
import tracemalloc
import types

import pytest
from hypothesis import given, settings

from chordalg import (
    BadEpsilon, Graph, alpha_oracle, brute_alpha,
    gen_chordal, gen_interval, gen_path, mis_chordal_centralized,
    mis_chordal_distributed, mis_interval_distributed, verify_absorption,
    verify_is,
)
import chordalg
import chordalg.mis as mis_module
from chordalg import intervals
from chordalg.cliqueforest import (
    PENDANT, IntervalStrip, PeelPath, clique_forest, peel, strips_from_traces,
)
from chordalg.graphs import bfs_distances
from chordalg.intervals import _component_strips
from chordalg.mis import MisParams, absorbing_sweep, mis_chordal_run

from conftest import (
    LONG_PATH_CASES, chordal_corpus, chordal_graphs, complete_graph, dumbbell,
    graph_outside, internal_peel_graphs, long_paths_generator,
)
from reference_absorbing import reference_absorbing


def blocked_set(state, g, i):
    """Union over r <= i of the closed neighborhoods of I_r inside U_{i+1}."""
    out = set()
    ui1 = state.residuals[i] if i < len(state.residuals) else set()
    for chosen in state.per_iteration[:i]:
        for v in chosen:
            out |= (g.closed_neighborhood(v) & ui1) | ({v} & ui1)
    return out


class TestMisParams:
    def test_formulas(self):
        p = MisParams.from_eps(0.4)
        assert p.d == 160
        assert p.k == math.ceil(math.log2(160 / 0.4) + 2) == 11

    def test_d_at_least_128(self):
        for eps in (0.49, 0.3, 0.1):
            assert MisParams.from_eps(eps).d >= 128
            assert MisParams.from_eps(eps).k >= 2

    def test_eps_range(self):
        for bad in (0.0, 0.5, 0.9, -0.1, math.nan, math.inf):
            with pytest.raises(BadEpsilon):
                MisParams.from_eps(bad)

    def test_eps_whose_parameters_or_rounds_overflow(self):
        # at 1e-300 the iteration count is not a finite float; at 1e-150 the
        # parameters exist, but the replay would charge more rounds than a
        # transcript can index; the interval replay's k overflows likewise
        for eps in (1e-300, 5e-324):
            with pytest.raises(BadEpsilon, match="parameters overflow"):
                MisParams.from_eps(eps)
        with pytest.raises(BadEpsilon, match="replay charges more than"):
            mis_chordal_distributed(gen_path(5), 1e-150)
        assert verify_is(gen_path(5), mis_chordal_centralized(gen_path(5), 1e-150))
        with pytest.raises(BadEpsilon, match="replay charges more than"):
            mis_interval_distributed(gen_path(5), 1e-300)


def path_cliques(n):
    """The clique path {1,2}, {2,3}, ..., {n-1,n} of gen_path(n)."""
    return [frozenset({v, v + 1}) for v in range(1, n)]


def anchored_sweep(g, cliques, anchor, at_start=False):
    """`absorbing_sweep` on the pendant record of `cliques` (given from the
    end away from `anchor`), attached to `anchor` at its end or, with
    `at_start`, at its start, for the component of all its members."""
    anchor = frozenset(anchor)
    members = tuple(sorted(set().union(*cliques) - anchor))
    cliques = tuple(cliques[::-1] if at_start else cliques)
    ends = (anchor, None) if at_start else (None, anchor)
    record = PeelPath(tuple(range(len(cliques))), cliques, PENDANT, *ends, members)
    (strip,) = strips_from_traces(cliques, members)
    return absorbing_sweep(g, record, strip, anchor)


class TestAbsorbingSweep:
    @pytest.mark.parametrize("at_start", [False, True])
    def test_path_with_anchor_beyond_the_end(self, at_start):
        g = gen_path(5)
        chosen = anchored_sweep(g, path_cliques(4), {4, 5}, at_start)
        assert chosen == {1, 3}
        # absorption, brute-forced: closed neighborhood of the chosen set
        region = set()
        for v in chosen:
            region |= g.closed_neighborhood(v)
        assert len(chosen) == brute_alpha(g.subgraph(region))

    @pytest.mark.parametrize("at_start", [False, True])
    def test_single_clique_takes_furthest_node(self, at_start):
        # one strip clique {1, 2}; node 2 meets more of the anchor
        g = Graph([(1, 2), (1, 5), (2, 5), (2, 6), (5, 6), (5, 7), (6, 7)])
        cliques = [frozenset({1, 2, 5}), frozenset({2, 5, 6})]
        assert anchored_sweep(g, cliques, {5, 6, 7}, at_start) == {1}

    @pytest.mark.parametrize("at_start", [False, True])
    def test_anchor_meeting_no_member_is_rejected(self, at_start):
        # {5, 6} is no neighbour of the members 1, 2, 3
        g = gen_path(6)
        with pytest.raises(AssertionError, match="not one path ending at the anchor"):
            anchored_sweep(g, path_cliques(3), {5, 6}, at_start)

    def test_without_anchor_returns_elimination_greedy(self):
        # an unanchored component takes its strip's earliest-right-end sweep,
        # the greedy along the strip's elimination order
        g = gen_path(7)
        run = mis_chordal_run(g, 0.4)
        [record] = run.state.absorption
        assert record.anchor is None
        assert record.chosen == run.chosen == {1, 3, 5, 7}
        assert len(run.chosen) == len(alpha_oracle(g))


class TestMisChordalCentralized:
    def test_interval_instance(self):
        g = gen_interval(150, seed=4)
        chosen = mis_chordal_centralized(g, 0.4)
        assert verify_is(g, chosen)
        assert 1.4 * len(chosen) >= len(alpha_oracle(g))

    def test_long_path(self):
        g = gen_path(1000)
        chosen = mis_chordal_centralized(g, 0.4)
        assert verify_is(g, chosen)
        assert len(chosen) >= 358

    def test_generated_instances(self):
        for seed in (31, 5):
            g = gen_chordal(600, seed=seed, max_clique=6)
            chosen = mis_chordal_centralized(g, 0.4)
            assert verify_is(g, chosen)
            assert 1.4 * len(chosen) >= len(alpha_oracle(g))

    def test_eps_validation(self):
        with pytest.raises(BadEpsilon):
            mis_chordal_centralized(gen_path(5), 0.7)

    def test_exactly_k_iterations_of_state(self):
        g = gen_chordal(200, seed=2, max_clique=5)
        run = mis_chordal_run(g, 0.4)
        assert len(run.state.per_iteration) == run.params.k
        assert len(run.state.residuals) == run.params.k + 1


class TestPeelStateChecks:
    # alpha of the residual after the last iteration, over alpha of the input
    def test_residual_ratio_zero_on_interval(self):
        g = gen_interval(100, seed=7)
        run = mis_chordal_run(g, 0.4)
        assert run.state.residuals[-1] == set()

    def test_residual_ratio_bound(self):
        for seed in (31, 8):
            g = gen_chordal(500, seed=seed, max_clique=6)
            alpha = len(alpha_oracle(g))
            for eps in (0.4, 0.25):
                leftover = mis_chordal_run(g, eps).state.residuals[-1]
                assert len(alpha_oracle(g.subgraph(leftover))) / alpha <= eps / 2

    def test_absorption_equation(self):
        for seed in (31, 3):
            g = gen_chordal(400, seed=seed, max_clique=6)
            run = mis_chordal_run(g, 0.4)
            assert verify_absorption(g, run)

    def test_junction_count_halves(self):
        g = gen_chordal(800, seed=31, max_clique=6)
        run = mis_chordal_run(g, 0.4)
        a = run.state.deg3_counts
        for i, a_i in enumerate(a):
            assert a_i * (2 ** i) <= a[0] * 2 or a_i == 0
        for i in range(1, len(a)):
            if a[i]:
                assert a[i] < a[i - 1] / 2 + 1

    def test_anchor_records_have_small_diameter(self):
        g = gen_chordal(500, seed=31, max_clique=6)
        run = mis_chordal_run(g, 0.4)
        d = run.params.d
        for rec in run.state.absorption:
            if rec.anchor is None:
                continue
            comp = sorted(rec.component)
            sub = g.subgraph(comp)
            ecc = max(max(bfs_distances(sub, u).values()) for u in comp)
            assert ecc <= 2 * (d - 1)

    def test_blocked_set_accessor(self):
        g = gen_chordal(200, seed=2, max_clique=5)
        run = mis_chordal_run(g, 0.4)
        blocked = blocked_set(run.state, g, run.params.k)
        chosen_members = set().union(set(), *run.state.per_iteration[:-1])
        assert all(v in blocked or v not in run.state.residuals[run.params.k]
                   for v in chosen_members)


class TestMisChordalDistributed:
    def test_single_clique(self):
        g = complete_graph(6)
        members, transcript = mis_chordal_distributed(g, 0.4)
        assert len(members) == 1
        assert transcript.complete

    def test_equals_centralized(self):
        g = gen_interval(120, seed=9)
        members, _ = mis_chordal_distributed(g, 0.4)
        assert members == mis_chordal_centralized(g, 0.4)

    def test_round_profile_flat_in_n(self):
        r = []
        for n in (60, 240):
            _, transcript = mis_chordal_distributed(gen_chordal(n, seed=1, max_clique=5), 0.4)
            r.append(transcript.rounds_elapsed)
        assert abs(r[1] - r[0]) <= 0.1 * r[0]

    def test_memory_grows_with_the_traffic_not_the_rounds(self):
        """At eps = 0.002 the replay charges 1,728,318 rounds, and 27 of them
        carry a service request: the transcript stores those 27 alone."""
        g = gen_chordal(40, 1, 6)
        tracemalloc.start()
        try:
            _, transcript = mis_chordal_distributed(g, 0.002)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert transcript.rounds_elapsed == 1_728_318
        assert len(transcript.traffic) == 27

    def test_a_tampered_replay_output_diverges(self, monkeypatch):
        """The distributed set is read off the replay's outputs and compared
        with the centralized one: one flipped output makes the run raise."""
        g = gen_chordal(150, seed=2, max_clique=6)
        assert mis_chordal_distributed(g, 0.4)[0] == mis_chordal_centralized(g, 0.4)
        replay = mis_module.replay

        def tampered(h, outputs, *args):
            v = min(outputs)
            return replay(h, {**outputs, v: not outputs[v]}, *args)

        monkeypatch.setattr(mis_module, "replay", tampered)
        with pytest.raises(AssertionError, match="distributed set diverged"):
            mis_chordal_distributed(g, 0.4)


class TestMisIntervalDistributed:
    def test_equals_centralized_and_finishes(self):
        from chordalg import mis_interval
        g = gen_interval(150, seed=4)
        members, transcript = mis_interval_distributed(g, 0.4)
        assert members == mis_interval(g, 0.4)
        assert transcript.complete

    def test_a_tampered_replay_output_diverges(self, monkeypatch):
        """The replayed set is compared with the centralized one: one
        flipped output makes the run raise."""
        g = gen_interval(150, seed=4)
        mis_interval_distributed(g, 0.4)
        replay = mis_module.replay

        def tampered(h, outputs, *args):
            v = min(outputs)
            return replay(h, {**outputs, v: not outputs[v]}, *args)

        monkeypatch.setattr(mis_module, "replay", tampered)
        with pytest.raises(AssertionError, match="distributed set diverged"):
            mis_interval_distributed(g, 0.4)


def complete_binary_tree(depth):
    return Graph([(v // 2, v) for v in range(2, 2 ** (depth + 1))])


def test_last_iteration_exact_branch():
    g = complete_binary_tree(12)
    run = mis_chordal_run(g, 0.4)
    k = run.params.k
    assert any(run.state.branch[v] == "exact"
               for v, i in run.state.layer.items() if i == k)
    assert verify_is(g, run.chosen)
    assert len(alpha_oracle(g)) <= 1.4 * len(run.chosen)


def binary_trees_joined(depth, bridge):
    """Two `complete_binary_tree(depth)`s whose roots are joined by a path
    of `bridge` edges; returns the graph and the path's inner nodes."""
    g = complete_binary_tree(depth)
    shift = 2 ** (depth + 1)
    for u, v in list(g.edges()):
        g.add_edge(u + shift, v + shift)
    inner = range(3 * shift, 3 * shift + bridge - 1)
    for u, v in zip([1, *inner], [*inner, 1 + shift]):
        g.add_edge(u, v)
    return g, set(inner)


@pytest.mark.parametrize("bridge, peeled", [(300, False), (320, True)])
def test_last_iteration_peels_an_internal_path_by_its_alpha(bridge, peeled):
    """At eps = 0.4 (d = 160, 11 iterations) the trees of depth 12 keep
    both roots' junctions to the last iteration, so the bridge stays an
    internal path of diameter below 2d + 3 until then. There it is peeled
    iff its strip's alpha reaches d: 160 on 320 edges, 150 on 300."""
    g, inner = binary_trees_joined(12, bridge)
    run = mis_chordal_run(g, 0.4)
    layers = [run.state.layer.get(v) for v in inner]
    assert set(layers) <= {run.params.k, None}
    # the path's end nodes may lie in its attach cliques, and so stay
    assert layers.count(run.params.k) >= (bridge - 3 if peeled else 0)
    assert layers.count(None) >= (0 if peeled else len(inner))


def rebuilt_anchored_mis(g, component, anchor):
    """The anchored sweep on a clique path rebuilt from the induced subgraph
    of component plus anchor, flipped so the anchor clique comes last."""
    (strip,) = _component_strips(g.subgraph(set(component) | anchor))
    cliques = list(strip.cliques)
    if cliques[0] == anchor:
        cliques.reverse()
    assert cliques[-1] == anchor
    return IntervalStrip(cliques).greedy_mis(allowed=set(component))


def test_anchored_mis_matches_rebuilt_clique_path(monkeypatch):
    calls = []

    def spy(g, record, strip, anchor):
        chosen = absorbing_sweep(g, record, strip, anchor)
        calls.append((strip.nodes, anchor, chosen))
        return chosen

    monkeypatch.setattr(mis_module, "absorbing_sweep", spy)
    graphs = [dumbbell(3, 5, 400)]
    graphs += [gen_chordal(600, seed=seed, max_clique=6) for seed in range(1, 6)]
    for g in graphs:
        calls.clear()
        mis_chordal_run(g, 0.4)
        assert calls
        for component, anchor, chosen in calls:
            assert chosen == rebuilt_anchored_mis(g, component, anchor)
            assert len(chosen) == len(alpha_oracle(g.subgraph(component)))


def compare_with_reference(g, eps_values=(0.4, 0.25)):
    """Runs `mis_chordal_run` at each eps, checking every anchored sweep
    against the reference that cuts the anchored strip anew. Returns the
    number of components compared."""
    compared = 0

    def spy(g, record, strip, anchor):
        nonlocal compared
        chosen = absorbing_sweep(g, record, strip, anchor)
        assert chosen == reference_absorbing(record, strip, anchor)
        compared += 1
        return chosen

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mis_module, "absorbing_sweep", spy)
        for eps in eps_values:
            mis_chordal_run(g, eps)
    return compared


@pytest.mark.parametrize("eps,n,mc", [(0.4, 512, 8), (0.4, 2048, 20), (0.25, 512, 20)])
def test_absorbing_sweep_matches_reference_on_acceptance_corpus_sample(eps, n, mc):
    (g, _), = chordal_corpus(eps, n, mc, 1)
    assert compare_with_reference(g, (eps,))


@pytest.mark.parametrize("seed,mc", LONG_PATH_CASES)
def test_absorbing_sweep_matches_reference_on_long_paths(seed, mc):
    assert compare_with_reference(long_paths_generator()(600, seed, max_clique=mc))


def test_absorbing_sweep_matches_reference_on_random_chordal_graphs():
    compared = []

    # derandomized, so that the count below does not hang on the draw
    @given(chordal_graphs())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def check(g):
        compared.append(compare_with_reference(g))

    check()
    assert sum(compared)


def test_wrong_anchor_in_a_run_is_rejected(monkeypatch):
    # an anchor that meets no node of its component
    monkeypatch.setattr(mis_module, "_outside_anchor",
                        lambda record, component: frozenset({-1}))
    with pytest.raises(AssertionError, match="not one path ending at the anchor"):
        mis_chordal_run(gen_path(12), 0.4)


def test_outside_neighbours_in_both_or_beyond_an_attach_clique_are_rejected():
    # a record whose outside neighbours meet both attach cliques, or lie
    # partly outside the one they meet, breaks the attach-clique rule
    found = []
    real = mis_module._outside_anchor

    def spy(record, component):
        anchor = real(record, component)
        if anchor is not None:
            found.append((record, component, anchor))
        return anchor

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mis_module, "_outside_anchor", spy)
        mis_chordal_run(gen_chordal(120, 0, 5), 0.4)
    assert found
    record, component, anchor = found[0]
    outside = set().union(*(c for c in record.cliques if not c.isdisjoint(component)))
    outside.difference_update(record.members)
    both = dataclasses.replace(record, attach_s=anchor, attach_e=anchor)
    part = dataclasses.replace(record, attach_s=anchor - {min(outside)}, attach_e=None)
    for broken in (both, part):
        with pytest.raises(AssertionError, match="not confined to one attach clique"):
            real(broken, component)


def test_a_greedy_pick_short_of_alpha_violates_the_absorption_equation(monkeypatch):
    # a greedy sweep that drops its first pick: on the path 1..12 the one
    # small component keeps {3, 5, 7, 9, 11}, whose closed neighbourhood
    # {2, ..., 12} has alpha 6
    real = IntervalStrip.greedy_mis
    monkeypatch.setattr(IntervalStrip, "greedy_mis",
                        lambda strip, allowed=None: set(sorted(real(strip, allowed))[1:]))
    g = gen_path(12)
    run = mis_chordal_run(g, 0.4)  # the check is off by default
    assert [set(rec.chosen) for rec in run.state.absorption] == [{3, 5, 7, 9, 11}]
    assert not verify_absorption(g, run)
    chordalg.set_debug_invariants(True)
    try:
        with pytest.raises(AssertionError, match="absorption equation violated"):
            mis_chordal_run(g, 0.4)
    finally:
        chordalg.set_debug_invariants(False)


def test_component_of_d_nodes_reads_its_anchor_after_its_sweep():
    """A component of at least d nodes is swept before its anchor is read:
    on this long_paths instance (the benchmark's held-out seed 9) reading
    the anchor first raises, as one of them has outside neighbours in both
    attach cliques. The set is the one recorded before the sweep was read
    off the component's strip."""
    g = long_paths_generator()(4096, 9003, max_clique=8)
    chosen = sorted(mis_chordal_run(g, 0.4).chosen)
    assert len(chosen) == 876
    assert hashlib.sha256(repr(chosen).encode()).hexdigest() == (
        "cbc9016686c8e37b5708c8a6844a7193df1141d4b0640d3e2cdbd9d19a60c66e")


def test_mis_run_builds_one_forest_and_no_clique_path(monkeypatch):
    built = []
    cuts = []
    records = []

    def counting_forest(g):
        built.append(len(g))
        return clique_forest(g)

    def no_clique_path(h):
        raise AssertionError("clique path rebuilt from a subgraph")

    def recording_peel(g, select):
        for step in peel(g, select):
            records.extend(step.paths)
            yield step

    def counting_cut(clique_seq, keep):
        cuts.append(clique_seq)
        return strips_from_traces(clique_seq, keep)

    for module in vars(chordalg).values():
        if not isinstance(module, types.ModuleType):
            continue
        if getattr(module, "clique_forest", None) is clique_forest:
            monkeypatch.setattr(module, "clique_forest", counting_forest)
    monkeypatch.setattr(intervals, "_component_strips", no_clique_path)
    monkeypatch.setattr(mis_module, "peel", recording_peel)
    monkeypatch.setattr(mis_module, "strips_from_traces", counting_cut)
    run = mis_chordal_run(dumbbell(3, 5, 400), 0.4)
    assert len(built) == 1
    assert any(rec.anchor is not None for rec in run.state.absorption)
    # each cut is of one record's cliques, none with an attach clique, and
    # no record is cut twice
    record_cliques = {id(p.cliques) for p in records}
    assert cuts and all(id(seq) in record_cliques for seq in cuts)
    assert len({id(seq) for seq in cuts}) == len(cuts)
    # the re-cut sweep and the cut's direction-keeping flag are gone
    assert not hasattr(mis_module, "absorbing_mis")
    assert list(inspect.signature(strips_from_traces).parameters) == ["clique_seq", "keep"]


def check_outside_sets(g):
    """Every small-component anchor of `mis_chordal_run` at eps = 0.4 and
    0.2: the non-members of the record cliques that meet the component are
    its neighbours in the step's residual outside the record, and the anchor
    holds them. Returns the number of anchors found."""
    anchors = 0
    real = mis_module._outside_anchor
    for eps in (0.4, 0.2):
        calls = []

        def spy(record, component):
            calls.append((record, set(component), real(record, component)))
            return calls[-1][2]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mis_module, "_outside_anchor", spy)
            state = mis_chordal_run(g, eps).state
        for record, component, anchor in calls:
            residual = state.residuals[state.layer[min(component)] - 1]
            outside = graph_outside(g, residual, record.members, component)
            assert outside == set().union(*(
                c for c in record.cliques if not c.isdisjoint(component)
            )).difference(record.members)
            assert (anchor is None) == (not outside)
            if anchor is not None:
                assert anchor in (record.attach_s, record.attach_e) and outside <= anchor
                anchors += 1
    return anchors


@given(chordal_graphs())
@settings(max_examples=150, deadline=None)
def test_outside_sets_are_the_graph_side_on_random_chordal_graphs(g):
    check_outside_sets(g)


@internal_peel_graphs
def test_outside_sets_are_the_graph_side_on_internal_peels(make):
    assert check_outside_sets(make())


def test_outside_sets_are_the_graph_side_on_seeded_chordal_graphs():
    # a run of the hypothesis test above may draw no anchor; these hold 262
    assert sum(check_outside_sets(gen_chordal(120, seed, 5)) for seed in range(4)) > 0
