import math
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, List
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chordalg
from chordalg import (
    BadEpsilon, Graph, Infeasible, NotInterval, NotProperInterval,
    alpha_oracle, color_interval, distance_k_mis, errors, extend_coloring,
    gen_chordal, gen_interval, gen_path, gen_spider, graphs, intervals,
    mis_chordal_centralized, mis_chordal_distributed, mis_interval,
    mis_interval_distributed, mvc, omega_oracle, verify_coloring, verify_is,
)
from chordalg.cliqueforest import (
    IntervalStrip, classify_paths, clique_forest, clique_word, strips_from_traces,
    walk_path,
)
from chordalg.graphs import bfs_distances
from chordalg.intervals import (
    _arrange_cliques, _component_strips, _distance_mis_component, _may_open,
    _mis_component, _mis_interval_parts, _select_boundaries, color_budget,
    greedy_fill, mis_eps_to_k, strip_dominated, strip_is_proper,
)
from chordalg.mvc import _frontier

from conftest import (
    LONG_PATH_CASES, chordal_corpus, complete_graph, intersection_graph,
    interval_graphs, interval_models, long_paths_generator,
    proper_interval_graphs, small_graphs,
)
from reference_color_strip import reference_color_strip
from reference_sweep import reference_sweep


def overlapping_blocks(width, count, overlap):
    """Chain of K_width cliques, consecutive ones sharing `overlap` nodes."""
    g = Graph()
    step = width - overlap
    for j in range(count):
        base = j * step
        members = list(range(base + 1, base + width + 1))
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                g.add_edge(a, b)
    return g


class TestCliquePath:
    def test_path_graph(self):
        strips = _component_strips(gen_path(5))
        assert len(strips) == 1
        assert len(strips[0].cliques) == 4

    def test_single_clique(self, k4):
        strips = _component_strips(k4)
        assert len(strips) == 1 and len(strips[0].cliques) == 1

    def test_components_match_graph_components(self):
        g = gen_interval(40, seed=6)
        strips = _component_strips(g)
        assert len(strips) == len(g.connected_components())
        nodes = set()
        for strip in strips:
            nodes |= strip.nodes
        assert nodes == g.nodes

    def test_star_of_cliques_still_linearizes(self):
        # equal-weight ties branch the canonical forest; the arrangement
        # search must still find a clique path for this interval graph
        star = Graph([(1, v) for v in range(2, 7)])
        strips = _component_strips(star)
        assert len(strips) == 1
        assert len(strips[0].cliques) == 5

    def test_subdivided_claw_is_not_interval(self):
        with pytest.raises(NotInterval):
            _component_strips(gen_spider(3, 2))
        with pytest.raises(NotInterval):
            _component_strips(gen_spider(3, 3))

    def test_every_node_range_is_contiguous(self):
        for seed in (1, 8):
            for strip in _component_strips(gen_interval(50, seed=seed)):
                # IntervalStrip raises if some node's cliques are scattered
                IntervalStrip(list(strip.cliques))


class TestExtendColoring:
    def strip_of(self, g):
        return _component_strips(g)[0]

    def test_path12_with_pinned_matching_endpoints(self):
        strip = self.strip_of(gen_path(12))
        colors = extend_coloring(strip, 3, {1: 1, 12: 1})
        assert verify_coloring(gen_path(12), colors).legal
        assert colors[1] == 1 and colors[12] == 1
        assert max(colors.values()) <= 3

    def test_budget_below_chromatic_is_infeasible(self):
        g = overlapping_blocks(3, 4, 1)
        strip = self.strip_of(g)
        with pytest.raises(Infeasible):
            extend_coloring(strip, 2, {})

    def test_wide_blocks_with_greedy_endpoints(self):
        g = overlapping_blocks(4, 12, 2)
        strip = self.strip_of(g)
        first, last = strip.cliques[0], strip.cliques[-1]
        fixed = {}
        for clique in (first, last):
            for c, v in enumerate(sorted(clique), start=1):
                fixed[v] = c
        ends = bfs_distances(g, first)
        assert min(ends[v] for v in last) >= 8
        budget = 6 * 4 // 5 + 1  # floor((1 + 1/5) * 4) + 1 = 5
        colors = extend_coloring(strip, budget, fixed)
        assert verify_coloring(g, colors).legal
        assert max(colors.values()) <= budget

    def test_illegal_fixed_rejected(self):
        strip = self.strip_of(gen_path(3))
        with pytest.raises(Infeasible):
            extend_coloring(strip, 3, {1: 1, 2: 1})

    def test_search_cap_raises_infeasible(self, monkeypatch):
        strip = self.strip_of(gen_path(6))
        monkeypatch.setattr(intervals, "EXTENSION_CAP", 0)
        with pytest.raises(Infeasible):
            extend_coloring(strip, 3, {})
        # the cap is checked before each step: six straight expansions
        # pass a cap of 5 and stop at a cap of 4
        monkeypatch.setattr(intervals, "EXTENSION_CAP", 5)
        assert len(extend_coloring(strip, 3, {})) == 6
        monkeypatch.setattr(intervals, "EXTENSION_CAP", 4)
        with pytest.raises(Infeasible, match="search cap exceeded"):
            extend_coloring(strip, 3, {})

    def test_greedy_fill_respects_fixed(self):
        strip = self.strip_of(gen_path(6))
        colors = greedy_fill(strip, {1: 2})
        assert verify_coloring(gen_path(6), colors).legal
        assert colors[1] == 2


def reference_extend_coloring(strip, budget, fixed, log=None):
    """The counter-based `extend_coloring` the frontier sweep replaced, kept
    to compare against. The search, finished or not, appends (free nodes,
    expansions, states pruned as dead) to `log`."""
    order = strip.sorted_nodes()
    lo, hi = strip.lo, strip.hi
    used = [dict() for _ in strip.cliques]  # per clique: color -> count

    def place(v, c):
        for j in range(lo[v], hi[v] + 1):
            used[j][c] = used[j].get(c, 0) + 1

    def unplace(v, c):
        for j in range(lo[v], hi[v] + 1):
            if used[j][c] == 1:
                del used[j][c]
            else:
                used[j][c] -= 1

    def blocked(v):
        out = set()
        for j in range(lo[v], hi[v] + 1):
            out.update(used[j])
        return out

    for v in sorted(fixed):
        c = fixed[v]
        if not 1 <= c <= budget:
            raise Infeasible("fixed color %d outside budget %d" % (c, budget))
        if c in blocked(v):
            raise Infeasible("fixed coloring is not legal")
        place(v, c)

    free = [v for v in order if v not in fixed]
    frontier_at = []
    active: List[int] = []
    for v in free:
        active = [u for u in active if hi[u] >= lo[v]]
        frontier_at.append(tuple(active))
        active.append(v)
    named = set(fixed.values())
    assign = {}

    def state_key(i):
        fresh: Dict[int, int] = {}
        parts = []
        for u in frontier_at[i]:
            c = assign[u]
            parts.append((u, -c) if c in named else (u, fresh.setdefault(c, len(fresh))))
        return (i, tuple(parts))

    dead = set()
    expansions = pruned = 0
    i = 0
    last_color = [0] * len(free)
    try:
        while i < len(free):
            if expansions > intervals.EXTENSION_CAP:
                raise Infeasible("search cap exceeded (budget %d)" % budget)
            v = free[i]
            if last_color[i] == 0 and state_key(i) in dead:
                nxt = None
                pruned += 1
            else:
                taken = blocked(v)
                nxt = None
                for c in range(last_color[i] + 1, budget + 1):
                    if c not in taken:
                        nxt = c
                        break
            if nxt is None:
                if last_color[i] == 0:
                    dead.add(state_key(i))
                last_color[i] = 0
                if i == 0:
                    raise Infeasible("no extension within budget %d" % budget)
                i -= 1
                unplace(free[i], assign.pop(free[i]))
                continue
            expansions += 1
            last_color[i] = nxt
            assign[v] = nxt
            place(v, nxt)
            i += 1
    finally:
        if log is not None:
            log.append((len(free), expansions, pruned))
    out = dict(fixed)
    out.update(assign)
    return out


def reference_greedy_fill(strip, fixed):
    """The counter-based `greedy_fill` the frontier sweep replaced."""
    colors = dict(fixed)
    used = [dict() for _ in strip.cliques]
    for v, c in colors.items():
        for j in range(strip.lo[v], strip.hi[v] + 1):
            used[j][c] = True
    for v in [v for v in strip.sorted_nodes() if v not in colors]:
        taken = set()
        for j in range(strip.lo[v], strip.hi[v] + 1):
            taken.update(used[j])
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
        for j in range(strip.lo[v], strip.hi[v] + 1):
            used[j][c] = True
    return colors


@lru_cache(maxsize=None)
def source_strips(family, seed):
    """Component strips of a small `gen_interval` graph, sparse or dense
    (where extensions backtrack more often), or the forest path strips of a
    small long-path graph."""
    if family == "interval":
        return tuple(_component_strips(gen_interval(60, seed)))
    if family == "dense_interval":
        return tuple(_component_strips(gen_interval(60, seed, span=60, max_len=12)))
    g = long_paths_generator()(150, seed, max_clique=4 + seed % 4)
    return tuple(IntervalStrip(p.cliques) for p in classify_paths(clique_forest(g)))


def extension_case(rng):
    """A strip cut from a source strip, a budget from omega to omega + 3,
    colors for its end cliques and a search cap, drawn with `rng`. Each end
    gets a random order of 1..budget (a node in both ends keeps its first
    color), then, one time in four, one node is recolored anywhere in
    0..budget + 1, so out-of-budget and illegal colorings are both drawn.
    Half the caps are small enough to stop searches early, so cap errors
    are compared too."""
    family = rng.choice(["interval", "dense_interval", "long_path"])
    strips = source_strips(family, rng.randrange(12))
    whole = rng.choice(strips).cliques
    a = rng.randrange(len(whole))
    b = min(len(whole) - 1, a + rng.choice([0, 1, 2, 3, 4, 6, 9, 14]))
    strip = IntervalStrip(whole[a:b + 1])
    budget = max(len(c) for c in strip.cliques) + rng.choice([0, 0, 0, 1, 2, 3])
    fixed = {}
    for end in (strip.cliques[0], strip.cliques[-1]):
        for v, c in zip(sorted(end), rng.sample(range(1, budget + 1), budget)):
            fixed.setdefault(v, c)
    if rng.randrange(4) == 0:
        fixed[rng.choice(sorted(fixed))] = rng.randrange(budget + 2)
    cap = rng.choice([3000, rng.randrange(41)])
    return strip, budget, fixed, cap


def outcome(fn, *args):
    """A coloring as its item list (order included), or the exception's
    type and message."""
    try:
        return list(fn(*args).items())
    except Infeasible as exc:
        return type(exc), str(exc)


class TestFrontierSweepMatchesCounters:
    # hypothesis' own draws favour small values, which rarely make the
    # search backtrack; a seeded Random spreads the cases evenly
    @given(st.randoms(use_true_random=True))
    @settings(max_examples=1000, deadline=None)
    def test_same_coloring_or_same_error(self, rng):
        strip, budget, fixed, cap = extension_case(rng)
        with pytest.MonkeyPatch.context() as mp:
            # both read the cap; a small one also keeps infeasible searches short
            mp.setattr(intervals, "EXTENSION_CAP", cap)
            assert (outcome(extend_coloring, strip, budget, fixed)
                    == outcome(reference_extend_coloring, strip, budget, fixed))
        left = {v: c for v, c in fixed.items() if v in strip.cliques[0]}
        for given_colors in (fixed, left):
            assert (list(greedy_fill(strip, given_colors).items())
                    == list(reference_greedy_fill(strip, given_colors).items()))

    def test_backtracking_extension_matches_reference(self, monkeypatch):
        g = gen_interval(229, seed=129)
        colors = color_interval(g, 6)
        log, calls = [], []

        def reference(strip, budget, fixed):
            calls.append((strip, budget, dict(fixed)))
            return reference_extend_coloring(strip, budget, fixed, log)

        monkeypatch.setattr(intervals, "extend_coloring", reference)
        monkeypatch.setattr(intervals, "greedy_fill", reference_greedy_fill)
        assert list(color_interval(g, 6).items()) == list(colors.items())
        # the reference backtracks here: 28 expansions for 26 free nodes,
        # so the sweep's dead-state path runs on this case too
        assert (26, 28, 0) in log
        assert all(expansions == free for free, expansions, _ in log if free != 26)
        # the cap is checked before each step of the search as well: 28
        # expansions pass a cap of 27 and stop at a cap of 26
        args = calls[log.index((26, 28, 0))]
        expected = reference_extend_coloring(*args)
        monkeypatch.undo()
        monkeypatch.setattr(intervals, "EXTENSION_CAP", 27)
        assert list(extend_coloring(*args).items()) == list(expected.items())
        monkeypatch.setattr(intervals, "EXTENSION_CAP", 26)
        with pytest.raises(Infeasible, match="search cap exceeded"):
            extend_coloring(*args)

    # seeds of `extension_case` whose search prunes dead states; in a scan
    # of 20,000 seeds, 56 did, and these include the three on which a
    # dead-state key without its position, or one recorded for every
    # exhausted position, changes the outcome
    @pytest.mark.parametrize("seed", [4933, 4944, 10668, 12914, 12927, 14755])
    def test_searches_that_prune_dead_states(self, seed):
        strip, budget, fixed, cap = extension_case(random.Random(seed))
        log = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intervals, "EXTENSION_CAP", cap)
            expected = outcome(reference_extend_coloring, strip, budget, fixed, log)
            assert outcome(extend_coloring, strip, budget, fixed) == expected
        assert log[0][2] > 0


def test_heap_sweep_matches_reference_at_large_omega():
    """The released-color heap sweep against the frontier sweep it replaced
    (`tests/reference_sweep.py`) on the one large component of
    `gen_interval(1400, s)`, omega 32: without a budget around boundary
    cliques colored as `color_strip` colors them, and within budget
    floor(1.25 omega) + 1 on cuts of the strip whose two end cliques are
    colored at random, which also draws clashing end colorings. Item lists
    (order included) and errors must be equal."""
    compared = []
    for seed in (1, 2, 3, 4):
        rng = random.Random(seed)
        (strip,) = (s for s in _component_strips(gen_interval(1400, seed)) if len(s.lo) > 50)
        omega = max(map(len, strip.cliques))
        assert omega >= 30
        for k in (2, 4):
            fixed = {}
            for b in _select_boundaries(strip, k + 3):
                fixed.update(zip(sorted(strip.cliques[b]), range(1, len(strip.cliques[b]) + 1)))
            assert (list(greedy_fill(strip, fixed).items())
                    == list(reference_sweep(strip, fixed, None).items()))
        budget = 5 * omega // 4 + 1
        last = len(strip.cliques) - 1
        for _ in range(12):
            a = rng.randrange(last)
            cut = strip.segment(a, min(last, a + rng.choice([3, 10, 30, 100, last])))
            fixed = {}
            for end in (cut.cliques[0], cut.cliques[-1]):
                for v, c in zip(sorted(end), rng.sample(range(1, budget + 1), len(end))):
                    fixed.setdefault(v, c)
            got = outcome(extend_coloring, cut, budget, fixed)
            assert got == outcome(reference_sweep, cut, fixed, budget)
            compared.append(isinstance(got, list))
    # both colorings and errors were compared
    assert 0 < sum(compared) < len(compared)


class TestColorInterval:
    def test_single_clique_exact(self):
        g = complete_graph(7)
        colors = color_interval(g, 4)
        res = verify_coloring(g, colors)
        assert res.legal and res.palette == 7

    def test_path_graph_small_palette(self):
        g = gen_path(40)
        colors = color_interval(g, 4)
        res = verify_coloring(g, colors)
        assert res.legal and res.palette <= 3

    def test_palette_bound_on_generated_interval(self):
        g = gen_interval(300, seed=8)
        colors = color_interval(g, 10)
        res = verify_coloring(g, colors)
        omega = omega_oracle(g)
        assert res.legal
        assert res.palette <= 11 * omega // 10 + 1

    def test_bound_across_k_values(self):
        for k in (2, 3, 5):
            for seed in (1, 12):
                g = gen_interval(150, seed=seed)
                colors = color_interval(g, k)
                res = verify_coloring(g, colors)
                assert res.legal
                assert res.palette <= color_budget(k, omega_oracle(g))

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            color_interval(gen_path(4), 1)


def dominated_per_edge(h):
    """Reference: both closed neighborhoods built afresh for every edge."""
    doomed = set()
    for u, v in h.edges():
        nu, nv = h.closed_neighborhood(u), h.closed_neighborhood(v)
        if nu < nv:
            doomed.add(v)
        elif nv < nu:
            doomed.add(u)
    return doomed


def dominated_nodes(h):
    """Reference: ends of edges whose closed neighborhood strictly contains
    the other end's, one closed neighborhood per node."""
    closed = {v: nbrs | {v} for v, nbrs in h.adj.items()}
    doomed = set()
    for u, nu in closed.items():
        for v in h.adj[u]:
            if u < v:
                nv = closed[v]
                if nu < nv:
                    doomed.add(v)
                elif nv < nu:
                    doomed.add(u)
    return doomed


def swept_dominated(h):
    """The strip sweep over every component of h."""
    return set().union(*(strip_dominated(s) for s in _component_strips(h)))


def remove_dominated(h):
    """h without its dominated nodes, found by one strip sweep per component."""
    return h.subgraph(h.nodes - swept_dominated(h))


def is_proper_interval(h):
    """Whether h is an interval graph with no induced three-leaf star: the
    claw test on every component's strip."""
    try:
        return all(map(strip_is_proper, _component_strips(h)))
    except NotInterval:
        return False


class TestDominatedNodes:
    def test_generated_interval_graphs(self):
        for seed in range(5):
            g = gen_interval(150, seed=seed)
            assert dominated_nodes(g) == dominated_per_edge(g)
            assert swept_dominated(g) == dominated_per_edge(g)
        g = gen_interval(200, seed=7, span=200, max_len=40)
        assert dominated_nodes(g) == dominated_per_edge(g)
        assert swept_dominated(g) == dominated_per_edge(g)

    def test_blocks_and_twins(self):
        g = overlapping_blocks(5, 4, 2)
        assert dominated_nodes(g) == dominated_per_edge(g)
        assert swept_dominated(g) == dominated_per_edge(g)
        assert dominated_nodes(complete_graph(4)) == set()

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_any_small_graph(self, g):
        assert dominated_nodes(g) == dominated_per_edge(g)

    @given(interval_graphs())
    @settings(max_examples=100, deadline=None)
    def test_strip_sweep_on_interval_graphs(self, g):
        assert swept_dominated(g) == dominated_per_edge(g)


class TestRemoveDominated:
    def test_star_center_removed(self):
        star = Graph([(1, 2), (1, 3), (1, 4)])
        h = remove_dominated(star)
        assert h.nodes == {2, 3, 4}
        assert len(alpha_oracle(h)) == 3

    def test_path_loses_only_second_nodes(self):
        # the ends' closed neighborhoods are strictly contained in their
        # neighbors', so exactly those neighbors count as dominating
        g = gen_path(9)
        h = remove_dominated(g)
        assert g.nodes - h.nodes == {2, 8}
        assert len(alpha_oracle(h)) == len(alpha_oracle(g))

    def test_alpha_preserved_and_result_proper(self):
        for seed in (4, 9, 17):
            g = gen_interval(30, seed=seed)
            h = remove_dominated(g)
            assert len(alpha_oracle(h)) == len(alpha_oracle(g))
            assert is_proper_interval(h) or len(h) == 0


def holder_scan_arrange(cliques, cap=500_000):
    """Reference: the clique arrangement search that decides whether an undone
    node stays open by scanning its holders, plus the steps it took."""
    t = len(cliques)
    order = sorted(range(t), key=lambda i: clique_word(cliques[i]))
    remaining: Dict[int, int] = {}
    holders: Dict[int, List[int]] = {}
    for i, c in enumerate(cliques):
        for v in c:
            remaining[v] = remaining.get(v, 0) + 1
            holders.setdefault(v, []).append(i)

    def candidates(used, open_nodes):
        if not open_nodes:
            return [i for i in order if i not in used]
        v = min(open_nodes, key=lambda u: (remaining[u], u))
        pool = [i for i in holders[v] if i not in used and open_nodes <= cliques[i]]
        pool.sort(key=lambda i: clique_word(cliques[i]))
        return pool

    used, open_nodes, placed, dead = set(), set(), [], set()

    def do_place(i):
        used.add(i)
        placed.append(i)
        for v in cliques[i]:
            remaining[v] -= 1
            if remaining[v] > 0:
                open_nodes.add(v)
            else:
                open_nodes.discard(v)

    def do_undo():
        i = placed.pop()
        used.discard(i)
        for v in cliques[i]:
            remaining[v] += 1
            if any(j in used for j in holders[v]):
                open_nodes.add(v)
            else:
                open_nodes.discard(v)

    steps = 0
    stack = [iter(candidates(used, open_nodes))]
    while stack:
        steps += 1
        if steps > cap:
            return None, steps
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            dead.add(frozenset(used))
            if placed:
                do_undo()
            continue
        do_place(nxt)
        if len(placed) == t:
            return [cliques[i] for i in placed], steps
        if frozenset(used) in dead:
            do_undo()
            continue
        stack.append(iter(candidates(used, open_nodes)))
    return None, steps


def arranged_components(g, monkeypatch):
    """The (forest, component, forced edges) that `_component_strips(g)`
    hands to `_arrange_cliques`: the components whose canonical forest
    branches."""
    seen = []

    def spy(forest, comp, forced, cap):
        seen.append((forest, list(comp), forced))
        return _arrange_cliques(forest, comp, forced, cap)

    with monkeypatch.context() as m:
        m.setattr(intervals, "_arrange_cliques", spy)
        try:
            _component_strips(g)
        except NotInterval:
            pass
    return seen


def search_steps(forest, comp, forced, most):
    """The steps `_arrange_cliques` takes on a component, found by bisection
    as the smallest cap it completes within; it must complete within `most`."""
    _arrange_cliques(forest, comp, forced, most)
    lo, hi = 1, most
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            _arrange_cliques(forest, comp, forced, mid)
            hi = mid
        except NotInterval:
            lo = mid + 1
    return lo


def model_clique_orders(ids, spans):
    """Per component of the intersection graph of an interval model, its
    maximal cliques in the model's order along the line: the nodes over
    each left end, kept where no other such set strictly contains them."""
    over = [frozenset(v for v, (a, b) in zip(ids, spans) if a <= p <= b)
            for p in sorted({a for a, _ in spans})]
    seq = [c for c in over if not any(c < d for d in over)]
    orders = [[seq[0]]]
    for c in seq[1:]:
        if c != orders[-1][-1]:
            if not c & orders[-1][-1]:
                orders.append([])
            orders[-1].append(c)
    return orders


@lru_cache(maxsize=None)
def dense_components(seed):
    """`arranged_components` of the benchmark's dense `gen_interval`
    instance at `seed`."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return tuple(arranged_components(gen_interval(2048, seed), monkeypatch))


def assert_matches_reference(forest, comp, forced):
    """Assert that the search returns the reference's arrangement, compared
    by clique words, within the reference's steps; return those steps."""
    ref, ref_steps = holder_scan_arrange([forest.cliques[i] for i in comp])
    ids = _arrange_cliques(forest, comp, forced, ref_steps)
    assert [forest.words[i] for i in ids] == list(map(clique_word, ref))
    return ref_steps


def strip_words(strips):
    return [[clique_word(c) for c in s.cliques] for s in strips]


def reduced_strips(g):
    return _mis_interval_parts(g, 0.4)[1]


def reduced_strips_rebuilt(g):
    return _component_strips(g.subgraph(g.nodes - dominated_per_edge(g)))


class TestArrangeCliques:
    def test_matches_holder_scan_in_no_more_steps(self, monkeypatch):
        instances = [gen_interval(150, seed=seed) for seed in range(6)]
        spider = gen_spider(3, 2)
        instances += [Graph([(1, v) for v in range(2, 7)]), spider]
        arranged = 0
        for g in instances:
            for forest, comp, forced in arranged_components(g, monkeypatch):
                if g is spider:
                    # no order exists: the search must say so within the
                    # reference's steps
                    ref, ref_steps = holder_scan_arrange([forest.cliques[i] for i in comp])
                    assert ref is None
                    with pytest.raises(NotInterval, match="no consecutive"):
                        _arrange_cliques(forest, comp, forced, ref_steps)
                    continue
                steps = search_steps(forest, comp, forced,
                                     assert_matches_reference(forest, comp, forced))
                with pytest.raises(NotInterval, match="cap of %d steps" % (steps - 1)):
                    _arrange_cliques(forest, comp, forced, steps - 1)
                arranged += 1
        assert arranged >= 10

    @given(interval_graphs(max_nodes=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_holder_scan_on_interval_graphs(self, g):
        with pytest.MonkeyPatch.context() as monkeypatch:
            arranged = arranged_components(g, monkeypatch)
        for forest, comp, forced in arranged:
            assert_matches_reference(forest, comp, forced)

    @pytest.mark.parametrize("seed", range(1000, 1005))
    def test_matches_holder_scan_on_dense_instances(self, seed):
        assert dense_components(seed)
        for forest, comp, forced in dense_components(seed):
            assert_matches_reference(forest, comp, forced)

    @pytest.mark.parametrize("seed", range(1000, 1005))
    def test_dense_instances_take_few_steps_beyond_one_per_clique(self, seed):
        # one step places each clique, and a start that fails the start
        # test costs no step
        for forest, comp, forced in dense_components(seed):
            _arrange_cliques(forest, comp, forced, math.ceil(1.25 * len(comp)))

    @pytest.mark.parametrize("seed", range(1000, 1005))
    def test_dense_instances_place_each_chain_about_once(self, seed):
        # 23 to 49 chains of about 1,000 cliques; the search backtracks at
        # most twice on these
        for forest, comp, forced in dense_components(seed):
            chains = len(comp) - sum(len(forced.get(i, ())) for i in comp) // 2
            assert chains < 50
            _arrange_cliques(forest, comp, forced, chains + 2)

    def test_three_forced_neighbours_refute_before_any_step(self, monkeypatch):
        # the net: triangle 1-2-3 with pendants 4-1, 5-2 and 6-3; each
        # pendant edge meets the triangle in a node no third clique holds
        net = Graph([(1, 2), (2, 3), (1, 3), (1, 4), (2, 5), (3, 6)])
        (forest, comp, forced), = arranged_components(net, monkeypatch)
        assert sorted(len(forced.get(i, ())) for i in comp) == [1, 1, 1, 3]
        with pytest.raises(NotInterval, match="no consecutive"):
            _arrange_cliques(forest, comp, forced, 0)
        with pytest.raises(NotInterval, match="no consecutive"):
            _component_strips(net)

    @given(interval_graphs(max_nodes=40))
    @settings(max_examples=200, deadline=None)
    def test_forced_pairs_are_adjacent_in_the_reference_order(self, g):
        forced = {}
        forest = clique_forest(g, forced)
        ids = {c: i for i, c in enumerate(forest.cliques)}
        for comp in g.connected_components():
            ref, _ = holder_scan_arrange(
                [c for c in forest.cliques if not c.isdisjoint(comp)])
            pos = {ids[c]: p for p, c in enumerate(ref)}
            for a in pos:
                assert all(abs(pos[a] - pos[b]) == 1 for b in forced.get(a, ()))
                if len(forced.get(a, ())) < 2:
                    # the chain from this end fills consecutive places
                    chain = walk_path(forced, a, forced) if a in forced else [a]
                    places = [pos[c] for c in chain]
                    assert places in (list(range(places[0], places[0] + len(chain))),
                                      list(range(places[0], places[0] - len(chain), -1)))

    @pytest.mark.parametrize("s", [108, 150, 198, 210, 342, 390])
    def test_non_interval_trees_are_refuted_within_the_cap(self, s, monkeypatch):
        # trees with an asteroidal triple, on which the search once spent
        # its whole cap; it now refutes each within 1,000 placements
        g = gen_chordal(30 + s % 40, s, max_clique=2 + s % 6)
        monkeypatch.setattr(intervals, "ARRANGE_CAP", 1000)
        with pytest.raises(NotInterval, match="no consecutive"):
            _component_strips(g)

    def test_alike_chain_ends_are_tried_once(self, monkeypatch):
        # the subdivided claw with 20 more leaves on its centre has no
        # order; trying each leaf clique at each placed set would visit
        # every subset of the leaves
        claw = gen_spider(3, 2)
        centre = next(v for v in claw.nodes if claw.degree(v) == 3)
        g = Graph([*claw.edges(), *((centre, 100 + i) for i in range(20))])
        (forest, comp, forced), = arranged_components(g, monkeypatch)
        with pytest.raises(NotInterval, match="no consecutive"):
            _arrange_cliques(forest, comp, forced, 100)

    @given(interval_models())
    @settings(max_examples=200, deadline=None)
    def test_model_ends_pass_the_start_test(self, model):
        forest = clique_forest(intersection_graph(*model))
        orders = model_clique_orders(*model)
        assert sorted(clique_word(c) for order in orders for c in order) == list(forest.words)
        ids = {c: i for i, c in enumerate(forest.cliques)}
        for order in orders:
            assert _may_open(forest, ids[order[0]])
            assert _may_open(forest, ids[order[-1]])

    def test_start_test_rejects_a_middle_clique(self):
        # the middle clique of a path meets its two neighbours in different
        # nodes, so neither separator holds the other
        forest = clique_forest(gen_path(4))
        assert not _may_open(forest, forest.words.index((2, 3)))
        assert _may_open(forest, forest.words.index((1, 2)))
        assert _may_open(forest, forest.words.index((3, 4)))


class TestReducedStrips:
    @given(interval_graphs())
    @settings(max_examples=100, deadline=None)
    def test_traces_match_rebuilt_forest(self, g):
        assert strip_words(reduced_strips(g)) == strip_words(reduced_strips_rebuilt(g))

    def test_where_the_arrangement_search_runs(self, monkeypatch):
        for seed in range(6):
            g = gen_interval(150, seed=seed)
            assert arranged_components(g, monkeypatch)
            assert strip_words(reduced_strips(g)) == strip_words(reduced_strips_rebuilt(g))

    def test_one_forest_and_one_search_per_call(self, monkeypatch):
        forests, searches = [], []
        real_forest, real_mcs = intervals.clique_forest, graphs.mcs_order

        def counting_forest(h, *forced):
            forests.append(len(h))
            return real_forest(h, *forced)

        def counting_mcs(h):
            searches.append(len(h))
            return real_mcs(h)

        monkeypatch.setattr(intervals, "clique_forest", counting_forest)
        monkeypatch.setattr(graphs, "mcs_order", counting_mcs)
        g = gen_interval(150, seed=1)
        mis_interval(g, 0.4)
        assert forests == [len(g)] and searches == [len(g)]


class TestDistanceKMis:
    def test_path_properties(self):
        g = gen_path(10)
        members = distance_k_mis(g, 3)
        dists = {u: bfs_distances(g, u) for u in members}
        assert all(dists[u][v] > 3 for u in members for v in members if u != v)
        assert all(any(dists[u][x] <= 3 for u in members) for x in g.nodes)

    def test_clique_yields_single_member(self):
        for k in (1, 2, 5):
            assert len(distance_k_mis(complete_graph(6), k)) == 1

    def test_generated_components(self):
        g = remove_dominated(gen_interval(200, seed=2))
        for comp in g.connected_components():
            sub = g.subgraph(comp)
            members = distance_k_mis(sub, 6)
            dists = {u: bfs_distances(sub, u) for u in members}
            for u in members:
                for v in members:
                    if u != v:
                        assert dists[u].get(v, 99) > 6
            for x in comp:
                assert any(x in dists[u] and dists[u][x] <= 6 for u in members)

    def test_rejects_improper_input(self):
        star = Graph([(1, 2), (1, 3), (1, 4)])
        with pytest.raises(NotProperInterval):
            distance_k_mis(star, 2)
        with pytest.raises(NotProperInterval):
            distance_k_mis(gen_spider(3, 2), 2)
        assert not is_proper_interval(gen_spider(3, 2))  # not even interval
        with pytest.raises(NotProperInterval):
            distance_k_mis(Graph(nodes=[1, 2]), 2)  # not connected
        with pytest.raises(ValueError):
            distance_k_mis(gen_path(5), 0)

    def test_rejects_a_claw_beside_a_triangle(self):
        # 3, 4 and 5 are pairwise apart around 1; a greedy scan of 1's
        # neighbours by id picks 2 first and finds no third leaf
        g = Graph([(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)])
        _component_strips(g)
        assert not is_proper_interval(g)
        with pytest.raises(NotProperInterval):
            distance_k_mis(g, 1)


class TestMisInterval:
    def test_eps_validation(self):
        for solve in (mis_interval, mis_interval_distributed):
            with pytest.raises(BadEpsilon):
                solve(gen_path(5), 0.0)
            with pytest.raises(BadEpsilon):
                solve(gen_path(5), 1.0)
            with pytest.raises(BadEpsilon):  # checked before the interval test
                solve(gen_spider(3, 2), 1.0)

    def test_small_components_solved_exactly(self):
        g = gen_interval(200, seed=2)
        chosen = mis_interval(g, 0.4)
        assert verify_is(g, chosen)
        assert len(chosen) == len(alpha_oracle(g))  # all components small here

    def test_long_path_ratio(self):
        g = gen_path(500)
        chosen = mis_interval(g, 0.25)
        assert verify_is(g, chosen)
        assert len(chosen) >= 200

    def test_oracle_ratio_on_generated(self):
        g = gen_interval(400, seed=13)
        chosen = mis_interval(g, 0.1)
        assert verify_is(g, chosen)
        assert 11 * len(chosen) >= 10 * len(alpha_oracle(g))

    def test_skeleton_branch_engages_and_stays_independent(self):
        g = gen_path(900)
        eps = 0.9
        k = mis_eps_to_k(eps)
        assert 10 * k < 899  # forces the skeleton branch
        chosen = mis_interval(g, eps)
        assert verify_is(g, chosen)
        assert (1 + eps) * len(chosen) >= 450

    def test_not_interval_rejected(self):
        for solve in (mis_interval, mis_interval_distributed):
            with pytest.raises(NotInterval):
                solve(gen_spider(3, 2), 0.4)


def pairwise_mis_component(strip, k):
    """`_mis_component` as it filled the skeleton one gap at a time: an
    earliest-right-end sweep per consecutive member pair over the nodes
    strictly between them, and one per tail."""
    if intervals.in_exact_window(strip, k):
        return strip.greedy_mis()
    lo, hi = strip.lo, strip.hi
    members = _distance_mis_component(strip, k)
    chosen = set(members)
    for u, v in zip(members, members[1:]):
        assert strip.dist(u, v) <= 2 * k - 1
        gap = set().union(*strip.cliques[hi[u] + 1:lo[v]])
        chosen |= strip.greedy_mis(
            allowed={w for w in gap if hi[u] < lo[w] and hi[w] < lo[v]})
    first, last = members[0], members[-1]
    chosen |= strip.greedy_mis(allowed={w for w in strip.nodes if hi[w] < lo[first]})
    chosen |= strip.greedy_mis(allowed={w for w in strip.nodes if lo[w] > hi[last]})
    return chosen


def check_pairwise_fill(strip, ks) -> int:
    """`_mis_component` equals the pairwise fill at each k; returns how many
    of the comparisons ran the skeleton branch."""
    for k in ks:
        assert _mis_component(strip, k) == pairwise_mis_component(strip, k)
    return sum(not intervals.in_exact_window(strip, k) for k in ks)


def member_free_gaps(g, strip, k):
    """The greedy distance-k skeleton of `strip`, and for each consecutive
    member pair the nodes strictly between them that lie outside every
    member's closed neighbourhood in g."""
    members = _distance_mis_component(strip, k)
    free = strip.nodes - set().union(*(g.closed_neighborhood(m) for m in members))
    lo = strip.lo
    gaps = {(u, v): {w for w in free if lo[u] < lo[w] < lo[v]}
            for u, v in zip(members, members[1:])}
    return members, gaps


class TestSkeletonFill:
    def test_matches_pairwise_fill(self):
        # near-unit intervals: sparser or longer ones leave undominated
        # components of diameter at most 11, all in the exact window
        strips = _component_strips(remove_dominated(gen_path(400)))
        for seed in range(2):
            for n, span, max_len in ((1000, 300, 1), (2000, 400, 2)):
                g = gen_interval(n, seed=seed, span=span, max_len=max_len)
                strips += _mis_interval_parts(g, 0.4)[1]
        skeleton = sum(check_pairwise_fill(s, ks=(2, 3, 5)) for s in strips)
        assert skeleton >= 20

    @given(proper_interval_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_fill_on_proper_intervals(self, g):
        strips = _component_strips(g)
        for strip in strips:
            check_pairwise_fill(strip, ks=(2, 3, 5))
        # and with every strip sent through the skeleton branch
        with mock.patch.object(intervals, "in_exact_window", lambda strip, k: False):
            for strip in strips:
                assert check_pairwise_fill(strip, ks=(2, 3, 5)) == 3

    def test_spacing_on_a_long_component(self):
        g = remove_dominated(gen_path(400))  # nodes 2 and 399 are dominated
        strip = max(_component_strips(g), key=lambda s: len(s.nodes))
        k = 7
        members, gaps = member_free_gaps(g, strip, k)
        assert len(gaps) > 30
        dists = {u: bfs_distances(g, u) for u in members}
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                assert dists[u].get(v, 10 ** 9) > k
        for (u, v), nodes in gaps.items():
            assert dists[u][v] <= 2 * k - 1
            assert nodes == bfs_between(g, u, v)

    def test_between_holds_a_node_of_one_clique(self):
        # spans of nodes 1..5; node 3 sits only in the clique {2, 3, 4}, the
        # first and the last clique between the skeleton pair (1, 5)
        g = intersection_graph([1, 2, 3, 4, 5],
                               [(0, 2), (2, 4), (3, 5), (4, 6), (6, 8)])
        (strip,) = _component_strips(g)
        members, gaps = member_free_gaps(g, strip, 2)
        assert members == [1, 5]
        assert gaps == {(1, 5): {3}}
        assert bfs_between(g, 1, 5) == {3}


def has_claw(g) -> bool:
    """Some node with three pairwise non-adjacent neighbours."""
    return any(
        not (b in g.adj[a] or c in g.adj[a] or c in g.adj[b])
        for v in g.nodes for a, b, c in combinations(sorted(g.adj[v]), 3))


def bfs_boundaries(sub, strip, spacing):
    """`_select_boundaries` by the graph definition: from each boundary,
    the first later clique with no member within spacing - 1 hops of it."""
    bounds = [0]
    while True:
        near = bfs_distances(sub, strip.cliques[bounds[-1]], cutoff=spacing - 1)
        nxt = next((j for j in range(bounds[-1] + 1, len(strip.cliques))
                    if not strip.cliques[j] & near.keys()), None)
        if nxt is None:
            return bounds
        bounds.append(nxt)


def bfs_frontier(sub, cliques, side, k):
    """The first of `cliques`, in their order, with no member within k + 2
    hops of `side`; None when every clique has one."""
    near = bfs_distances(sub, side, cutoff=k + 2)
    return next((j for j, c in enumerate(cliques) if not c & near.keys()), None)


def bfs_between(sub, u, v):
    """Nodes outside N[u] | N[v] within distance d(u, v) of both."""
    duv = bfs_distances(sub, u)[v]
    du = bfs_distances(sub, u, cutoff=duv)
    dv = bfs_distances(sub, v, cutoff=duv)
    banned = sub.closed_neighborhood(u) | sub.closed_neighborhood(v)
    return {w for w in du if w in dv and w not in banned}


def check_boundaries_and_frontiers(g, strip, ks) -> int:
    """Compare the boundaries and both frontiers of `strip` with BFS on the
    subgraph it spans; returns how many frontiers were found."""
    sub = g.subgraph(strip.nodes)
    rev = IntervalStrip(list(reversed(strip.cliques)))
    found = 0
    for k in ks:
        assert _select_boundaries(strip, k + 3) == bfs_boundaries(sub, strip, k + 3)
        for view in (strip, rev):
            first = view.cliques[0]
            for side in [{u} for u in sorted(first)] + [set(first)]:
                f = _frontier(view, side, k)
                assert f == bfs_frontier(sub, view.cliques, side, k)
                found += f is not None
    return found


def check_gap_lemma(g, strip, ks) -> int:
    """The paper's gap lemma on a claw-free strip: between consecutive
    skeleton members u, v, the nodes that meet no member are those outside
    N[u] | N[v] within d(u, v) of both, by BFS on the subgraph the strip
    spans; returns how many pairs were compared."""
    sub = g.subgraph(strip.nodes)
    pairs = 0
    for k in ks:
        for (u, v), nodes in member_free_gaps(sub, strip, k)[1].items():
            assert nodes == bfs_between(sub, u, v)
            pairs += 1
    return pairs


class TestStripQueriesMatchBfs:
    @given(interval_graphs())
    @settings(max_examples=150, deadline=None)
    def test_claw_test_matches_neighbour_triples(self, g):
        assert is_proper_interval(g) == (not has_claw(g))

    @given(interval_graphs())
    @settings(max_examples=150, deadline=None)
    def test_boundaries_and_frontiers(self, g):
        for strip in _component_strips(g):
            check_boundaries_and_frontiers(g, strip, ks=range(0, 4))

    @given(proper_interval_graphs())
    @settings(max_examples=150, deadline=None)
    def test_between_sets(self, g):
        for strip in _component_strips(g):
            assert strip_is_proper(strip)
            check_gap_lemma(g, strip, ks=(2, 3))

    def test_generated_instances(self):
        found = pairs = 0
        for seed in range(3):
            g = gen_interval(300, seed=seed)
            for strip in _component_strips(g):
                found += check_boundaries_and_frontiers(g, strip, ks=(2, 3))
            for strip in _mis_interval_parts(g, 0.5)[1]:
                pairs += check_gap_lemma(g, strip, ks=(2, 3, 5))
        assert found and pairs


WORKLOAD_FAMILIES = {
    "random_trees": lambda seed: gen_chordal(500, seed, max_clique=12),
    "long_paths": lambda seed: long_paths_generator()(1000, seed, max_clique=8),
    "dense_intervals": lambda seed: gen_interval(500, seed),
}


@pytest.mark.parametrize("family", sorted(WORKLOAD_FAMILIES))
def test_benchmark_calls_search_no_graph(monkeypatch, family):
    """The benchmark's four calls make no BFS and build no subgraph, with
    debug invariants off."""
    bfs_calls, subgraph_callers = [], []
    real_bfs, real_subgraph = graphs.bfs_distances, Graph.subgraph

    def counting_bfs(*args, **kwargs):
        bfs_calls.append(args[1:])
        return real_bfs(*args, **kwargs)

    def watched_subgraph(self, nodes):
        subgraph_callers.append(sys._getframe(1).f_code.co_name)
        return real_subgraph(self, nodes)

    monkeypatch.setattr(errors, "_DEBUG_INVARIANTS", False)
    for module in vars(chordalg).values():
        if getattr(module, "bfs_distances", None) is real_bfs:
            monkeypatch.setattr(module, "bfs_distances", counting_bfs)
    monkeypatch.setattr(Graph, "subgraph", watched_subgraph)
    interval = family == "dense_intervals"
    for seed in (1, 2):
        g = WORKLOAD_FAMILIES[family](seed)
        mvc.mvc_pipeline(g, 0.5)
        mvc.mvc_distributed(g, 0.5)
        if interval:
            mis_interval(g, 0.4)
            mis_interval_distributed(g, 0.4)
        else:
            mis_chordal_centralized(g, 0.4)
            mis_chordal_distributed(g, 0.4)
    assert not bfs_calls
    assert not subgraph_callers


def layer_strips(g, k):
    """The strips `color_layers` colors at k: each peel record's member
    components."""
    layering = mvc.prune_layers(g, k)
    return [strip for records in layering.peeled_paths.values() for record in records
            for strip in strips_from_traces(record.cliques, set(record.members))]


COLOR_STRIP_SOURCES = {
    "acceptance": lambda: [
        (strip, mvc.eps_to_k(float(eps))) for eps, n, mc in (
            (Fraction(1, 2), 512, 8), (Fraction(1, 4), 512, 20), (Fraction(1, 2), 2048, 20))
        for g, _ in chordal_corpus(eps, n, mc, 2)
        for strip in layer_strips(g, mvc.eps_to_k(float(eps)))],
    "long_paths": lambda: [
        (strip, k) for s, m in LONG_PATH_CASES for k in (2, 4)
        for strip in layer_strips(long_paths_generator()(600, s, max_clique=m), k)],
    "gen_interval_2048": lambda: [
        (strip, 4) for seed in (1000, 1001, 1002)
        for strip in _component_strips(gen_interval(2048, seed))],
    "pinned_k6": lambda: [(strip, 6) for strip in _component_strips(gen_interval(229, seed=129))],
}


@pytest.mark.parametrize("source", sorted(COLOR_STRIP_SOURCES))
def test_one_sweep_matches_per_segment_reference(monkeypatch, source):
    """`color_strip`'s one sweep gives the per-segment reference's coloring,
    item order included, and extends exactly the segments whose greedy
    colors exceed their budget, the ones the reference backtracks in."""
    real = intervals.extend_coloring
    extended, over = [], []

    def watched(seg, budget, fixed):
        extended.append((seg.cliques, seg.lo, seg.hi, seg.jump, budget, fixed))
        return real(seg, budget, fixed)

    def reference_extend(seg, budget, fixed):
        free = greedy_fill(seg, fixed).items() - fixed.items()
        if max((c for _, c in free), default=0) > budget:
            over.append((seg.cliques, seg.lo, seg.hi, seg.jump, budget, fixed))
        return real(seg, budget, fixed)

    monkeypatch.setattr(intervals, "extend_coloring", watched)
    swept = 0
    for strip, k in COLOR_STRIP_SOURCES[source]():
        assert (list(intervals.color_strip(strip, k).items())
                == list(reference_color_strip(strip, k, reference_extend).items()))
        swept += len(strip.cliques) > 1
    assert swept
    assert extended == over
    # the pinned case holds the one over-budget segment known
    assert len(over) == (source == "pinned_k6")


def test_one_boundary_strip_is_its_own_tail():
    # a strip shorter than the boundary spacing has the one boundary clique
    # 0, so its tail is the whole strip and is colored without a copy
    g = gen_path(6)
    (strip,) = _component_strips(g)
    assert _select_boundaries(strip, 4 + 3) == [0]
    with mock.patch.object(intervals, "IntervalStrip",
                           side_effect=AssertionError("strip rebuilt")):
        colors = intervals.color_strip(strip, 4)
    assert verify_coloring(g, colors) == (True, 2)
