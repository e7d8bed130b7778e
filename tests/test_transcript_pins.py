"""Simulated transcripts pinned byte for byte.

The digests were recorded before the engine's Send check and the programs'
stage schedules were reworked, and before the engine skipped quiet rounds;
any change to rounds, traffic or outputs of these runs shows up here. Every
run must reproduce them when the engine steps each round's nodes in reverse
order, too. The node-steps of each run are pinned as well: the transcript
fixes them, so a faster engine must make steps cheaper, not fewer. Both hold
when the programs step whole timer groups, each member counted as a step.
The calls of a program's per-node `step` are pinned apart from node-steps:
a group that falls back to stepping each member shows up there. So are the
calls of its per-node `leave`: a group whose members only output answers them
in one map, and those that only wait in one set, so a fall-back to leaving
node by node shows up there. The
`tree-mis` and `longpaths-mis` digests were re-pinned once, when the exact
small components began taking their strip's sweep instead of a greedy along
a maximum cardinality search: the same rounds, traffic and set sizes (112
and 282), with other members chosen. The `path-distance-mis` digest was
recorded later, with the engine of its time, before that replay's schedule
table moved to the shared builder.

The default round cap of each distributed entry point is pinned to the
formula it was first written with, spelled out here.

The `interval-coloring` and `path-distance-mis` rows replay the interval
coloring and the distance-k independent set through `localsim.replay`
directly, over the prefix-only schedules their distributed forms charged
before those forms left the library. They are the only replays whose table
has no branch, and their digests, node-steps and default caps still pin the
engine there.
"""

import copy
import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from chordalg import (
    Graph, color_interval, distance_k_mis, gen_chordal, gen_interval, gen_path,
    gen_spider, mis_chordal_distributed, mis_interval_distributed, mvc_distributed,
)
from chordalg import localsim
from chordalg.intervals import strip_stages
from chordalg.localsim import Collect, GatherProgram, StepResult

from conftest import dumbbell, graph_wait_set, long_paths_generator
from reference_engine import dense_text


def digest(transcript):
    return hashlib.sha256(transcript.serialize().encode()).hexdigest()


TREE = gen_chordal(300, seed=11, max_clique=6)
# the bridge peels as an internal path, and its independent set takes the
# approximate branch
DUMBBELL = dumbbell(3, 5, 400)
INTERVAL = gen_interval(200, seed=3)
# long clique paths: an internal peel and a palette above omega for MVC, an
# approximate-branch component for MIS
LONG_PATHS = long_paths_generator()(800, 8, max_clique=4)


def replayed_coloring(h, k):
    """The interval coloring at k replayed over `strip_stages(k)`:
    (outputs, transcript)."""
    t = localsim.replay(h, color_interval(h, k), strip_stages(k), {}, {})
    return t.outputs, t


def replayed_distance_mis(h, k):
    """The distance-k independent set replayed over a gather of 2 and nine
    stages of k + 1, its membership flags as outputs: (outputs, transcript)."""
    members = distance_k_mis(h, k)
    t = localsim.replay(h, {v: v in members for v in h.nodes}, [2] + [k + 1] * 9,
                        {}, {})
    return t.outputs, t


# name -> (solve, transcript digest, node-steps of the run); the step counts
# were recorded with the digests' engine, before node-steps were made cheaper
PINNED = {
    "tree-mvc": (lambda: mvc_distributed(TREE, 0.5),
                 "67032f72e3b7493e7192092155ac922ab00b3456faac91520e8c268c9756ff7b",
                 4366),
    "tree-mis": (lambda: mis_chordal_distributed(TREE, 0.4),
                 "fc4eeb8645d33d42d0f38d258a4aeaebfe4a4ffd93c0addcc2326365e70514b2",
                 3856),
    "dumbbell-mvc": (lambda: mvc_distributed(DUMBBELL, 1.0),
                     "b976a5a6ae50649e5746591e9fa27a4a692ecf5c6897ba79097fa29acfd6576e",
                     5649),
    "dumbbell-mis": (lambda: mis_chordal_distributed(DUMBBELL, 0.4),
                     "c28f74879d4b8a298e0ed14622a3a1f5c9691a75158a1a62d782c22acbb07fc8",
                     9569),
    "longpaths-mvc": (lambda: mvc_distributed(LONG_PATHS, 0.5),
                      "58ffdd228521961820f80c3430a799520e7d74d3abb32133470f12d01d264658",
                      10506),
    "longpaths-mis": (lambda: mis_chordal_distributed(LONG_PATHS, 0.4),
                      "22f9bf8c527aadb04402ecada4fc3e093858612a40c93ae6090896f3ca8f3805",
                      15208),
    "interval-mis": (lambda: mis_interval_distributed(INTERVAL, 0.4),
                     "be7157c03257622f460baad99722f625c7e7e35add21357e41e18a8b281dfde1",
                     487),
    "interval-coloring": (lambda: replayed_coloring(INTERVAL, 3),
                          "b3e05b87db27fe3a346b30d0ce2e48336a4939a0435790af8cf886d529c24f74",
                          2400),
    "path-distance-mis": (lambda: replayed_distance_mis(gen_path(60), 2),
                          "be0ea460c1e16eb0c4354ecb9c9c372e29cdc5ed767ff6ceb9a59425f5335c90",
                          660),
}

# name -> calls of the program's `step` when the engine steps timer groups,
# round 0 included; only MVC's correction tail steps node by node
STEP_CALLS = {
    "tree-mvc": 327, "tree-mis": 0, "dumbbell-mvc": 42, "dumbbell-mis": 0,
    "longpaths-mvc": 93, "longpaths-mis": 0, "interval-mis": 0,
    "interval-coloring": 0, "path-distance-mis": 0,
}

# name -> calls of the program's per-node `leave`: a schedule's default leave
# is answered in one outputs map, and MVC leaves per node only the roots of
# the correction forest with correction levels; its quiet roots are answered
# in the outputs map and its correction children as waiting members
LEAVE_CALLS = {
    "tree-mvc": 1, "tree-mis": 0, "dumbbell-mvc": 2, "dumbbell-mis": 0,
    "longpaths-mvc": 3, "longpaths-mis": 0, "interval-mis": 0,
    "interval-coloring": 0, "path-distance-mis": 0,
}


class CountedSteps:
    """A node program that counts the steps of the program it wraps."""

    def __init__(self, program):
        self.program = program
        self.steps = 0

    def init(self, node, neighbors):
        return self.program.init(node, neighbors)

    def step(self, state, rnd, inbox):
        self.steps += 1
        return self.program.step(state, rnd, inbox)


def inbox_of(key, result):
    """The inbox a group's members read: empty in round 0, where the key is
    None."""
    return {} if key is None else {key: result}


class CountedGroupSteps(CountedSteps):
    """Also forwards `step_group`, counting each member as one node-step; a
    program without one has each member stepped through `step`. Every call
    of the program's `step`, by the engine or by its own group step, counts
    in `step_calls`, and every call of its per-node `leave` in
    `leave_calls`."""

    def __init__(self, program):
        super().__init__(program)
        self.group_calls = 0
        self.step_calls = 0
        self.leave_calls = 0
        step = program.step
        leave = getattr(program, "leave", None)

        def counted_step(*args):
            self.step_calls += 1
            return step(*args)

        def counted_leave(*args):
            self.leave_calls += 1
            return leave(*args)

        program.step = counted_step
        if leave is not None:
            program.leave = counted_leave

    def step_group(self, states, rnd, key, result, members):
        self.steps += len(members)
        self.group_calls += 1
        program = self.program
        if hasattr(program, "step_group"):
            return program.step_group(states, rnd, key, result, members)
        return {}, [(v, program.step(states[v], rnd, inbox_of(key, result)))
                    for v in members], {}, ()


class CheckedGroupSteps(CountedGroupSteps):
    """Checks every group step against `step` on a copy of each member."""

    def step_group(self, states, rnd, key, result, members):
        alone = {v: self.program.step(copy.deepcopy(states[v]), rnd,
                                      inbox_of(key, result))
                 for v in members}
        timed, stepped, outputs, waiting = super().step_group(
            states, rnd, key, result, members)
        for (tag, radius), group in timed.items():
            for v in group:
                assert alone.pop(v) == StepResult(
                    states[v], requests=(Collect(radius, tag),))
        for v, res in stepped:
            assert alone.pop(v) == res
        for v, output in outputs.items():
            assert alone.pop(v) == StepResult(states[v], output=output)
        for v in waiting:
            assert alone.pop(v) == StepResult(states[v])
        assert not alone
        return timed, stepped, outputs, waiting


def watched_solve(monkeypatch, solve, scan="forward", counter=CountedSteps):
    """Run `solve` with its engine run in `scan` order, its program wrapped
    in `counter`; returns the transcript and the wrapper."""
    engine = localsim.run
    counted = []

    def run(g, program, round_cap, **options):
        counted.append(counter(program))
        return engine(g, counted[-1], round_cap, **dict(options, scan=scan))

    monkeypatch.setattr(localsim, "run", run)
    _, transcript = solve()
    assert len(counted) == 1
    return transcript, counted[0]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_transcript_digest_is_pinned(monkeypatch, name):
    solve, expected, steps = PINNED[name]
    transcript, counted = watched_solve(monkeypatch, solve)
    assert digest(transcript) == expected
    assert counted.steps == steps


@pytest.mark.parametrize("name", sorted(PINNED))
def test_text_equals_the_join_of_the_dense_views(name):
    _, transcript = PINNED[name][0]()
    assert transcript.serialize() == dense_text(transcript)


REVERSE_SCAN = sorted(PINNED)


@pytest.mark.parametrize("name", REVERSE_SCAN)
def test_reverse_scan_matches_the_pinned_digest(monkeypatch, name):
    solve, expected, steps = PINNED[name]
    transcript, counted = watched_solve(monkeypatch, solve, scan="reverse")
    assert digest(transcript) == expected
    assert counted.steps == steps


@pytest.mark.parametrize("scan", ["forward", "reverse"])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_group_steps_match_the_pinned_digest(monkeypatch, name, scan):
    # the programs step whole timer groups; a member still counts as a step
    solve, expected, steps = PINNED[name]
    transcript, counted = watched_solve(monkeypatch, solve, scan, CountedGroupSteps)
    assert digest(transcript) == expected
    assert counted.steps == steps
    assert 0 < counted.group_calls < steps
    assert counted.step_calls == STEP_CALLS[name]
    assert counted.leave_calls == LEAVE_CALLS[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_group_steps_equal_steps_of_each_member(monkeypatch, name):
    solve, expected, _ = PINNED[name]
    transcript, _ = watched_solve(monkeypatch, solve, counter=CheckedGroupSteps)
    assert digest(transcript) == expected


# the replays on small generated instances, for the group-step property
SMALL_SOLVES = {
    "mvc": lambda seed: mvc_distributed(gen_chordal(40, seed, max_clique=5), 1.0),
    "mis": lambda seed: mis_chordal_distributed(gen_chordal(40, seed, max_clique=5), 0.4),
    "interval-mis": lambda seed: mis_interval_distributed(gen_interval(40, seed), 0.4),
    "interval-coloring": lambda seed: replayed_coloring(gen_interval(40, seed), 2),
    # its input is a connected proper interval graph
    "distance-mis": lambda seed: replayed_distance_mis(gen_path(5 + seed % 40), 2),
}


@pytest.mark.parametrize("name", sorted(SMALL_SOLVES))
@given(seed=st.integers(0, 10_000), scan=st.sampled_from(["forward", "reverse"]))
@settings(max_examples=15, deadline=None)
def test_group_steps_equal_steps_on_small_instances(name, seed, scan):
    solve = SMALL_SOLVES[name]
    with pytest.MonkeyPatch.context() as patch:
        transcript, counted = watched_solve(
            patch, lambda: solve(seed), scan, CheckedGroupSteps)
    assert transcript.complete
    assert counted.group_calls > 0


class Collects(CountedGroupSteps):
    """Records every collect a step asks for, as (node, Collect) pairs."""

    def __init__(self, program):
        super().__init__(program)
        self.collects = []

    def record(self, v, res):
        self.collects.extend((v, req) for req in res.requests if type(req) is Collect)

    def step(self, state, rnd, inbox):
        res = super().step(state, rnd, inbox)
        # a node's state is its id on a schedule, an `_MvcNode` after it
        self.record(getattr(res.state, "id", res.state), res)
        return res

    def step_group(self, states, rnd, key, result, members):
        answer = super().step_group(states, rnd, key, result, members)
        timed, stepped = answer[:2]
        for (tag, radius), group in timed.items():
            self.collects.extend((v, Collect(radius, tag)) for v in group)
        for v, res in stepped:
            self.record(v, res)
        return answer


@pytest.mark.parametrize("name", sorted(PINNED))
def test_replays_read_only_what_correction_waits_for(monkeypatch, name):
    # the MIS and interval replays make timer collects only; every MVC poll
    # reads its level's wait set, the higher-layer neighbours of the level's
    # children by the graph, which is never empty and lies in the poller's
    # closed neighbourhood
    _, watched = watched_solve(monkeypatch, PINNED[name][0], counter=Collects)
    polls = [(v, req) for v, req in watched.collects if req.tag[0] == "poll"]
    assert all(not req.read for v, req in watched.collects if req.tag[0] != "poll")
    assert bool(polls) == name.endswith("-mvc")
    program = watched.program
    for v, req in polls:
        run = program.run
        kids = {i: kids for i, kids, _ in program.levels[v]}[req.tag[1]]
        assert req.radius == program.poll_radius
        assert req.read == graph_wait_set(run.g, run.layering, kids, req.tag[1])
        assert req.read and set(req.read) <= run.g.adj[v] | {v}


def strip_rounds(k):
    """The rounds of the strip routine's stages at parameter k: a gather of
    2k + 12, nine stages of k + 6 and a fill of 3k + 15."""
    return sum([2 * k + 12] + [k + 6] * 9 + [3 * k + 15])


def mis_chordal_cap(eps):
    d = math.ceil(64.0 / eps)
    k = math.ceil(math.log2(d / eps) + 2)
    approx_k = math.ceil(2.5 / (eps / 8.0) + 0.5)
    return 2 * (k * (2 * d + 12) + strip_rounds(approx_k) + 10)


def mvc_cap(n, eps):
    k = math.ceil(2.0 / eps)
    logn = max(1, math.ceil(math.log2(max(2, n))))
    return 40 * k * (logn + 4) + 40 * k


CAP_GRAPH = gen_chordal(60, 1, max_clique=6)
CAP_INTERVAL = gen_interval(60, seed=2)

# entry point -> (solve at a parameter, three or more parameters, the default
# cap at a parameter as the entry point first computed it)
DEFAULT_CAPS = {
    "interval-coloring": (lambda k: replayed_coloring(CAP_INTERVAL, k),
                          (2, 3, 5), lambda k: 2 * (strip_rounds(k) + 10)),
    "distance-mis": (lambda k: replayed_distance_mis(gen_path(40), k),
                     (1, 2, 4), lambda k: 2 * (9 * (k + 1) + 12)),
    "interval-mis": (lambda eps: mis_interval_distributed(CAP_INTERVAL, eps),
                     (0.2, 0.4, 0.9),
                     lambda eps: 2 * (2 + strip_rounds(math.ceil(2.5 / eps + 0.5)) + 10)),
    "chordal-mis": (lambda eps: mis_chordal_distributed(CAP_GRAPH, eps),
                    (0.25, 0.4, 0.49), mis_chordal_cap),
    "mvc": (lambda eps: mvc_distributed(CAP_GRAPH, eps),
            (0.4, 0.5, 1.0), lambda eps: mvc_cap(len(CAP_GRAPH), eps)),
}


@pytest.mark.parametrize("name", sorted(DEFAULT_CAPS))
def test_default_round_caps_keep_their_formulas(monkeypatch, name):
    solve, params, cap = DEFAULT_CAPS[name]
    engine = localsim.run
    caps = []

    def run(g, program, round_cap, **options):
        caps.append(round_cap)
        return engine(g, program, round_cap, **options)

    monkeypatch.setattr(localsim, "run", run)
    for param in params:
        solve(param)
    assert caps == [cap(param) for param in params]


# the flooding program on its own: sha256 of the serialized transcript and
# the message log, whose rounds list their messages in scan order
GATHER_GRAPHS = {
    "spider": lambda: gen_spider(3, 4),
    "path": lambda: gen_path(7),
    "chordal": lambda: gen_chordal(60, 3, 5),
    "isolated": lambda: Graph(nodes=[1, 2, 3]),
}

# (graph, radius) -> (forward digest, reverse digest); recorded when the
# engine still stepped every node of a gather in every round
GATHER_PINNED = {
    ("spider", 1): ("c755d5e9372d030436694a7be5bf147be2237b44ddbd614ee26afe13b229e082",
                    "579a8d11016d2f867677688dc7f48e7f7434c0c5700c46984a607b7c5cea40ce"),
    ("spider", 2): ("a8b7a891565981fb8c29bc15505ca2bfba54c020e3d533fb3f16407a90f04cb0",
                    "ecf75e920d8f5d5f51a1799eacd0e833bece7bc7c3a7856c6be32a492ac1a5cb"),
    ("spider", 3): ("aa35e142d6f2ff8251a16b71f83784c2ecdb8ee30b43fffddf9287a80dd528ad",
                    "d98793533e31da419839be1fa0acfa8fcb6051ad0d6169bc42c40a1a51a8cba3"),
    ("spider", 5): ("198a6e15f27794f8c3256c140425b0a9393225460c53253ad570b4eddf36fc71",
                    "0c8d0783a200aa50b0c4c04b102f5b62343f3e553b770148e45bbf1ea5745342"),
    ("path", 1): ("6f0630dd4397d8efb95cd1fe6e1ce998f2fad67cbd0f64156d31ce31b28a0fdc",
                  "a7867bd06bc1b8d80e5ee0e2d5ae4559c96b0e0a9fc078b8549dd8a36b3bbebb"),
    ("path", 2): ("57b5fb635a5282aa00cd3fa891bf6960a24614d8b76367c64685f25cbc4ae5bc",
                  "9e3a354dad15db3d4597766186112b4b9449de7135787330404d32aeae3d94e1"),
    ("path", 3): ("79c4c46105dbbb3dd1d0e42c58d25ae6b7a6c8f3ca9cc597f14f70e51d50b9e6",
                  "115bf0508c8a576d428a29b5e2ed91c310d20d6488c4f4ee611b040ac199d6fc"),
    ("path", 5): ("7565b05864949ef3421a8c8e85fbb9a81c7d71d340d5ee2fc743715dd075b204",
                  "6336b923a902450b8189659576f1e086a3d52e8f326f9706c61b5ca89c3fbffd"),
    ("chordal", 1): ("4bc37e7758eed9e3719a385ef681303ccf7f519a2b704ce26baeca85ec59a68f",
                     "c8063424bac957f6188219ac56068155aaf66496b6019c0c67d8b232d140396e"),
    ("chordal", 2): ("cf232c6612f15acf81a9bd304717339d847064273a95f0c1034072160365475a",
                     "85508aaad2910966f7242f8ce6cd6ea3b6778b7f391e7e174fd70381d89966f2"),
    ("chordal", 3): ("b9e28cd6cab4b55de9b741e78e48f83fdfe1385e0bfc5df2f2f25d9b31d0ec2c",
                     "951fa2389f667e36ce4996fbe9349ea16fb544a0b2d574547b86d0be87c3a0ec"),
    ("chordal", 5): ("44a4a6a36c22887421ef7f01685412231785e0744da97ad5c300805a0c994c10",
                     "bfa5e4bdda6b04e9c956ddc3951321f3823d09aea9ba83aa7b7f9e910006b5c9"),
    ("isolated", 1): ("4182f810ac463a583bfe867bc7dac6562ab1eaa1f84c757e7aed295ba2a39751",
                      "4182f810ac463a583bfe867bc7dac6562ab1eaa1f84c757e7aed295ba2a39751"),
    ("isolated", 2): ("4fbf0d999525df6851cdfbbb304dfd0cee73788e368152cd7100b16d597539b6",
                      "4fbf0d999525df6851cdfbbb304dfd0cee73788e368152cd7100b16d597539b6"),
    ("isolated", 3): ("1b55419f3edaac541868d98d7db84384cd9cf032f1c644c2d4abfa490335945b",
                      "1b55419f3edaac541868d98d7db84384cd9cf032f1c644c2d4abfa490335945b"),
    ("isolated", 5): ("bcd322150193739c6ba09de0b5f9b0c6784498fe2e2da667b91f03736dd0b1f8",
                      "bcd322150193739c6ba09de0b5f9b0c6784498fe2e2da667b91f03736dd0b1f8"),
}


@pytest.mark.parametrize("scan", ["forward", "reverse"])
@pytest.mark.parametrize("name,radius", sorted(GATHER_PINNED))
def test_gather_transcript_and_message_log_are_pinned(name, radius, scan):
    t = localsim.run(GATHER_GRAPHS[name](), GatherProgram(radius), 20,
                     record_messages=True, scan=scan)
    text = t.serialize() + repr(t.message_log)
    expected = GATHER_PINNED[name, radius][scan == "reverse"]
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def test_dumbbell_reaches_internal_peel_and_approx_branch():
    from chordalg.cliqueforest import INTERNAL
    from chordalg.mis import mis_chordal_run
    from chordalg.mvc import prune_layers

    records = prune_layers(DUMBBELL, 2).peeled_paths.values()
    assert any(r.kind == INTERNAL for rs in records for r in rs)
    assert "approx" in mis_chordal_run(DUMBBELL, 0.4).state.branch.values()


def test_long_paths_reach_internal_peel_approx_branch_and_wide_palette():
    from chordalg.cliqueforest import INTERNAL
    from chordalg.mis import mis_chordal_run
    from chordalg.mvc import mvc_pipeline

    run = mvc_pipeline(LONG_PATHS, 0.5)
    records = run.layering.peeled_paths.values()
    assert any(r.kind == INTERNAL for rs in records for r in rs)
    assert max(run.final_colors.values()) > run.omega
    assert "approx" in mis_chordal_run(LONG_PATHS, 0.4).state.branch.values()


# (n, seed, max_clique, eps) of long-path instances on which exactly one
# correction job takes the joint branch, one `extend_coloring` over the
# whole strip with both sides fixed -> (coloring digest, transcript digest,
# rounds), recorded before the job was rewritten to read only its record
JOINT_BRANCH_PINNED = {
    (200, 30, 6, 0.4): ("1ba33f45fe5f6a3704f5bb2fd560738a675769ab40cd5fa8a35ae6fa42236697",
                        "b96ac02b3ac05461fac92818afafd28d481a36486009fee722003e8eed71de21",
                        282),
    (400, 16, 4, 0.5): ("a0b6e678ee31f8465c479f492d29e7188e446ddf6ab813a11d9b417b3593a6bd",
                        "3b895ee1297d5a50e299e3fddb22ac85c24bc294d8471e8c81749661be0c1b91",
                        245),
}


@pytest.mark.parametrize("case", sorted(JOINT_BRANCH_PINNED),
                         ids=lambda case: "longpaths-%d-%d-%d-%s" % case)
def test_joint_correction_branch_is_pinned(monkeypatch, case):
    from chordalg import mvc
    from chordalg.fileio import coloring_to_text

    jobs = []  # [record, joint extend_coloring calls]
    real_job, real_extend = mvc.build_correction_job, mvc.extend_coloring

    def job(record, colors, k):
        jobs.append([record, 0])
        return real_job(record, colors, k)

    def extend(strip, budget, fixed):
        # joint: the record's whole strip, with W' nodes of two distinct
        # sides in its end cliques, all fixed
        record = jobs[-1][0]
        wprime = set().union(*record.cliques).difference(record.members)
        ends = [wprime & strip.cliques[0], wprime & strip.cliques[-1]]
        if (len(strip.cliques) == len(record.cliques) and all(ends)
                and ends[0].isdisjoint(ends[1]) and fixed.keys() >= ends[0] | ends[1]):
            jobs[-1][1] += 1
        return real_extend(strip, budget, fixed)

    monkeypatch.setattr(mvc, "build_correction_job", job)
    monkeypatch.setattr(mvc, "extend_coloring", extend)
    n, seed, max_clique, eps = case
    colors, transcript = mvc_distributed(long_paths_generator()(n, seed, max_clique), eps)
    assert sum(joint for _, joint in jobs) == 1
    want_colors, want_transcript, rounds = JOINT_BRANCH_PINNED[case]
    assert hashlib.sha256(coloring_to_text(colors).encode()).hexdigest() == want_colors
    assert digest(transcript) == want_transcript
    assert transcript.rounds_elapsed == rounds
