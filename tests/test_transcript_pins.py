"""Simulated transcripts pinned byte for byte.

The digests were recorded before the engine's Send check and the programs'
stage schedules were reworked, and before the engine skipped quiet rounds;
any change to rounds, traffic or outputs of these runs shows up here. Every
run must reproduce them when the engine steps each round's nodes in reverse
order, too. The node-steps of each run are pinned as well: the transcript
fixes them, so a faster engine must make steps cheaper, not fewer. Both hold
when the programs step whole timer groups, each member counted as a step.
The calls of a program's per-node `step` are pinned apart from node-steps:
a group that falls back to stepping each member shows up there.
"""

import copy
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from chordalg import (
    Graph, color_interval_distributed, distance_k_mis_distributed, gen_chordal,
    gen_interval, gen_path, gen_spider, mis_chordal_distributed,
    mis_interval_distributed, mvc_distributed,
)
from chordalg import localsim
from chordalg.localsim import Collect, StepResult

from conftest import dumbbell, long_paths_generator


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


# name -> (solve, transcript digest, node-steps of the run); the step counts
# were recorded with the digests' engine, before node-steps were made cheaper
PINNED = {
    "tree-mvc": (lambda: mvc_distributed(TREE, 0.5),
                 "67032f72e3b7493e7192092155ac922ab00b3456faac91520e8c268c9756ff7b",
                 4366),
    "tree-mis": (lambda: mis_chordal_distributed(TREE, 0.4),
                 "5b542e0b67f07f1ac026e7c013681abaafe0d31cf7fa46ab45bcfbabfe56ff91",
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
                      "3b4f5f7779e5c654dabc5c202e9265d9d8d6521fdc4d56523355db3482f70fd1",
                      15208),
    "interval-mis": (lambda: mis_interval_distributed(INTERVAL, 0.4),
                     "be7157c03257622f460baad99722f625c7e7e35add21357e41e18a8b281dfde1",
                     487),
    "interval-coloring": (lambda: color_interval_distributed(INTERVAL, 3),
                          "b3e05b87db27fe3a346b30d0ce2e48336a4939a0435790af8cf886d529c24f74",
                          2400),
}

# name -> calls of the program's `step` when the engine steps timer groups,
# round 0 included; only MVC's correction tail steps node by node
STEP_CALLS = {
    "tree-mvc": 327, "tree-mis": 0, "dumbbell-mvc": 42, "dumbbell-mis": 0,
    "longpaths-mvc": 93, "longpaths-mis": 0, "interval-mis": 0,
    "interval-coloring": 0,
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
    in `step_calls`."""

    def __init__(self, program):
        super().__init__(program)
        self.group_calls = 0
        self.step_calls = 0
        step = program.step

        def counted_step(*args):
            self.step_calls += 1
            return step(*args)

        program.step = counted_step

    def step_group(self, states, rnd, key, result, members):
        self.steps += len(members)
        self.group_calls += 1
        program = self.program
        if hasattr(program, "step_group"):
            return program.step_group(states, rnd, key, result, members)
        return {}, [(v, program.step(states[v], rnd, inbox_of(key, result)))
                    for v in members]


class CheckedGroupSteps(CountedGroupSteps):
    """Checks every group step against `step` on a copy of each member."""

    def step_group(self, states, rnd, key, result, members):
        alone = {v: self.program.step(copy.deepcopy(states[v]), rnd,
                                      inbox_of(key, result))
                 for v in members}
        timed, stepped = super().step_group(states, rnd, key, result, members)
        for (tag, radius), group in timed.items():
            for v in group:
                assert alone.pop(v) == StepResult(
                    states[v], requests=(Collect(radius, tag, want_data=False),))
        for v, res in stepped:
            assert alone.pop(v) == res
        assert not alone
        return timed, stepped


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
    "interval-coloring": lambda seed: color_interval_distributed(gen_interval(40, seed), 2),
    # its input is a connected proper interval graph
    "distance-mis": lambda seed: distance_k_mis_distributed(gen_path(5 + seed % 40), 2),
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


class PublishedKeys(CountedGroupSteps):
    """Records the name of every variable a step publishes."""

    def __init__(self, program):
        super().__init__(program)
        self.keys = set()

    def step(self, state, rnd, inbox):
        res = super().step(state, rnd, inbox)
        self.keys.update(res.publish or ())
        return res

    def step_group(self, states, rnd, key, result, members):
        timed, stepped = super().step_group(states, rnd, key, result, members)
        for _, res in stepped:
            self.keys.update(res.publish or ())
        return timed, stepped


@pytest.mark.parametrize("name", sorted(PINNED))
def test_replays_publish_only_what_correction_reads(monkeypatch, name):
    # every collect of the replays is a timer; MVC publishes its final
    # colors, which a correction wait is to read
    _, published = watched_solve(monkeypatch, PINNED[name][0], counter=PublishedKeys)
    assert published.keys == ({"final"} if name.endswith("-mvc") else set())


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
    t = localsim.run(GATHER_GRAPHS[name](), localsim.gather(radius), 20,
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
