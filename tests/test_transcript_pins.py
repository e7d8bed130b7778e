"""Simulated transcripts pinned byte for byte.

The digests were recorded before the engine's Send check and the programs'
stage schedules were reworked, and before the engine skipped quiet rounds;
any change to rounds, traffic or outputs of these runs shows up here. Every
run must reproduce them when the engine steps each round's nodes in reverse
order, too. The node-steps of each run are pinned as well: the transcript
fixes them, so a faster engine must make steps cheaper, not fewer. Both hold
when the programs step whole timer groups, each member counted as a step.
"""

import copy
import hashlib

import pytest

from chordalg import (
    color_interval_distributed, gen_chordal, gen_interval, mis_chordal_distributed,
    mis_interval_distributed, mvc_distributed,
)
from chordalg import localsim
from chordalg.localsim import Collect, StepResult

from conftest import dumbbell


def digest(transcript):
    return hashlib.sha256(transcript.serialize().encode()).hexdigest()


TREE = gen_chordal(300, seed=11, max_clique=6)
# the bridge peels as an internal path, and its independent set takes the
# approximate branch
DUMBBELL = dumbbell(3, 5, 400)
INTERVAL = gen_interval(200, seed=3)


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
    "interval-mis": (lambda: mis_interval_distributed(INTERVAL, 0.4),
                     "be7157c03257622f460baad99722f625c7e7e35add21357e41e18a8b281dfde1",
                     487),
    "interval-coloring": (lambda: color_interval_distributed(INTERVAL, 3),
                          "b3e05b87db27fe3a346b30d0ce2e48336a4939a0435790af8cf886d529c24f74",
                          2400),
}


class CountedSteps:
    """A node program that counts the steps of the program it wraps."""

    def __init__(self, program):
        self.program = program
        self.step_every_round = getattr(program, "step_every_round", True)
        self.steps = 0

    def init(self, node, neighbors):
        return self.program.init(node, neighbors)

    def step(self, state, rnd, inbox):
        self.steps += 1
        return self.program.step(state, rnd, inbox)


class CountedGroupSteps(CountedSteps):
    """Also forwards `step_group`, counting each member as one node-step; a
    program without one has each member stepped through `step`."""

    def __init__(self, program):
        super().__init__(program)
        self.group_calls = 0

    def step_group(self, states, rnd, key, result, members):
        self.steps += len(members)
        self.group_calls += 1
        program = self.program
        if hasattr(program, "step_group"):
            return program.step_group(states, rnd, key, result, members)
        return {}, [(v, program.step(states[v], rnd, {key: result}))
                    for v in members]


class CheckedGroupSteps(CountedGroupSteps):
    """Checks every group step against `step` on a copy of each member."""

    def step_group(self, states, rnd, key, result, members):
        alone = {v: self.program.step(copy.deepcopy(states[v]), rnd, {key: result})
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


def watched_solve(monkeypatch, name, scan="forward", counter=CountedSteps):
    """Run a pinned solve with its engine run in `scan` order, its program
    wrapped in `counter`; returns the transcript and the wrapper."""
    engine = localsim.run
    counted = []

    def run(g, program, round_cap, **options):
        counted.append(counter(program))
        return engine(g, counted[-1], round_cap, **dict(options, scan=scan))

    monkeypatch.setattr(localsim, "run", run)
    _, transcript = PINNED[name][0]()
    assert len(counted) == 1
    return transcript, counted[0]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_transcript_digest_is_pinned(monkeypatch, name):
    _, expected, steps = PINNED[name]
    transcript, counted = watched_solve(monkeypatch, name)
    assert digest(transcript) == expected
    assert counted.steps == steps


REVERSE_SCAN = sorted(PINNED)


@pytest.mark.parametrize("name", REVERSE_SCAN)
def test_reverse_scan_matches_the_pinned_digest(monkeypatch, name):
    _, expected, steps = PINNED[name]
    transcript, counted = watched_solve(monkeypatch, name, scan="reverse")
    assert digest(transcript) == expected
    assert counted.steps == steps


@pytest.mark.parametrize("scan", ["forward", "reverse"])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_group_steps_match_the_pinned_digest(monkeypatch, name, scan):
    # the programs step whole timer groups; a member still counts as a step
    _, expected, steps = PINNED[name]
    transcript, counted = watched_solve(monkeypatch, name, scan, CountedGroupSteps)
    assert digest(transcript) == expected
    assert counted.steps == steps
    assert 0 < counted.group_calls < steps


@pytest.mark.parametrize("name", sorted(PINNED))
def test_group_steps_equal_steps_of_each_member(monkeypatch, name):
    _, expected, _ = PINNED[name]
    transcript, _ = watched_solve(monkeypatch, name, counter=CheckedGroupSteps)
    assert digest(transcript) == expected


def test_dumbbell_reaches_internal_peel_and_approx_branch():
    from chordalg.cliqueforest import INTERNAL
    from chordalg.mis import mis_chordal_run
    from chordalg.mvc import prune_layers

    records = prune_layers(DUMBBELL, 2).peeled_paths.values()
    assert any(r.kind == INTERNAL for rs in records for r in rs)
    assert "approx" in mis_chordal_run(DUMBBELL, 0.4).state.branch.values()
