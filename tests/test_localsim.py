import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordalg import (
    Graph, RoundCapExceeded, Transcript, gen_chordal, gen_interval, gen_path,
    gen_spider, mis_chordal_distributed, mis_interval_distributed, mvc_distributed,
)
from chordalg.graphs import bfs_distances
from chordalg.localsim import (
    NO_OUTPUT, Collect, CollectResult, GatherProgram, Send, StagedProgram,
    StepResult, run, stage_chain,
)

from conftest import cycle_graph, small_graphs
from reference_engine import dense_text, reference_run


class Echo:
    def init(self, node, neighbors):
        return node

    def step(self, state, rnd, inbox):
        if rnd == 1:
            return StepResult(state, output=state)
        return StepResult(state, wake_at=1)


class Sleeper:
    """Outputs only after `patience` rounds; used for cap tests."""

    def __init__(self, patience):
        self.patience = patience

    def init(self, node, neighbors):
        return node

    def step(self, state, rnd, inbox):
        if rnd >= self.patience:
            return StepResult(state, output=state)
        return StepResult(state, wake_at=self.patience)


def test_echo_one_round():
    t = run(gen_path(4), Echo(), 10)
    assert t.rounds_elapsed == 1
    assert t.outputs == {1: 1, 2: 2, 3: 3, 4: 4}
    assert t.complete


def test_gather_radius_two_on_path_center():
    t = run(gen_path(5), GatherProgram(2), 10)
    assert t.rounds_elapsed == 2
    assert sorted(t.outputs[3]) == [1, 2, 3, 4, 5]


def test_gather_radius_below_one_raises():
    with pytest.raises(ValueError, match="radius must be >= 1"):
        GatherProgram(0)


def test_gather_learns_exact_ball():
    n, k = 9, 3
    t = run(gen_path(n), GatherProgram(k), 10)
    mid = 5
    assert len(t.outputs[mid]) == min(2 * k + 1, n)
    assert len(t.outputs[1]) == k + 1


def test_gather_star_center_one_round():
    star = Graph([(1, v) for v in range(2, 6)])
    t = run(star, GatherProgram(1), 5)
    assert t.rounds_elapsed == 1
    assert sorted(t.outputs[1]) == [1, 2, 3, 4, 5]


def test_gather_carries_local_vars():
    g = gen_path(4)
    t = run(g, GatherProgram(3, local_vars={v: v * 10 for v in g.nodes}), 10)
    know = t.outputs[2]
    assert know[4][1] == 40 and know[1][1] == 10


def test_round_cap_exceeded_carries_partial_transcript():
    with pytest.raises(RoundCapExceeded) as exc:
        run(gen_path(3), Sleeper(50), 5)
    t = exc.value.transcript
    assert not t.complete
    assert t.rounds_elapsed == 5


def test_transcript_deterministic_and_scan_independent():
    g = gen_spider(3, 4)
    a = run(g, GatherProgram(3), 10).serialize()
    b = run(g, GatherProgram(3), 10).serialize()
    c = run(g, GatherProgram(3), 10, scan="reverse").serialize()
    assert a == b == c


def test_no_oracle_leakage():
    # two graphs agreeing on the radius-2 ball of node 5
    base = [(i, i + 1) for i in range(1, 9)]
    g1 = Graph(base)
    g2 = Graph(base + [(1, 9)])
    o1 = run(g1, GatherProgram(2), 10).outputs[5]
    o2 = run(g2, GatherProgram(2), 10).outputs[5]
    assert o1 == o2


class Reader:
    """Node 1 reads the outputs of `read` with a collect of `radius` asked
    for in round 2, and outputs what it got. Node v outputs 10 v in round
    ``finish.get(v, 0)``."""

    def __init__(self, read, radius, finish):
        self.read, self.radius, self.finish = read, radius, finish

    def init(self, node, neighbors):
        return node

    def step(self, v, rnd, inbox):
        if v == 1:
            if rnd == 0:
                return StepResult(v, wake_at=2)
            if rnd == 2:
                return StepResult(v, requests=[Collect(self.radius, "r", self.read)])
            return StepResult(v, output=inbox[("collect", "r")].outputs)
        at = self.finish.get(v, 0)
        if rnd < at:
            return StepResult(v, wake_at=at)
        return StepResult(v, output=10 * v)


@pytest.mark.parametrize("scan", ["forward", "reverse"])
def test_a_read_sees_the_outputs_at_the_end_of_the_request_round(scan):
    # nodes 2 and 3 output in round 2, when node 1 asks, whichever steps
    # first; node 4 outputs a round later, and node 5 never
    program = Reader((5, 4, 3, 2), 4, {2: 2, 3: 2, 4: 3, 5: 99})
    with pytest.raises(RoundCapExceeded) as exc:
        run(gen_path(5), program, 20, scan=scan)
    t = exc.value.transcript
    assert t.outputs[1] == {3: 30, 2: 20}
    assert list(t.outputs[1]) == [3, 2]  # in the order read
    with pytest.raises(RoundCapExceeded) as ref:
        reference_run(gen_path(5), program, 20, scan=scan)
    assert t.serialize() == ref.value.transcript.serialize()


@pytest.mark.parametrize("read,radius", [((4,), 2), ((2, 5), 3), ((9,), 10), ((99,), 10)],
                         ids=["beyond", "one of two beyond", "other component",
                              "no node"])
def test_a_read_beyond_its_radius_raises(read, radius):
    g = Graph([(1, 2), (2, 3), (3, 4), (4, 5), (8, 9)])
    with pytest.raises(RuntimeError, match="node %d is not within radius %d of "
                       "reader 1" % (read[-1], radius)):
        run(g, Reader(read, radius, {}), 20)
    t = run(g, Reader(read[:-1] + (3,), radius, {}), 20)  # 3 is two hops away
    assert t.outputs[1] == {v: 10 * v for v in read[:-1] + (3,)}


def test_background_forwarding_across_finished_nodes():
    # every node but 1 finishes in round 0; node 1 still reads node 5, four
    # hops away, through them afterwards
    t = run(gen_path(5), Reader((5,), 4, {}), 30)
    assert t.outputs == {1: {5: 50}, 2: 20, 3: 30, 4: 40, 5: 50}
    assert t.rounds_elapsed == 6


def test_send_multi_hop_latency_is_enforced():
    class BadSend:
        def init(self, node, neighbors):
            return node

        def step(self, state, rnd, inbox):
            if rnd == 0 and state == 1:
                return StepResult(state, requests=[Send(4, "hi", latency=1)])
            return StepResult(state, output=0)

    with pytest.raises(RuntimeError):
        run(gen_path(4), BadSend(), 10)


class Relay:
    """Node 1 sends `send`, by default "hi" to node 4 with latency 3; node 4
    outputs what it received and when."""

    def __init__(self, send=Send(4, "hi", latency=3)):
        self.send = send

    def init(self, node, neighbors):
        return node

    def step(self, state, rnd, inbox):
        if rnd == 0 and state == 1:
            return StepResult(state, output=0, requests=[self.send])
        for key, payload in inbox.items():
            if key[0] == "msg":
                return StepResult(state, output=(key[1], payload, rnd))
        if state != 4:
            return StepResult(state, output=0)
        return StepResult(state)


def test_send_multi_hop_delivery():
    t = run(gen_path(4), Relay(), 10)
    assert t.outputs[4] == (1, "hi", 3)


def test_write_once_output_enforced():
    class Flipper:
        def init(self, node, neighbors):
            return node

        def step(self, state, rnd, inbox):
            if state == 1 and rnd >= 1:
                # changes every round
                return StepResult(state, output=rnd, wake_at=rnd + 1)
            if state == 2 and rnd >= 3:
                return StepResult(state, output=0)
            return StepResult(state, wake_at=rnd + 1)

    with pytest.raises(RuntimeError):
        run(gen_path(2), Flipper(), 5)


def test_message_log_records_traffic():
    from chordalg.localsim import run as sim_run
    t = sim_run(gen_path(3), GatherProgram(2), 10, record_messages=True)
    assert t.message_log is not None
    assert any(log for log in t.message_log)
    senders = {s for log in t.message_log for (s, _r, _p) in log}
    assert senders == {1, 2, 3}


def test_staged_program_rounds():
    g = gen_path(4)
    table = {None: (None, ("a", 0), {}), **stage_chain("a", [2, 3])}
    t = run(g, StagedProgram(table, {v: v for v in g.nodes}), 20)
    assert t.rounds_elapsed == 5
    assert t.outputs == {v: v for v in g.nodes}


@pytest.mark.parametrize("scan", ["forward", "reverse"])
def test_staged_program_moves_the_exceptions_elsewhere(scan):
    # nodes 1 and 2 leave after stage ("a", 0), node 4 takes the b stages and
    # node 3 the rest of the a stages
    table = {None: (None, ("a", 0), {}),
             **stage_chain("a", [2, 3]), **stage_chain("b", [1, 1, 4])}
    table["a", 0] = (2, ("a", 1), {None: frozenset({1, 2}), ("b", 0): frozenset({4})})
    program = StagedProgram(table, {v: -v for v in range(1, 5)})
    steps = []
    step = program.step
    program.step = lambda *args: steps.append(args) or step(*args)
    t = run(gen_path(4), program, 20, scan=scan)
    assert t.outputs == {v: -v for v in range(1, 5)}
    assert t.rounds_elapsed == 8
    assert t.service_counts[:3] == [4, 0, 2] and sum(t.service_counts) == 8
    assert steps == []  # every step was a group step
    expected = reference_run(gen_path(4), StagedProgram(table, program.outputs), 20,
                             scan=scan)
    assert t.serialize() == expected.serialize()
    # a step reads its stage off its inbox's key
    due = {("collect", ("a", 0)): None}
    assert step(1, 2, due) == StepResult(1, output=-1)
    assert step(3, 2, due) == StepResult(3, requests=(Collect(3, ("a", 1)),))
    assert step(4, 2, due) == StepResult(4, requests=(Collect(1, ("b", 0)),))
    assert step(4, 0, {}) == StepResult(4, requests=(Collect(2, ("a", 0)),))


class PlannedSends:
    """Node 1 issues the planned Sends per round and outputs after the last
    planned round; every other node outputs at once."""

    def __init__(self, plan):
        self.plan = plan  # round -> list of Send

    def init(self, node, neighbors):
        return node

    def step(self, state, rnd, inbox):
        if state != 1:
            return StepResult(state, output=0) if rnd == 0 else StepResult(state)
        later = [r for r in self.plan if r > rnd]
        if later:
            return StepResult(state, requests=list(self.plan.get(rnd, [])),
                              wake_at=min(later))
        return StepResult(state, output=0, requests=list(self.plan.get(rnd, [])))


def test_send_latency_equal_to_distance_is_accepted():
    t = run(gen_path(6), PlannedSends({0: [Send(6, "x", latency=5)]}), 10)
    assert t.complete


def test_send_latency_one_below_distance_raises():
    with pytest.raises(RuntimeError):
        run(gen_path(6), PlannedSends({0: [Send(6, "x", latency=4)]}), 10)


@pytest.mark.parametrize("target", [3, 99])
def test_send_outside_the_senders_component_raises(target):
    g = Graph([(1, 2), (3, 4)])  # 3 is in another component, 99 is no node
    with pytest.raises(RuntimeError):
        run(g, PlannedSends({0: [Send(target, "x", latency=10)]}), 20)


def test_send_check_resumes_a_ball_grown_for_a_near_target():
    # distances from node 1 on the path: node j sits at j - 1
    near = Send(3, "near", latency=5)
    with pytest.raises(RuntimeError):
        run(gen_path(10), PlannedSends({0: [near], 2: [Send(9, "far", latency=7)]}), 20)
    t = run(gen_path(10), PlannedSends({0: [near], 2: [Send(8, "at", latency=7)]}), 20)
    assert t.complete


def test_send_check_rejects_a_target_inside_a_ball_grown_deeper():
    deep = Send(10, "deep", latency=9)
    with pytest.raises(RuntimeError):
        run(gen_path(10), PlannedSends({0: [deep], 2: [Send(8, "x", latency=6)]}), 20)
    t = run(gen_path(10), PlannedSends({0: [deep], 2: [Send(8, "x", latency=7)]}), 20)
    assert t.complete


# Sends from node 1 to node 4 of the cycle 1 - 2 - ... - 7 - 1, three hops
# away, whose routes are not a path of at most `latency` edges from the
# sender to the target; the target is within the latency, so only the route
# is at fault
BAD_ROUTES = {
    "a non-edge": Send(4, "x", 3, (1, 2, 4)),
    "one edge over the latency": Send(4, "x", 3, (1, 7, 6, 5, 4)),
    "wrong first node": Send(4, "x", 3, (2, 3, 4)),
    "wrong last node": Send(4, "x", 3, (1, 2, 3)),
    "no node": Send(4, "x", 3, ()),
    "a node not in g": Send(4, "x", 3, (1, 9, 4)),
}


@pytest.mark.parametrize("name", sorted(BAD_ROUTES))
def test_send_with_a_bad_route_raises(name):
    send = BAD_ROUTES[name]
    assert run(cycle_graph(7), PlannedSends({0: [replace(send, route=None)]}), 10).complete
    with pytest.raises(RuntimeError, match="is not a path of at most latency 3 "
                       "from sender 1 to 4"):
        run(cycle_graph(7), PlannedSends({0: [send]}), 10)


def test_send_route_of_exactly_latency_edges_is_accepted():
    # the long way round, one edge longer than the distance
    t = run(cycle_graph(7), Relay(Send(4, "hi", 4, (1, 7, 6, 5, 4))), 10)
    assert t.outputs[4] == (1, "hi", 4)


# rounds in which no node has a delivery or a wake are skipped; the tests
# below pin what the transcript records for them


class IdleWaiter:
    """Node 1 wakes once in round 3 and never outputs; the rest output at
    once."""

    def init(self, node, neighbors):
        return node

    def step(self, state, rnd, inbox):
        if state != 1:
            return StepResult(state, output=0) if rnd == 0 else StepResult(state)
        return StepResult(state, wake_at=3) if rnd == 0 else StepResult(state)


class SteppedIdleWaiter(IdleWaiter):
    """`IdleWaiter` whose node 1 wakes in every round."""

    def step(self, state, rnd, inbox):
        res = super().step(state, rnd, inbox)
        if state == 1:
            res.wake_at = rnd + 1
        return res


def test_idle_program_pads_to_the_cap():
    cap = 12
    with pytest.raises(RoundCapExceeded) as exc:
        run(gen_path(3), IdleWaiter(), cap)
    t = exc.value.transcript
    assert not t.complete
    assert t.rounds_elapsed == cap
    assert len(t.message_counts) == len(t.service_counts) == cap + 1
    assert t.message_counts == t.service_counts == [0] * (cap + 1)
    assert t.rounds_recorded == cap + 1 and t.traffic == {} and t.message_log is None
    with pytest.raises(RoundCapExceeded) as stepped:
        run(gen_path(3), SteppedIdleWaiter(), cap)
    assert stepped.value.transcript.serialize() == t.serialize()


def test_message_log_holds_the_skipped_rounds():
    t = run(gen_path(4), Relay(), 10, record_messages=True)
    assert t.rounds_elapsed == 3
    assert len(t.message_log) == len(t.message_counts) == 4
    assert t.message_log == [[(1, 4, "hi")], [], [], []]
    assert t.service_counts == [1, 0, 0, 0]
    # only round 0 carried traffic, and only it is stored
    assert t.rounds_recorded == 4
    assert t.traffic == {0: (0, 1)} and t.log == {0: [(1, 4, "hi")]}


def test_delivery_and_wake_in_one_round_step_once():
    class WakeAndMessage:
        """Node 1 messages node 2, which also asks to wake in round 1."""

        def __init__(self):
            self.steps = []

        def init(self, node, neighbors):
            return node

        def step(self, state, rnd, inbox):
            if state == 1:
                if rnd == 0:
                    return StepResult(state, outbox={2: "hi"}, output=0)
                return StepResult(state)
            self.steps.append((rnd, sorted(inbox)))
            if rnd == 0:
                return StepResult(state, wake_at=1)
            return StepResult(state, output=rnd)

    program = WakeAndMessage()
    t = run(gen_path(2), program, 10)
    assert program.steps == [(0, []), (1, [("msg", 1)])]
    assert t.outputs == {1: 0, 2: 1}


def test_timer_collects_share_one_result():
    class Timer:
        def __init__(self):
            self.received = []

        def init(self, node, neighbors):
            return node

        def step(self, state, rnd, inbox):
            if rnd == 0:
                return StepResult(state, requests=[Collect(2, tag="t")])
            self.received.append(inbox[("collect", "t")])
            return StepResult(state, output=rnd)

    program = Timer()
    t = run(gen_path(5), program, 10)
    assert t.outputs == {v: 2 for v in range(1, 6)}
    first = program.received[0]
    assert first == CollectResult("t", 2)
    assert all(result is first for result in program.received)


@pytest.mark.parametrize("request_", [Collect(0, tag="t"),
                                      Send(1, "self", latency=0)])
def test_delivery_in_the_requesting_round_raises(request_):
    with pytest.raises(RuntimeError):
        run(gen_path(3), PlannedSends({0: [request_]}), 10)


@pytest.mark.parametrize("solve", [
    lambda cap: mvc_distributed(gen_chordal(50, seed=1, max_clique=4), 0.5,
                                round_cap=cap),
    lambda cap: mis_chordal_distributed(gen_chordal(50, seed=1, max_clique=4), 0.4,
                                        round_cap=cap),
    lambda cap: mis_interval_distributed(gen_interval(40, seed=1), 0.4, round_cap=cap),
], ids=["mvc", "mis-chordal", "mis-interval"])
def test_wrappers_hand_an_explicit_round_cap_of_zero_to_the_engine(solve):
    with pytest.raises(ValueError, match="round_cap must be >= 1"):
        solve(0)
    with pytest.raises(RoundCapExceeded):
        solve(1)


def test_a_later_item_with_the_same_key_replaces_an_earlier_one():
    class TwoItems:
        """Node 1 messages node 2 and sends it a latency-1 Send in the same
        step; both land in round 1 under the key ("msg", 1)."""

        def __init__(self):
            self.inboxes = []

        def init(self, node, neighbors):
            return node

        def step(self, state, rnd, inbox):
            if state == 1:
                return StepResult(state, outbox={2: "first"}, output=0,
                                  requests=[Send(2, "second", latency=1)])
            if rnd == 0:
                return StepResult(state, outbox={1: "hello"})
            self.inboxes.append(list(inbox.items()))
            return StepResult(state, output=0)

    program = TwoItems()
    t = run(gen_path(2), program, 5, record_messages=True)
    assert program.inboxes == [[(("msg", 1), "second")]]
    assert t.message_counts[0] == 2
    assert t.message_log[0] == [(1, 2, "first"), (1, 2, "second"), (2, 1, "hello")]


class BadAtDue:
    """Every node asks for a timer in round 0. When it is due, node 1 returns
    `bad(rnd)` and the others output 0; node 1 outputs "first" in round 0."""

    def __init__(self, bad):
        self.bad = bad

    def init(self, node, neighbors):
        return node

    def step(self, v, rnd, inbox):
        if rnd == 0:
            return StepResult(v, output="first" if v == 1 else NO_OUTPUT,
                              requests=(Collect(2, tag="t"),))
        return self.bad(rnd) if v == 1 else StepResult(v, output=0)


def only_outputs(res, state):
    """Whether a step's result does nothing but output, so that a group step
    may answer it in its outputs map."""
    return (res.output is not NO_OUTPUT and res.state == state and not res.outbox
            and not res.requests and res.wake_at is None)


def only_waits(res, state):
    """Whether a step's result does nothing at all, so that a group step may
    answer it as a waiting member."""
    return (res.output is NO_OUTPUT and res.state == state and not res.outbox
            and not res.requests and res.wake_at is None)


def step_members(step, states, rnd, key, result, members):
    """A group step's ``(stepped, outputs, waiting)`` from `step` on each
    member: the members that only output go to the map, the members that do
    nothing to the waiting set."""
    inbox = {} if key is None else {key: result}
    stepped, outputs, waiting = [], {}, set()
    for v in members:
        res = step(states[v], rnd, inbox)
        if only_outputs(res, states[v]):
            outputs[v] = res.output
        elif only_waits(res, states[v]):
            waiting.add(v)
        else:
            stepped.append((v, res))
    return stepped, outputs, waiting


class GroupBadAtDue(BadAtDue):
    def __init__(self, bad):
        super().__init__(bad)
        self.group_calls = 0
        self.bulk = set()  # members answered in an outputs map

    def step_group(self, states, rnd, key, result, members):
        self.group_calls += 1
        stepped, outputs, waiting = step_members(self.step, states, rnd, key, result,
                                                 members)
        self.bulk.update(outputs)
        return {}, stepped, outputs, waiting


BAD_RESULTS = {
    "changed output": (lambda rnd: StepResult(1, output="second"), RuntimeError),
    "wake not in the future": (lambda rnd: StepResult(1, wake_at=rnd), RuntimeError),
    "message to a non-neighbor": (lambda rnd: StepResult(1, outbox={3: "x"}),
                                  RuntimeError),
    "unknown request": (lambda rnd: StepResult(1, requests=("bogus",)), TypeError),
}
if __debug__:
    BAD_RESULTS["Send beyond its latency"] = (
        lambda rnd: StepResult(1, requests=(Send(4, "x", latency=2),)), RuntimeError)
    BAD_RESULTS["read beyond its radius"] = (
        lambda rnd: StepResult(1, requests=(Collect(2, "r", (2, 4)),)), RuntimeError)


@pytest.mark.parametrize("name", sorted(BAD_RESULTS))
def test_group_steps_meet_every_engine_check(name):
    bad, error = BAD_RESULTS[name]
    with pytest.raises(error) as expected:
        reference_run(gen_path(4), BadAtDue(bad), 10)
    for program in (BadAtDue(bad), GroupBadAtDue(bad)):
        with pytest.raises(error) as grouped:
            run(gen_path(4), program, 10)
        assert str(grouped.value) == str(expected.value)
    assert program.group_calls == 2  # round 0 and the timer group
    # nodes 2 - 4 only output when the timer is due; so does node 1 when its
    # bad result is a changed output, which the outputs map then carries
    assert program.bulk == ({1, 2, 3, 4} if name == "changed output" else {2, 3, 4})


def test_engine_checks_hold_for_a_member_delivered_alone():
    # node 1 also asks to wake in round 2, so it leaves its group and steps
    # alone; its bad result meets the same check
    class WokenBadAtDue(GroupBadAtDue):
        def step(self, v, rnd, inbox):
            res = super().step(v, rnd, inbox)
            if rnd == 0 and v == 1:
                res.wake_at = 2
            return res

    for name, (bad, error) in sorted(BAD_RESULTS.items()):
        with pytest.raises(error) as expected:
            reference_run(gen_path(4), WokenBadAtDue(bad), 10)
        program = WokenBadAtDue(bad)
        with pytest.raises(error) as alone:
            run(gen_path(4), program, 10)
        assert str(alone.value) == str(expected.value), name
        assert program.group_calls == 2
        assert program.bulk == {2, 3, 4}


# group steps of the path 1 - 2 - 3 - 4 that do not answer each member once
UNANSWERED = {
    "no member": lambda states, members: ({}, [], {}, ()),
    "a member left out": lambda states, members: (
        {}, [(v, StepResult(v, output=0)) for v in sorted(members)[1:]], {}, ()),
    "a member stepped twice": lambda states, members: (
        {}, [(v, StepResult(v, output=0)) for v in [1, 1, 2, 3]], {}, ()),
    "a member timed twice": lambda states, members: (
        {("t", 1): [1, 1, 2, 3]}, [], {}, ()),
    "a member timed and stepped": lambda states, members: (
        {("t", 1): [1, 2]}, [(v, StepResult(v, output=0)) for v in [1, 3]], {}, ()),
    "a node that is no member": lambda states, members: (
        {("t", 1): [1, 2, 3]}, [(5, StepResult(5, output=0))], {}, ()),
    "a member output and stepped": lambda states, members: (
        {}, [(v, StepResult(v, output=0)) for v in [1, 2, 3]], {1: 0}, ()),
    "an output for a node that is no member": lambda states, members: (
        {("t", 1): [1, 2, 3]}, [], {5: 0}, ()),
    "a member waiting and stepped": lambda states, members: (
        {}, [(v, StepResult(v, output=0)) for v in [1, 2, 3]], {}, {1}),
    "a member waiting twice": lambda states, members: (
        {("t", 1): [2, 3]}, [], {}, [1, 1]),
    "a waiting node that is no member": lambda states, members: (
        {("t", 1): [1, 2, 3]}, [], {}, {5}),
}


@pytest.mark.parametrize("name", sorted(UNANSWERED))
def test_a_group_step_must_answer_each_member_once(name):
    class Unanswering(GroupBadAtDue):
        def step_group(self, states, rnd, key, result, members):
            return UNANSWERED[name](states, members)

    with pytest.raises(RuntimeError, match="answer each of its 4 members once"):
        run(gen_path(4), Unanswering(lambda rnd: StepResult(1, output=0)), 10)


# ---------------------------------------------------------------------------
# the engine against the former engine loop on scripted programs

ACTIONS = ("msg", "send", "collect", "wake", "output")


@st.composite
def scripted_runs(draw):
    """A small graph, a per-node script of actions at chosen rounds and a
    round cap. A msg action sends one
    payload to some neighbors, so it and a Send from the same node can land
    in one inbox under one key. A collect reads some of the nodes within its
    radius, often none, which makes it a timer."""
    g = draw(small_graphs(max_nodes=6))
    script = {}
    for v in g.sorted_nodes():
        dist = bfs_distances(g, v)
        nbrs = sorted(g.adj[v])
        per_round = {}
        for i in range(draw(st.integers(0, 5))):
            at = draw(st.integers(0, 6))
            kind = draw(st.sampled_from(ACTIONS))
            payload = (v, at, i)
            if kind == "msg":
                if not nbrs:
                    continue
                targets = draw(st.lists(st.sampled_from(nbrs), min_size=1))
                action = ("msg", {u: payload for u in targets})
            elif kind == "send":
                target = draw(st.sampled_from(sorted(dist)))
                latency = max(1, dist[target]) + draw(st.integers(0, 2))
                action = ("send", Send(target, payload, latency))
            elif kind == "collect":
                radius = draw(st.integers(1, 3))
                near = sorted(u for u, d in dist.items() if d <= radius)
                read = draw(st.lists(st.sampled_from(near), unique=True, max_size=3))
                action = ("collect", Collect(radius, tag=draw(st.sampled_from("ab")),
                                             read=tuple(read)))
            elif kind == "wake":
                action = ("wake", draw(st.integers(1, 3)))
            else:
                action = ("output", None)
            per_round.setdefault(at, []).append(action)
        finish = draw(st.integers(0, 9))  # most nodes output, so runs complete
        if finish < 9:
            per_round.setdefault(finish, []).append(("output", None))
        script[v] = per_round
    return g, script, draw(st.integers(1, 14))


class Scripted:
    """Plays each node's script and records every inbox it reads. A node
    asks to wake for its next scripted round unless a wake action says
    otherwise."""

    def __init__(self, script):
        self.script = script
        self.received = {v: [] for v in script}

    def init(self, node, neighbors):
        return node

    def step(self, v, rnd, inbox):
        self.received[v].append((rnd, list(inbox.items())))
        outbox, requests = {}, []
        output = NO_OUTPUT
        later = [at for at in self.script[v] if at > rnd]
        wake = min(later) if later else None
        for kind, arg in self.script[v].get(rnd, ()):
            if kind == "msg":
                outbox.update(arg)
            elif kind in ("send", "collect"):
                requests.append(arg)
            elif kind == "wake":
                wake = rnd + arg
            else:
                output = ("done", v)
        return StepResult(v, outbox, output, requests, wake)


class GroupScripted(Scripted):
    """`Scripted` with a `step_group` that runs each member through `step`,
    returns the members whose only action is one timer as timer groups, the
    members whose only action is an output in the outputs map and the members
    that do nothing as waiting."""

    def __init__(self, script):
        super().__init__(script)
        self.group_calls = 0
        self.timed = 0  # members returned in timer groups
        self.bulk = 0  # members returned in outputs maps
        self.waited = 0  # members returned as waiting

    def step_group(self, states, rnd, key, result, members):
        self.group_calls += 1
        timed, stepped = {}, []
        stepped_all, outputs, waiting = step_members(self.step, states, rnd, key,
                                                     result, members)
        for v, res in stepped_all:
            reqs = res.requests
            if (len(reqs) == 1 and type(reqs[0]) is Collect and not reqs[0].read
                    and not res.outbox and res.output is NO_OUTPUT
                    and res.wake_at is None):
                states[v] = res.state
                timed.setdefault((reqs[0].tag, reqs[0].radius), []).append(v)
                self.timed += 1
            else:
                stepped.append((v, res))
        self.bulk += len(outputs)
        self.waited += len(waiting)
        return timed, stepped, outputs, waiting


def run_scripted(engine, g, script, cap, scan, program_class=Scripted):
    """The run's text, message log, inboxes and the rounds its transcript
    stores. The reference stores exactly its rounds with a message or a
    service request, so an equal run stores one entry for each of those."""
    program = program_class(script)
    try:
        t = engine(g, program, cap, record_messages=True, scan=scan)
    except RoundCapExceeded as exc:
        t = exc.transcript
    return t.serialize(), t.message_log, program.received, sorted(t.traffic)


def timer(radius, tag="t"):
    return ("collect", Collect(radius, tag=tag))


# scripts on the path 1 - 2 - 3 - 4 that put held timer groups against each
# case the engine must deliver per node; a node without an output action
# outputs in round 9
GROUP_CASES = {
    # node 1 is held in a group from round 0 and in one from round 1, both due
    # in round 3; its wake action in round 1 keeps it asleep until round 9
    "two groups due in one round": {
        1: {0: [timer(3, "a")], 1: [timer(2, "b"), ("wake", 8)]},
        2: {0: [timer(3, "a"), ("wake", 9)]},
    },
    # node 2 is held in a round-0 group due in round 3 and gets a message from
    # node 1 in round 2 (sent after the group) and a Send from node 4 in
    # round 0 (sent before it)
    "a member with a message and a Send": {
        1: {2: [("msg", {2: "late"})]},
        2: {0: [timer(3), ("wake", 9)]},
        3: {0: [timer(3), ("wake", 9)]},
        4: {0: [("send", Send(2, "early", 3))]},
    },
    # node 2 is held in a group from round 0 due in round 3, and a read of
    # nodes 1 and 4 it asks for in round 1 lands in that round too; node 1
    # has output by then, node 4 has not
    "a member with a data collect": {
        1: {0: [("output", None)]},
        2: {0: [timer(3)], 1: [("collect", Collect(2, "d", (1, 4))), ("wake", 8)]},
        3: {0: [timer(3), ("wake", 9)]},
    },
    # node 1 is stepped in its group in round 2 and node 3 alone; both
    # message node 2, which reads them in scan order
    "a member that messages": {
        1: {0: [timer(2), ("wake", 5)], 2: [("msg", {2: "from 1"})]},
        3: {2: [("msg", {2: "from 3"})]},
    },
    # node 2 is held in a group from round 0 due in round 3; in round 1 it
    # asks to wake in round 3, and in round 2 node 1 messages it
    "a member woken after its group": {
        1: {2: [("msg", {2: "late"})]},
        2: {0: [timer(3)], 1: [("wake", 2)]},
        3: {0: [timer(3), ("wake", 9)]},
    },
    # node 2 is held in a group due in round 2 and asked to wake in round 2
    "a member with a wake": {
        2: {0: [timer(2), ("wake", 2)]},
        3: {0: [timer(2), ("wake", 9)]},
    },
    # in round 2, nodes 2 and 3 have no later script, so they ask for their
    # next timer only and join new groups; node 4 asks for a read of node 2
    # with the same tag and radius, so it is stepped alone
    "members that ask for the next timer": {
        2: {0: [timer(2), ("output", None), ("wake", 7)], 2: [timer(2)]},
        3: {0: [timer(2), ("output", None), ("wake", 7)], 2: [timer(1)]},
        4: {0: [timer(2), ("wake", 9)], 2: [("collect", Collect(2, "t", (2,)))]},
    },
    # nodes 2 and 3 are held in a group due in round 2, where each only
    # outputs; the wakes they asked for in round 0 step them alone later
    "members that only output": {
        2: {0: [timer(2), ("wake", 7)], 2: [("output", None)]},
        3: {0: [timer(2), ("wake", 5)], 2: [("output", None)]},
    },
    # nodes 2 and 3 output in round 0 and are held in a group due in round 2,
    # where each does nothing and waits; node 4 messages node 3 in round 3,
    # which steps it alone in round 4
    "members that wait": {
        2: {0: [timer(2), ("output", None)]},
        3: {0: [timer(2), ("output", None)]},
        4: {3: [("msg", {3: "later"})]},
    },
}


def group_case(name):
    script = {v: dict(GROUP_CASES[name].get(v, {})) for v in range(1, 5)}
    for per_round in script.values():
        if ("output", None) not in sum(per_round.values(), []):
            per_round[9] = [("output", None)]
    return gen_path(4), script


class TestEngineMatchesReference:
    @given(scripted_runs(), st.sampled_from(["forward", "reverse"]))
    @settings(max_examples=200, deadline=None)
    def test_scripted_programs(self, case, scan):
        g, script, cap = case
        assert (run_scripted(run, g, script, cap, scan)
                == run_scripted(reference_run, g, script, cap, scan))

    @given(scripted_runs(), st.sampled_from(["forward", "reverse"]))
    @settings(max_examples=200, deadline=None)
    def test_scripted_programs_stepped_by_group(self, case, scan):
        g, script, cap = case
        assert (run_scripted(run, g, script, cap, scan, GroupScripted)
                == run_scripted(reference_run, g, script, cap, scan))

    @pytest.mark.parametrize("scan", ["forward", "reverse"])
    @pytest.mark.parametrize("name", sorted(GROUP_CASES))
    def test_group_cases(self, name, scan):
        g, script = group_case(name)
        expected = run_scripted(reference_run, g, script, 20, scan)
        assert "complete True" in expected[0]
        assert run_scripted(run, g, script, 20, scan, GroupScripted) == expected

    @pytest.mark.parametrize("name", sorted(GROUP_CASES))
    def test_capped_group_cases(self, name):
        g, script = group_case(name)
        expected = run_scripted(reference_run, g, script, 4, "forward")
        assert "complete False" in expected[0]
        assert run_scripted(run, g, script, 4, "forward", GroupScripted) == expected

    def test_group_cases_take_the_group_path(self):
        steps = {}
        for name in sorted(GROUP_CASES):
            g, script = group_case(name)
            program = GroupScripted(script)
            run(g, program, 20)
            steps[name] = (program.group_calls, program.timed, program.bulk,
                           program.waited)
        # round 0 is one group call of every node, then the timer groups;
        # node 1 of the data collect case only outputs in round 0
        assert steps == {
            "two groups due in one round": (2, 0, 0, 0),  # node 2's group of one
            "a member with a data collect": (2, 0, 1, 0),  # node 3 alone
            "a member with a message and a Send": (2, 0, 0, 0),  # node 3 alone
            "a member that messages": (2, 0, 0, 0),
            "a member with a wake": (2, 0, 0, 0),  # node 3 alone
            "a member woken after its group": (2, 0, 0, 0),  # node 3 alone
            # nodes 2 and 3 wait when their second timers are due
            "members that ask for the next timer": (4, 2, 0, 2),
            "members that only output": (2, 0, 2, 0),
            "members that wait": (2, 0, 0, 2),
        }

    def test_round_zero_is_one_group_call_of_every_node(self):
        g, script = group_case("members that ask for the next timer")
        program = GroupScripted(script)
        calls = []
        step_group = program.step_group

        def watched(states, rnd, key, result, members):
            calls.append((rnd, key, result, set(members)))
            return step_group(states, rnd, key, result, members)

        program.step_group = watched
        run(g, program, 20)
        assert calls[0] == (0, None, None, {1, 2, 3, 4})
        assert all(rnd > 0 and key is not None for rnd, key, _, _ in calls[1:])
        # a program without a group step has each node stepped through `step`
        # in that group, and the step reads an empty inbox
        plain = Scripted(script)
        inboxes = []
        step = plain.step
        plain.step = lambda v, rnd, inbox: inboxes.append((rnd, v, inbox)) or step(
            v, rnd, inbox)
        t = run(g, plain, 20)
        assert sorted((v, inbox) for rnd, v, inbox in inboxes if rnd == 0) == [
            (v, {}) for v in range(1, 5)]
        assert t.serialize() == reference_run(g, Scripted(script), 20).serialize()

    @pytest.mark.parametrize("scan", ["forward", "reverse"])
    def test_gather_program(self, scan):
        g = gen_spider(3, 4)
        new = run(g, GatherProgram(3), 20, record_messages=True, scan=scan)
        old = reference_run(g, GatherProgram(3), 20, record_messages=True, scan=scan)
        assert new.serialize() == old.serialize()
        assert new.message_log == old.message_log
        assert new.outputs == old.outputs
        busy = [r for r, counts in enumerate(zip(old.message_counts, old.service_counts))
                if any(counts)]
        assert sorted(new.traffic) == busy and len(busy) < new.rounds_recorded


# ---------------------------------------------------------------------------
# the transcript text, written from the busy rounds alone


def serialize_peak(t):
    """The text of `t.serialize()` and the peak of the memory traced while
    it is built."""
    tracemalloc.start()
    try:
        text = t.serialize()
        return text, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSerialize:
    @given(scripted_runs(), st.sampled_from(["forward", "reverse"]))
    @settings(max_examples=200, deadline=None)
    def test_scripted_programs(self, case, scan):
        g, script, cap = case
        try:
            t = run(g, Scripted(script), cap, scan=scan)
        except RoundCapExceeded as exc:
            t = exc.transcript
        assert t.serialize() == dense_text(t)

    @pytest.mark.parametrize("cap", [4, 20])
    @pytest.mark.parametrize("name", sorted(GROUP_CASES))
    def test_group_cases(self, name, cap):
        g, script = group_case(name)
        try:
            t = run(g, GroupScripted(script), cap)
        except RoundCapExceeded as exc:
            t = exc.transcript
        assert t.serialize() == dense_text(t)

    def test_edge_cases(self):
        for recorded, traffic in [(0, {}), (1, {}), (1, {0: (2, 1)}), (3, {2: (0, 4)}),
                                  (3, {0: (1, 0), 1: (5, 5), 2: (7, 0)}),
                                  (2, {0: (1, 1), 5: (9, 9)})]:
            t = Transcript(recorded, {2: ("x", 1), 1: None}, recorded > 1, recorded, traffic)
            assert t.serialize() == dense_text(t)

    def test_quiet_rounds_cost_text_not_lists(self):
        # the peak while the text is built stays under three times the
        # text's length (a bound set before it was measured): the per-round
        # lists of the views are never built. Joining those lists here would
        # take over 100 MB, so the text is checked by its shape.
        _, long_replay = mis_chordal_distributed(gen_chordal(40, 1, max_clique=6), 0.002)
        synthetic = Transcript(2_000_000, {1: 0, 7: 1}, True, 2_000_000,
                               {0: (3, 1), 17: (2, 0), 1_999_999: (1, 5)})
        for t in (long_replay, synthetic):
            assert t.rounds_recorded > 1_000_000 and len(t.traffic) < 100
            text, peak = serialize_peak(t)
            assert peak < 3 * len(text)
            msgs, svc = text.split("\n")[-3:-1]
            assert msgs.count(",") == svc.count(",") == t.rounds_recorded - 1
        assert msgs.startswith("msgs 3,0,") and msgs.endswith(",0,1")
        assert svc.startswith("svc 1,0,") and svc.endswith(",0,5")
