import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordalg import (
    Graph, RoundCapExceeded, color_interval_distributed, distance_k_mis_distributed,
    gen_chordal, gen_interval, gen_path, gen_spider, mis_chordal_distributed,
    mis_interval_distributed, mvc_distributed,
)
from chordalg.graphs import bfs_distances
from chordalg.localsim import (
    NO_OUTPUT, Collect, CollectResult, Send, StagedProgram, StepResult, gather,
    run, stage_chain,
)

from conftest import small_graphs
from reference_engine import reference_run


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
    t = run(gen_path(5), gather(2), 10)
    assert t.rounds_elapsed == 2
    assert sorted(t.outputs[3]) == [1, 2, 3, 4, 5]


def test_gather_learns_exact_ball():
    n, k = 9, 3
    t = run(gen_path(n), gather(k), 10)
    mid = 5
    assert len(t.outputs[mid]) == min(2 * k + 1, n)
    assert len(t.outputs[1]) == k + 1


def test_gather_star_center_one_round():
    star = Graph([(1, v) for v in range(2, 6)])
    t = run(star, gather(1), 5)
    assert t.rounds_elapsed == 1
    assert sorted(t.outputs[1]) == [1, 2, 3, 4, 5]


def test_gather_carries_local_vars():
    g = gen_path(4)
    t = run(g, gather(3, local_vars={v: v * 10 for v in g.nodes}), 10)
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
    a = run(g, gather(3), 10).serialize()
    b = run(g, gather(3), 10).serialize()
    c = run(g, gather(3), 10, scan="reverse").serialize()
    assert a == b == c


def test_no_oracle_leakage():
    # two graphs agreeing on the radius-2 ball of node 5
    base = [(i, i + 1) for i in range(1, 9)]
    g1 = Graph(base)
    g2 = Graph(base + [(1, 9)])
    o1 = run(g1, gather(2), 10).outputs[5]
    o2 = run(g2, gather(2), 10).outputs[5]
    assert o1 == o2


def test_collect_service_matches_gather():
    class CollectOnce:
        def __init__(self, radius):
            self.radius = radius

        def init(self, node, neighbors):
            return node

        def step(self, state, rnd, inbox):
            if rnd == 0:
                return StepResult(state, requests=[Collect(self.radius, tag="x")])
            result = inbox[("collect", "x")]
            return StepResult(state, output=sorted(result.nodes))

    g = gen_spider(3, 5)
    via_collect = run(g, CollectOnce(3), 10)
    via_gather = run(g, gather(3), 10)
    assert via_collect.rounds_elapsed == via_gather.rounds_elapsed == 3
    for v in g.nodes:
        assert via_collect.outputs[v] == sorted(via_gather.outputs[v])


def test_background_forwarding_across_finished_nodes():
    # every node but 1 finishes immediately; node 1 still completes a
    # radius-4 collection through them afterwards
    class LateGather:
        def init(self, node, neighbors):
            return node

        def step(self, state, rnd, inbox):
            if state != 1:
                return StepResult(state, output=0, wake_at=None) if rnd == 0 \
                    else StepResult(state)
            if rnd == 0:
                return StepResult(state, wake_at=5)
            if rnd == 5:
                return StepResult(state, requests=[Collect(4, tag="late")])
            if ("collect", "late") in inbox:
                return StepResult(state, output=len(inbox[("collect", "late")].nodes))
            return StepResult(state)

    g = gen_path(5)
    t = run(g, LateGather(), 30)
    assert t.outputs[1] == 5


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
    """Node 1 sends "hi" to node 4 with latency 3; node 4 outputs what it
    received and when."""

    def init(self, node, neighbors):
        return node

    def step(self, state, rnd, inbox):
        if rnd == 0 and state == 1:
            return StepResult(state, output=0,
                              requests=[Send(4, "hi", latency=3)])
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
    t = sim_run(gen_path(3), gather(2), 10, record_messages=True)
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
    assert step(3, 2, due) == StepResult(3, requests=(Collect(3, ("a", 1), False),))
    assert step(4, 2, due) == StepResult(4, requests=(Collect(1, ("b", 0), False),))
    assert step(4, 0, {}) == StepResult(4, requests=(Collect(2, ("a", 0), False),))


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
    with pytest.raises(RoundCapExceeded) as stepped:
        run(gen_path(3), SteppedIdleWaiter(), cap)
    assert stepped.value.transcript.serialize() == t.serialize()


def test_message_log_holds_the_skipped_rounds():
    t = run(gen_path(4), Relay(), 10, record_messages=True)
    assert t.rounds_elapsed == 3
    assert len(t.message_log) == len(t.message_counts) == 4
    assert t.message_log == [[(1, 4, "hi")], [], [], []]
    assert t.service_counts == [1, 0, 0, 0]


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
                return StepResult(state, requests=[
                    Collect(2, tag="t", want_data=False)])
            self.received.append(inbox[("collect", "t")])
            return StepResult(state, output=rnd)

    program = Timer()
    t = run(gen_path(5), program, 10)
    assert t.outputs == {v: 2 for v in range(1, 6)}
    first = program.received[0]
    assert first == CollectResult("t", 2, 0)
    assert all(result is first for result in program.received)


@pytest.mark.parametrize("request_", [Collect(0, tag="t", want_data=False),
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
    lambda cap: color_interval_distributed(gen_interval(40, seed=1), 3, round_cap=cap),
    lambda cap: distance_k_mis_distributed(gen_path(30), 3, round_cap=cap),
], ids=["mvc", "mis-chordal", "mis-interval", "color-interval", "distance-k-mis"])
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
                              requests=(Collect(2, tag="t", want_data=False),))
        return self.bad(rnd) if v == 1 else StepResult(v, output=0)


class GroupBadAtDue(BadAtDue):
    def __init__(self, bad):
        super().__init__(bad)
        self.group_calls = 0

    def step_group(self, states, rnd, key, result, members):
        self.group_calls += 1
        inbox = {} if key is None else {key: result}
        return {}, [(v, self.step(states[v], rnd, inbox)) for v in members]


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


# group steps of the path 1 - 2 - 3 - 4 that do not answer each member once
UNANSWERED = {
    "no member": lambda states, members: ({}, []),
    "a member left out": lambda states, members: (
        {}, [(v, StepResult(v, output=0)) for v in sorted(members)[1:]]),
    "a member stepped twice": lambda states, members: (
        {}, [(v, StepResult(v, output=0)) for v in [1, 1, 2, 3]]),
    "a member timed twice": lambda states, members: (
        {("t", 1): [1, 1, 2, 3]}, []),
    "a member timed and stepped": lambda states, members: (
        {("t", 1): [1, 2]}, [(v, StepResult(v, output=0)) for v in [1, 3]]),
    "a node that is no member": lambda states, members: (
        {("t", 1): [1, 2, 3]}, [(5, StepResult(5, output=0))]),
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

ACTIONS = ("msg", "send", "collect", "wake", "publish", "output")


@st.composite
def scripted_runs(draw):
    """A small graph, a per-node script of actions at chosen rounds and a
    round cap. A msg action sends one
    payload to some neighbors, so it and a Send from the same node can land
    in one inbox under one key."""
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
                action = ("collect", Collect(draw(st.integers(1, 3)),
                                             tag=draw(st.sampled_from("ab")),
                                             want_data=draw(st.booleans())))
            elif kind == "wake":
                action = ("wake", draw(st.integers(1, 3)))
            elif kind == "publish":
                action = ("publish", {draw(st.sampled_from("xy")): payload})
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
        outbox, requests, publish = {}, [], {}
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
            elif kind == "publish":
                publish.update(arg)
            else:
                output = ("done", v)
        return StepResult(v, outbox, output, requests, publish, wake)


class GroupScripted(Scripted):
    """`Scripted` with a `step_group` that runs each member through `step`
    and returns the members whose only action is one timer as timer groups."""

    def __init__(self, script):
        super().__init__(script)
        self.group_calls = 0
        self.timed = 0  # members returned in timer groups

    def step_group(self, states, rnd, key, result, members):
        self.group_calls += 1
        timed, stepped = {}, []
        for v in members:
            res = self.step(states[v], rnd, {} if key is None else {key: result})
            reqs = res.requests
            if (len(reqs) == 1 and type(reqs[0]) is Collect and not reqs[0].want_data
                    and not res.outbox and res.output is NO_OUTPUT
                    and not res.publish and res.wake_at is None):
                states[v] = res.state
                timed.setdefault((reqs[0].tag, reqs[0].radius), []).append(v)
                self.timed += 1
            else:
                stepped.append((v, res))
        return timed, stepped


def run_scripted(engine, g, script, cap, scan, program_class=Scripted):
    program = program_class(script)
    try:
        t = engine(g, program, cap, record_messages=True, scan=scan)
    except RoundCapExceeded as exc:
        t = exc.transcript
    return t.serialize(), t.message_log, program.received


def timer(radius, tag="t"):
    return ("collect", Collect(radius, tag=tag, want_data=False))


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
    # node 2 is held in a group from round 0 due in round 3, and a data
    # collect it asks for in round 1 lands in that round too
    "a member with a data collect": {
        2: {0: [timer(3)], 1: [("collect", Collect(2, tag="d")), ("wake", 8)]},
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
    # next timer only and join new groups; node 4 asks for a data collect of
    # the same tag and publishes, so it is stepped alone
    "members that ask for the next timer": {
        2: {0: [timer(2), ("output", None), ("wake", 7)], 2: [timer(2)]},
        3: {0: [timer(2), ("output", None), ("wake", 7)], 2: [timer(1)]},
        4: {0: [timer(2), ("wake", 9)],
            2: [("collect", Collect(2, tag="t")), ("publish", {"x": 1})]},
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

    def test_group_cases_take_the_group_path(self):
        steps = {}
        for name in sorted(GROUP_CASES):
            g, script = group_case(name)
            program = GroupScripted(script)
            run(g, program, 20)
            steps[name] = program.group_calls, program.timed
        # round 0 is one group call of every node, then the timer groups
        assert steps == {
            "two groups due in one round": (2, 0),  # node 2's group of one
            "a member with a data collect": (2, 0),  # node 3 alone
            "a member with a message and a Send": (2, 0),  # node 3 alone
            "a member that messages": (2, 0),
            "a member with a wake": (2, 0),  # node 3 alone
            "a member woken after its group": (2, 0),  # node 3 alone
            "members that ask for the next timer": (4, 2),
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
        new = run(g, gather(3), 20, record_messages=True, scan=scan)
        old = reference_run(g, gather(3), 20, record_messages=True, scan=scan)
        assert new.serialize() == old.serialize()
        assert new.message_log == old.message_log
        assert new.outputs == old.outputs
