"""Synchronous LOCAL-model engine: lockstep rounds, unbounded messages,
per-node write-once outputs, and exact round accounting.

Programs are explicit state machines. Besides raw per-neighbor messages the
engine offers two services with honest round costs:

* ``Collect(radius)``: delivered exactly `radius` rounds later, carrying the
  radius-ball induced subgraph and a snapshot of published node variables
  taken at request time. Semantically identical to flooding for `radius`
  rounds (the ``gather`` combinator is that flooding, and tests hold the two
  sides equal) while letting large simulations skip per-node payload copies.
  With ``want_data=False`` it is a pure timer, and every node requesting the
  same tag and radius in a round receives one shared result.
* ``Send(target, payload, latency)``: multi-hop unicast delivered after
  `latency` rounds; `latency` must be at least the graph distance (checked
  exactly under ``__debug__`` by a search at most `latency` hops deep).

Nodes that finished still relay traffic: the engine performs delivery for
every collect or send regardless of the state of intermediate nodes.

A node acts only on what it received or on its own clock: it steps in round
0 and afterwards only in rounds where it has a delivery or asked to wake
(``wake_at``). The engine keeps a heap of those due rounds and jumps from one
to the next, recording the rounds in between as quiet.

A step reads its inbox as a ``key -> payload`` dict that the engine hands
over (it is not copied, and the step may keep it): ``("msg", sender)`` for a
message or a Send, ``("collect", tag)`` for a Collect, in delivery order. A
later item with the same key replaces an earlier one, keeping its position.
A ``StepResult`` names only what the step does: ``outbox`` and ``publish``
default to ``None``, ``requests`` to ``()``, ``output`` to ``NO_OUTPUT`` and
``wake_at`` to ``None``. ``init(node, neighbors)`` receives the engine's own
neighbor set of the node, which it must not change.

The engine holds the nodes whose only request in a round is one timer of the
same (tag, radius) as a group until it is due, then steps the group in one
call of ``step_group(states, rnd, key, result, members)``: `states` is the
engine's node -> state map, `key` is ``("collect", tag)``, `result` the
shared ``CollectResult`` and `members` the set of member nodes, which the
call must not change. Round 0 is one such call for every node, with `key` and
`result` None, as no node has an inbox yet. It returns ``(timed, stepped)``:
`timed` maps ``(tag, radius)`` to the members whose only action is a lone
``Collect(radius, tag, want_data=False)``, with their new states written to
`states`; `stepped` holds a ``(node, StepResult)`` pair for every other
member, handled like any step's result and in scan order. Each member must be
answered once. A program may define ``step_group``; it must equal
``step(states[v], rnd, inbox)`` on each member, where `inbox` is
``{key: result}``, or empty in round 0. Without it the engine steps each node
through ``step``. A member that also has a message, a Send, a wake or a
second group due in that round leaves its groups and is delivered per node.

A group step sees its members' key, not their past, so the tag carries the
stage: a program whose nodes walk a schedule fixed before the run puts the
schedule position in the tag. Every member of a group then stands at the
same stage, and the step splits `members` by set intersection
(``StagedProgram``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .errors import RoundCapExceeded
from .graphs import BfsBall, Graph, bfs_distances

NO_OUTPUT = object()
_first = itemgetter(0)


@dataclass(frozen=True)
class Collect:
    radius: int
    tag: Any = None
    want_data: bool = True


@dataclass(frozen=True)
class Send:
    target: int
    payload: Any
    latency: int


@dataclass(frozen=True)
class CollectResult:
    tag: Any
    radius: int
    requested_at: int
    nodes: Optional[Tuple[int, ...]] = None
    adjacency: Optional[Dict[int, Tuple[int, ...]]] = None
    vars: Optional[Dict[int, Dict[str, Any]]] = None


@dataclass(slots=True)
class StepResult:
    """What one step does: its new state, messages to neighbors, a final
    output, service requests, published variables and a wake-up round."""

    state: Any
    outbox: Optional[Dict[int, Any]] = None
    output: Any = NO_OUTPUT
    requests: Sequence[Any] = ()
    publish: Optional[Dict[str, Any]] = None
    wake_at: Optional[int] = None


@dataclass
class Transcript:
    rounds_elapsed: int
    outputs: Dict[int, Any]
    complete: bool
    message_counts: List[int] = field(default_factory=list)
    service_counts: List[int] = field(default_factory=list)
    message_log: Optional[List[List[Tuple[int, int, Any]]]] = None

    def serialize(self) -> str:
        lines = ["rounds %d" % self.rounds_elapsed, "complete %s" % self.complete]
        for v in sorted(self.outputs):
            lines.append("out %d %r" % (v, self.outputs[v]))
        lines.append("msgs %s" % ",".join(map(str, self.message_counts)))
        lines.append("svc %s" % ",".join(map(str, self.service_counts)))
        return "\n".join(lines) + "\n"


def _step_each(step):
    """The group step of a program without ``step_group``: ``step`` on each
    member, with an empty inbox in round 0."""
    def step_group(states, rnd, key, result, members):
        return {}, [(v, step(states[v], rnd, {} if key is None else {key: result}))
                    for v in members]
    return step_group


def run(g: Graph, program, round_cap: int, record_messages: bool = False,
        scan: str = "forward") -> Transcript:
    """Execute `program` on every node of `g` in lockstep rounds.

    Deterministic: the result is a pure function of (g, program, round_cap);
    the `scan` order must not affect it (checked in tests).
    """
    if round_cap < 1:
        raise ValueError("round_cap must be >= 1")
    adj = g.adj
    states = {v: program.init(v, nbrs) for v, nbrs in adj.items()}
    step = program.step
    outputs: Dict[int, Any] = {}
    published: Dict[int, Dict[str, Any]] = {v: {} for v in adj}
    # round -> node -> the inbox its step reads; a wake is an empty inbox
    agenda: Dict[int, Dict[int, Dict[Any, Any]]] = {}
    due_rounds: List[int] = []  # min-heap of the rounds in `agenda`
    step_group = getattr(program, "step_group", None) or _step_each(step)
    # round -> the timer groups due then, as (inbox key, shared result,
    # members); a member has no other delivery in that round. Round 0 is one
    # group of every node.
    held: Dict[int, List[Tuple[Any, Optional[CollectResult], Set[int]]]] = {
        0: [(None, None, set(adj))]}
    message_counts: List[int] = []
    service_counts: List[int] = []
    log: Optional[List[List[Tuple[int, int, Any]]]] = [] if record_messages else None
    send_balls: Dict[int, BfsBall] = {}

    def inboxes_at(at) -> Dict[int, Dict[Any, Any]]:
        """The inboxes of round `at`, which becomes due."""
        if at <= rnd:
            raise RuntimeError("delivery due at round %d, not after round %d"
                               % (at, rnd))
        inboxes = agenda.get(at)
        if inboxes is None:
            inboxes = agenda[at] = {}
            heapq.heappush(due_rounds, at)
        return inboxes

    def new_inbox(at, v) -> Dict[Any, Any]:
        """v's first inbox item of round `at` other than a held group's: v
        leaves the groups it was held in, whose results go first."""
        inbox = {}
        for key, result, members in held.get(at, ()):
            if v in members:
                members.remove(v)
                inbox[key] = result
        return inbox

    def deliver(inboxes, at, v, key, payload):
        inbox = inboxes.get(v)
        if inbox is None:
            inbox = inboxes[v] = new_inbox(at, v) if held else {}
        inbox[key] = payload

    def check_latency(u, req):
        """Exact check that req.target lies within req.latency hops of u;
        u's ball grows only as far as this and earlier sends need."""
        ball = send_balls.get(u)
        if ball is None:
            ball = send_balls[u] = BfsBall(g, u)
        ball.reach((req.target,), req.latency)
        d = ball.dist.get(req.target)
        if d is None or d > req.latency:
            raise RuntimeError("node %r is not within latency %d of sender %d"
                               % (req.target, req.latency, u))

    def pad_to(rounds):
        """Record the quiet rounds up to (not including) round `rounds`."""
        quiet = rounds - len(message_counts)
        message_counts.extend([0] * quiet)
        service_counts.extend([0] * quiet)
        if log is not None:
            log.extend([] for _ in range(quiet))

    def transcript(rounds, complete):
        return Transcript(rounds, dict(outputs), complete,
                          message_counts, service_counts, log)

    # round 0 is the setup phase: every node steps once with an empty inbox
    # and may already send; a message sent in round r is readable in round
    # r + 1, so after round t every node has exactly its radius-t knowledge.
    # Rounds in which no node has a delivery or a wake are skipped and
    # recorded as quiet.
    rnd = 0
    while True:
        inboxes = agenda.pop(rnd, {})
        msg_count = 0
        svc_count = 0
        round_log: List[Tuple[int, int, Any]] = []
        next_inboxes = None  # round rnd + 1, made due by the first message
        publish_buffer: List[Tuple[int, Dict[str, Any]]] = []
        collect_buffer: List[Tuple[int, Collect]] = []
        # a step's only request, when a timer, joins the requesters of its
        # (tag, radius): nearly every collect of the MIS and MVC programs.
        # Groups are delivered after the buffered collects, which is why only
        # a lone timer may join one: a step's own collects keep their order.
        timer_groups: Dict[Tuple[Any, int], List[int]] = {}
        # the held groups due now step first, a group per call; the members
        # that do more than ask for their next timer are handled below, in
        # scan order with the nodes that step alone
        grouped: Dict[int, StepResult] = {}
        for key, result, members in held.pop(rnd, ()):
            if not members:
                continue
            timed, stepped = step_group(states, rnd, key, result, members)
            count = len(stepped)
            for req, group in timed.items():
                if group:
                    timer_groups.setdefault(req, []).extend(group)
                    count += len(group)
                    svc_count += len(group)
            # every member answered, by as many answers as there are members
            if (count != len(members)
                    or members.difference(map(_first, stepped), *timed.values())):
                raise RuntimeError("step_group did not answer each of its %d "
                                   "members once" % len(members))
            grouped.update(stepped)
        order = sorted(inboxes.keys() | grouped.keys() if grouped else inboxes)
        if scan == "reverse":
            order = order[::-1]
        for v in order:
            res = grouped.pop(v, None)
            if res is None:
                inbox = inboxes.get(v)
                res = step(states[v], rnd, {} if inbox is None else inbox)
            states[v] = res.state
            if res.output is not NO_OUTPUT:
                if v in outputs and outputs[v] != res.output:
                    raise RuntimeError("node %d changed its final output" % v)
                outputs[v] = res.output
            outbox = res.outbox
            if outbox:
                if next_inboxes is None:
                    next_inboxes = inboxes_at(rnd + 1)
                key = ("msg", v)
                nbrs = adj[v]
                for nbr in sorted(outbox):
                    if nbr not in nbrs:
                        raise RuntimeError("node %d sent to non-neighbor %d" % (v, nbr))
                    payload = outbox[nbr]
                    deliver(next_inboxes, rnd + 1, nbr, key, payload)
                    if log is not None:
                        round_log.append((v, nbr, payload))
                msg_count += len(outbox)
            requests = res.requests
            if requests:
                lone = len(requests) == 1
                svc_count += len(requests)
                for req in requests:
                    kind = type(req)
                    if kind is Collect:
                        if lone and not req.want_data:
                            group = timer_groups.get((req.tag, req.radius))
                            if group is None:
                                group = timer_groups[req.tag, req.radius] = []
                            group.append(v)
                        else:
                            collect_buffer.append((v, req))
                    elif kind is Send:
                        if __debug__:
                            check_latency(v, req)
                        at = rnd + req.latency
                        deliver(inboxes_at(at), at, req.target, ("msg", v), req.payload)
                        if log is not None:
                            round_log.append((v, req.target, req.payload))
                    else:
                        raise TypeError("unknown service request %r" % (req,))
            if res.publish:
                publish_buffer.append((v, res.publish))
            at = res.wake_at
            if at is not None:
                if at <= rnd:
                    raise RuntimeError("wake_at must be in the future")
                wakes = inboxes_at(at)
                if v not in wakes:
                    wakes[v] = new_inbox(at, v) if held else {}
        # this round's inboxes go before the collects fill later rounds' ones
        inboxes.clear()
        # publishes land after every step of the round, then collects snapshot
        for v, items in publish_buffer:
            published[v].update(items)
        # a pure timer: every requester of a (tag, radius) in this round
        # receives the same frozen result
        timers = {key: CollectResult(key[0], key[1], rnd) for key in timer_groups}
        for v, req in collect_buffer:
            if req.want_data:
                ball = bfs_distances(g, v, cutoff=req.radius)
                members = tuple(sorted(ball))
                adjacency = {u: tuple(sorted(adj[u] & ball.keys())) for u in members}
                snapshot = {u: dict(published[u]) for u in members}
                result = CollectResult(
                    req.tag, req.radius, rnd, members, adjacency, snapshot)
            else:
                result = timers.get((req.tag, req.radius))
                if result is None:
                    result = timers[req.tag, req.radius] = CollectResult(
                        req.tag, req.radius, rnd)
            at = rnd + req.radius
            deliver(inboxes_at(at), at, v, ("collect", req.tag), result)
        for (tag, radius), group in timer_groups.items():
            at = rnd + radius
            due = inboxes_at(at)
            key = ("collect", tag)
            result = timers[tag, radius]
            # a group is held until due; a member that has another delivery
            # then, or is held in another group, is delivered alone
            members = set(group)
            alone = members.intersection(due)
            for _, _, others in held.get(at, ()):
                alone |= members & others
            members -= alone
            for v in alone:
                deliver(due, at, v, key, result)
            held.setdefault(at, []).append((key, result, members))
        message_counts.append(msg_count)
        service_counts.append(svc_count)
        if log is not None:
            log.append(round_log)
        if len(outputs) == len(adj):
            return transcript(max(rnd, 1), True)
        nxt = heapq.heappop(due_rounds) if due_rounds else round_cap + 1
        if nxt > round_cap:
            pad_to(round_cap + 1)
            raise RoundCapExceeded("round cap %d reached" % round_cap,
                                   transcript(round_cap, False))
        pad_to(nxt)
        rnd = nxt


class GatherProgram:
    """Flood for `radius` rounds, then output the learned ball.

    Each node starts knowing its id, sorted neighbor tuple, and an optional
    local variable; after exactly `radius` rounds it outputs a map from every
    node within distance `radius` to that node's (neighbors, variable) pair.
    A node steps when it hears from a neighbor, and in round `radius`, which
    it asks to wake for in round 0.
    """

    def __init__(self, radius: int, local_vars: Optional[Dict[int, Any]] = None):
        if radius < 1:
            raise ValueError("radius must be >= 1")
        self.radius = radius
        self.local_vars = local_vars or {}

    def init(self, node, neighbors):
        neighbors = tuple(sorted(neighbors))
        return {"nbrs": neighbors, "know": {node: (neighbors, self.local_vars.get(node))}}

    def step(self, state, rnd, inbox):
        know = state["know"]
        if rnd == 0:
            learned = dict(know)
        else:
            learned = {}
            for key, payload in inbox.items():
                if key[0] != "msg":
                    continue
                for u, entry in payload.items():
                    if u not in know:
                        learned[u] = entry
            know.update(learned)
        if rnd == self.radius:
            return StepResult(state, output={u: know[u] for u in sorted(know)})
        outbox = {nbr: learned for nbr in state["nbrs"]} if learned else None
        return StepResult(state, outbox, wake_at=self.radius if rnd == 0 else None)


def gather(radius: int, local_vars: Optional[Dict[int, Any]] = None) -> GatherProgram:
    """Program combinator: gather the radius-ball."""
    return GatherProgram(radius, local_vars)


class StagedProgram:
    """Walk a schedule of timer collects fixed before the run, then leave it.

    `table` maps each stage, which is the tag of its collect, to
    ``(radius, default, exceptions)``: when the collect is due, a node moves
    on to `default` unless it lies in one of the disjoint node sets of the
    ``{next stage: nodes}`` map `exceptions`. The stage None is round 0,
    where no collect has come yet; its radius is unused. A next stage of
    None leaves the schedule, and ``leave`` says what the node does then: by
    default it outputs ``outputs[v]``.

    A node's state is its id while it walks the schedule, and its stage is
    the tag in its inbox, so a group step splits its members by set
    intersection and touches no state. A group at a stage outside the table
    steps each member through ``step``: that is a subclass's own tail.
    """

    def __init__(self, table: Dict[Any, Tuple[Optional[int], Any, Dict[Any, Any]]],
                 outputs: Optional[Dict[int, Any]] = None):
        self.table = table
        self.outputs = outputs
        self.requests = {stage: (Collect(row[0], stage, want_data=False),)
                         for stage, row in table.items() if stage is not None}

    def init(self, node, neighbors):
        return node

    def leave(self, v, rnd) -> StepResult:
        return StepResult(v, output=self.outputs[v])

    def step(self, v, rnd, inbox):
        key = next(iter(inbox), None)
        _, nxt, exceptions = self.table[key[1] if key else None]
        for stage, nodes in exceptions.items():
            if v in nodes:
                nxt = stage
                break
        if nxt is None:
            return self.leave(v, rnd)
        return StepResult(v, requests=self.requests[nxt])

    def step_group(self, states, rnd, key, result, members):
        row = self.table.get(key[1] if key else None)
        if row is None:
            return {}, [(v, self.step(states[v], rnd, {key: result}))
                        for v in members]
        _, default, exceptions = row
        moves = []
        rest = members
        for stage, nodes in exceptions.items():
            part = rest & nodes
            if part:
                rest = rest - part
                moves.append((stage, part))
        if rest:
            moves.append((default, rest))
        timed: Dict[Tuple[Any, int], Set[int]] = {}
        stepped: List[Tuple[int, StepResult]] = []
        for stage, part in moves:
            if stage is None:
                stepped.extend((v, self.leave(v, rnd)) for v in part)
            else:
                timed[stage, self.table[stage][0]] = part
        return timed, stepped


def stage_chain(name, radii):
    """Table rows of the stages ``(name, 0)``, ``(name, 1)``, ... with the
    given radii, each moving every node on to the next and the last out of
    the schedule."""
    last = len(radii) - 1
    return {(name, s): (radius, (name, s + 1) if s < last else None, {})
            for s, radius in enumerate(radii)}
