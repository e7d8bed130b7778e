"""Synchronous LOCAL-model engine: lockstep rounds, unbounded messages,
per-node write-once outputs, and exact round accounting.

Programs are explicit state machines. Besides raw per-neighbor messages the
engine offers two services with honest round costs:

* ``Collect(radius, tag, read)``: delivered exactly `radius` rounds later.
  With an empty `read` it is a pure timer, and every node requesting the
  same tag and radius in a round receives one shared result. Otherwise its
  result's ``outputs`` maps each node of `read` that had an output at the
  end of the request round to that output: what flooding for `radius`
  rounds would bring, so every node of `read` must lie within `radius` hops
  of the requester (checked exactly under ``__debug__``, as for a Send).
* ``Send(target, payload, latency, route)``: multi-hop unicast delivered
  after `latency` rounds; `latency` must be at least the graph distance.
  Under ``__debug__`` a Send with a `route`, the nodes of a path from the
  sender to the target, is checked by that route: its ends, its edges in
  the graph and at most `latency` of them. A Send without one is checked
  exactly by a search at most `latency` hops deep, as a read is.

Nodes that finished still relay traffic: the engine performs delivery for
every collect or send regardless of the state of intermediate nodes.

A node acts only on what it received or on its own clock: it steps in round
0 and afterwards only in rounds where it has a delivery or asked to wake
(``wake_at``). The engine keeps a heap of those due rounds and jumps from one
to the next; its transcript keeps only the rounds that carry traffic.

A step reads its inbox as a ``key -> payload`` dict that the engine hands
over (it is not copied, and the step may keep it): ``("msg", sender)`` for a
message or a Send, ``("collect", tag)`` for a Collect, in delivery order. A
later item with the same key replaces an earlier one, keeping its position.
A ``StepResult`` names only what the step does: ``outbox`` defaults to
``None``, ``requests`` to ``()``, ``output`` to ``NO_OUTPUT`` and
``wake_at`` to ``None``. ``init(node, neighbors)`` receives the engine's own
neighbor set of the node, which it must not change.

The engine holds the nodes whose only request in a round is one timer of the
same (tag, radius) as a group until it is due, then steps the group in one
call of ``step_group(states, rnd, key, result, members)``: `states` is the
engine's node -> state map, `key` is ``("collect", tag)``, `result` the
shared ``CollectResult`` and `members` the set of member nodes, which the
call must not change. Round 0 is one such call for every node, with `key` and
`result` None, as no node has an inbox yet. It returns
``(timed, stepped, outputs, waiting)``: `timed` maps ``(tag, radius)`` to
the members whose only action is a lone ``Collect(radius, tag)`` timer, with
their new states written to `states`; `outputs` maps each member whose step
only outputs (it keeps its state, sends, requests and wakes for nothing) to
its output, which the engine records at once; `waiting` holds the members
whose step does nothing at all, ``StepResult(states[v])``: they keep their
state and step next when a delivery comes; `stepped` holds a
``(node, StepResult)`` pair for every other member, handled like any step's
result and in scan order. Each member must be answered once. A program may
define ``step_group``; it must equal ``step(states[v], rnd, inbox)`` on each
member, where `inbox` is ``{key: result}``, or empty in round 0. Without it
the engine steps each node through ``step``. A member that also has a
message, a Send, a wake or a second group due in that round leaves its groups
and is delivered per node.

A group step sees its members' key, not their past, so the tag carries the
stage: a program whose nodes walk a schedule fixed before the run puts the
schedule position in the tag. Every member of a group then stands at the
same stage, and the step splits `members` by set intersection
(``StagedProgram``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import repeat
from operator import contains, itemgetter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .errors import RoundCapExceeded
from .graphs import BfsBall, Graph

NO_OUTPUT = object()
_first = itemgetter(0)
_nowhere = repeat(())  # adj.get default: a node not in g has no neighbours


@dataclass(frozen=True)
class Collect:
    radius: int
    tag: Any = None
    read: Sequence[int] = ()


@dataclass(slots=True)
class Send:
    target: int
    payload: Any
    latency: int
    route: Optional[Tuple[int, ...]] = None  # sender, ..., target


@dataclass(frozen=True)
class CollectResult:
    tag: Any
    radius: int
    outputs: Optional[Dict[int, Any]] = None  # None for a timer


@dataclass(slots=True)
class StepResult:
    """What one step does: its new state, messages to neighbors, a final
    output, service requests and a wake-up round."""

    state: Any
    outbox: Optional[Dict[int, Any]] = None
    output: Any = NO_OUTPUT
    requests: Sequence[Any] = ()
    wake_at: Optional[int] = None


@dataclass
class Transcript:
    """A run's rounds, outputs and traffic. Of the `rounds_recorded` rounds
    from round 0, only those with a message or a service request are stored:
    `traffic` maps each to the two counts, `log` (if messages are recorded) to
    its (sender, receiver, payload) entries. The views list every round."""

    rounds_elapsed: int
    outputs: Dict[int, Any]
    complete: bool
    rounds_recorded: int
    traffic: Dict[int, Tuple[int, int]]
    log: Optional[Dict[int, List[Tuple[int, int, Any]]]] = None

    @property
    def message_counts(self) -> List[int]:
        return [self.traffic.get(r, (0, 0))[0] for r in range(self.rounds_recorded)]

    @property
    def service_counts(self) -> List[int]:
        return [self.traffic.get(r, (0, 0))[1] for r in range(self.rounds_recorded)]

    @property
    def message_log(self) -> Optional[List[List[Tuple[int, int, Any]]]]:
        if self.log is None:
            return None
        return [self.log.get(r, []) for r in range(self.rounds_recorded)]

    def _counts(self, i: int) -> List[str]:
        """Pieces that join to the comma-joined message (i = 0) or service
        (i = 1) counts of every recorded round, written from `traffic`: each
        quiet stretch is one repeated "0," string."""
        last = self.rounds_recorded - 1
        parts = []
        nxt = 0  # the first round not written yet
        for r in sorted(self.traffic):
            if r > last:
                break
            parts.append("0," * (r - nxt))
            parts.append(str(self.traffic[r][i]) + ("," if r < last else ""))
            nxt = r + 1
        if nxt <= last:
            parts += ["0," * (last - nxt), "0"]
        return parts

    def serialize(self) -> str:
        """The text `rounds`, `complete`, one `out` line per node by id, and
        the `msgs` and `svc` lines of comma-joined per-round counts. Its size
        grows with the rounds recorded, so it is joined once from pieces."""
        parts = ["rounds %d\n" % self.rounds_elapsed, "complete %s\n" % self.complete]
        for v in sorted(self.outputs):
            parts.append("out %d %r\n" % (v, self.outputs[v]))
        return "".join([*parts, "msgs ", *self._counts(0), "\nsvc ", *self._counts(1), "\n"])


def _step_each(step):
    """The group step of a program without ``step_group``: ``step`` on each
    member, with an empty inbox in round 0."""
    def step_group(states, rnd, key, result, members):
        return {}, [(v, step(states[v], rnd, {} if key is None else {key: result}))
                    for v in members], {}, ()
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
    # round -> node -> the inbox its step reads; a wake is an empty inbox
    agenda: Dict[int, Dict[int, Dict[Any, Any]]] = {}
    due_rounds: List[int] = []  # min-heap of the rounds in `agenda`
    step_group = getattr(program, "step_group", None) or _step_each(step)
    # round -> the timer groups due then, as (inbox key, shared result,
    # members); a member has no other delivery in that round. Round 0 is one
    # group of every node.
    held: Dict[int, List[Tuple[Any, Optional[CollectResult], Set[int]]]] = {
        0: [(None, None, set(adj))]}
    traffic: Dict[int, Tuple[int, int]] = {}  # busy round -> its two counts
    log: Optional[Dict[int, List[Tuple[int, int, Any]]]] = {} if record_messages else None
    balls: Dict[int, BfsBall] = {}  # per sender or reader, for the checks

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

    def check_within(u, targets, hops, what):
        """Exact check that every node of `targets` lies within `hops` hops
        of u; u's ball grows only as far as this and earlier checks need."""
        ball = balls.get(u)
        if ball is None:
            ball = balls[u] = BfsBall(g, u)
        ball.reach(targets, hops)
        dist = ball.dist
        for t in targets:
            d = dist.get(t)
            if d is None or d > hops:
                raise RuntimeError("node %r is not within %s %d of %s %d"
                                   % (t, what[0], hops, what[1], u))

    def check_route(u, send):
        """Check that a Send's route is a path of g from its sender u to its
        target with at most `latency` edges: a certificate of the distance
        bound, in O(latency) lookups."""
        route = send.route
        if (not route or route[0] != u or route[-1] != send.target
                or len(route) > send.latency + 1
                or not all(map(contains, map(adj.get, route, _nowhere), route[1:]))):
            raise RuntimeError("route %r is not a path of at most latency %d "
                               "from sender %d to %r"
                               % (route, send.latency, u, send.target))

    # round 0 is the setup phase: every node steps once with an empty inbox
    # and may already send; a message sent in round r is readable in round
    # r + 1, so after round t every node has exactly its radius-t knowledge.
    rnd = 0
    while True:
        inboxes = agenda.pop(rnd, {})
        msg_count = 0
        svc_count = 0
        round_log: List[Tuple[int, int, Any]] = []
        next_inboxes = None  # round rnd + 1, made due by the first message
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
            timed, stepped, done, waiting = step_group(states, rnd, key, result,
                                                       members)
            count = len(stepped) + len(done) + len(waiting)
            for req, group in timed.items():
                if group:
                    timer_groups.setdefault(req, []).extend(group)
                    count += len(group)
                    svc_count += len(group)
            # every member answered, by as many answers as there are members;
            # a waiting member keeps its state and needs nothing more
            if (count != len(members) or members.difference(
                    map(_first, stepped), done, waiting, *timed.values())):
                raise RuntimeError("step_group did not answer each of its %d "
                                   "members once" % len(members))
            if done:
                for v in sorted(done.keys() & outputs.keys()):
                    if outputs[v] != done[v]:
                        raise RuntimeError("node %d changed its final output" % v)
                outputs.update(done)
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
                        if req.read:
                            if __debug__:
                                check_within(v, req.read, req.radius,
                                             ("radius", "reader"))
                        elif lone:
                            group = timer_groups.get((req.tag, req.radius))
                            if group is None:
                                group = timer_groups[req.tag, req.radius] = []
                            group.append(v)
                            continue
                        collect_buffer.append((v, req))
                    elif kind is Send:
                        if __debug__:
                            if req.route is None:
                                check_within(v, (req.target,), req.latency,
                                             ("latency", "sender"))
                            else:
                                check_route(v, req)
                        at = rnd + req.latency
                        deliver(inboxes_at(at), at, req.target, ("msg", v), req.payload)
                        if log is not None:
                            round_log.append((v, req.target, req.payload))
                    else:
                        raise TypeError("unknown service request %r" % (req,))
            at = res.wake_at
            if at is not None:
                if at <= rnd:
                    raise RuntimeError("wake_at must be in the future")
                wakes = inboxes_at(at)
                if v not in wakes:
                    wakes[v] = new_inbox(at, v) if held else {}
        # this round's inboxes go before the collects fill later rounds' ones
        inboxes.clear()
        # a read sees the outputs as every step of the round left them; a
        # pure timer: every requester of a (tag, radius) in this round
        # receives the same frozen result
        timers = {key: CollectResult(*key) for key in timer_groups}
        for v, req in collect_buffer:
            if req.read:
                result = CollectResult(req.tag, req.radius, {
                    u: outputs[u] for u in req.read if u in outputs})
            else:
                result = timers.get((req.tag, req.radius))
                if result is None:
                    result = timers[req.tag, req.radius] = CollectResult(
                        req.tag, req.radius)
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
        if msg_count or svc_count:
            traffic[rnd] = (msg_count, svc_count)
            if round_log:
                log[rnd] = round_log
        if len(outputs) == len(adj):
            return Transcript(max(rnd, 1), dict(outputs), True, rnd + 1, traffic, log)
        nxt = heapq.heappop(due_rounds) if due_rounds else round_cap + 1
        if nxt > round_cap:
            raise RoundCapExceeded("round cap %d reached" % round_cap, Transcript(
                round_cap, dict(outputs), False, round_cap + 1, traffic, log))
        rnd = nxt


class GatherProgram:
    """Flood for `radius` rounds, then output the learned ball.

    Each node starts knowing its id, sorted neighbor tuple, and an optional
    local variable; after exactly `radius` rounds it outputs a map from every
    node within distance `radius` to that node's (neighbors, variable) pair.
    A node steps when it hears from a neighbor, and in round `radius`, which
    it asks to wake for in round 0. Every inbox item is a neighbor's message:
    the program requests no collect, and a wake is an empty inbox.
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
            for payload in inbox.values():
                for u, entry in payload.items():
                    if u not in know:
                        learned[u] = entry
            know.update(learned)
        if rnd == self.radius:
            return StepResult(state, output={u: know[u] for u in sorted(know)})
        outbox = {nbr: learned for nbr in state["nbrs"]} if learned else None
        return StepResult(state, outbox, wake_at=self.radius if rnd == 0 else None)


class StagedProgram:
    """Walk a schedule of timer collects fixed before the run, then leave it.

    `table`, as `schedule` builds it, maps each stage, which is the tag of
    its collect, to ``(radius, default, exceptions)``: when the collect is
    due, a node moves on to `default` unless it lies in one of the disjoint
    node sets of the ``{next stage: nodes}`` map `exceptions`. The stage
    None is round 0, where no collect has come yet; its radius is unused. A
    next stage of None leaves the schedule, and ``leave`` says what the node
    does then: by default it outputs ``outputs[v]``. ``leave_group`` is
    ``leave`` on a set of nodes, as a group step's ``(outputs, stepped,
    waiting)``: the nodes that only output, in one map, the others' results,
    and the nodes whose ``leave`` is ``StepResult(v)``: they keep their id as
    their state and wait for a delivery. By default every node only outputs,
    so a group leaves in one comprehension; a subclass that changes ``leave``
    changes ``leave_group`` with it.

    A node's state is its id while it walks the schedule, and its stage is
    the tag in its inbox, so a group step splits its members by set
    intersection and touches no state. Only a stage of the table is ever a
    group's: a subclass's own tail makes no lone timer of another tag.
    """

    def __init__(self, table: Dict[Any, Tuple[Optional[int], Any, Dict[Any, Any]]],
                 outputs: Optional[Dict[int, Any]] = None):
        self.table = table
        self.outputs = outputs
        self.requests = {stage: (Collect(row[0], stage),)
                         for stage, row in table.items() if stage is not None}

    def init(self, node, neighbors):
        return node

    def leave(self, v, rnd) -> StepResult:
        return StepResult(v, output=self.outputs[v])

    def leave_group(self, part, rnd):
        outputs = self.outputs
        return {v: outputs[v] for v in part}, [], ()

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
        _, default, exceptions = self.table[key[1] if key else None]
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
        done: Dict[int, Any] = {}
        waiting: Set[int] = set()
        for stage, part in moves:
            if stage is None:
                outputs, results, waits = self.leave_group(part, rnd)
                done.update(outputs)
                stepped += results
                waiting.update(waits)
            else:
                timed[stage, self.table[stage][0]] = part
        return timed, stepped, done, waiting


def stage_chain(name, radii):
    """Table rows of the stages ``(name, 0)``, ``(name, 1)``, ... with the
    given radii, each moving every node on to the next and the last out of
    the schedule."""
    last = len(radii) - 1
    return {(name, s): (radius, (name, s + 1) if s < last else None, {})
            for s, radius in enumerate(radii)}


def schedule(prefix, branches, exits):
    """The `StagedProgram` table of a replay: every node walks the stages
    ``("prefix", i)`` with the radii `prefix`. After prefix stage i, the
    nodes of ``exits[i][name]`` (disjoint sets) turn to branch `name`, the
    stages ``(name, s)`` with the radii ``branches[name]``. A node leaves the
    schedule at the end of the prefix or of its branch."""
    table = {None: (None, ("prefix", 0), {}), **stage_chain("prefix", prefix)}
    for i, turns in exits.items():
        radius, nxt, _ = table["prefix", i]
        table["prefix", i] = (radius, nxt, {(name, 0): nodes
                                            for name, nodes in turns.items()})
    for name, radii in branches.items():
        table.update(stage_chain(name, radii))
    return table


def replay(g: Graph, outputs: Dict[int, Any], prefix, branches, exits,
           round_cap: Optional[int] = None) -> Transcript:
    """Run the `schedule` table on `g`; each node outputs ``outputs[v]`` as
    it leaves. The default cap is twice the rounds of the prefix and the
    longest branch, plus 10."""
    if round_cap is None:
        longest = max(map(sum, branches.values()), default=0)
        round_cap = 2 * (sum(prefix) + longest + 10)
    return run(g, StagedProgram(schedule(prefix, branches, exits), outputs), round_cap)
