"""The simulator loop kept as a reference for the differential tests.

It is the engine's `run` before inboxes were kept as dicts, timers were
delivered by group and requests were dispatched on their exact type. It
reads an outbox of ``None``, which `StepResult` now defaults to, and like the
engine it steps a node after round 0 only for a delivery or a wake. A collect
that reads named nodes returns their outputs as they stood at the end of the
request round, and the nodes must lie within its radius. It records every
round, quiet ones included, and builds the sparse `Transcript` from those
lists.
"""

import heapq
from typing import Any, Dict, List, Optional, Tuple

from chordalg.errors import RoundCapExceeded
from chordalg.graphs import BfsBall, Graph
from chordalg.localsim import (
    NO_OUTPUT, Collect, CollectResult, Send, Transcript,
)


def reference_run(g: Graph, program, round_cap: int, record_messages: bool = False,
                  scan: str = "forward") -> Transcript:
    """The former `localsim.run`, event-driven only, with the outbox
    default."""
    if round_cap < 1:
        raise ValueError("round_cap must be >= 1")
    nodes = g.sorted_nodes()
    states = {v: program.init(v, tuple(sorted(g.adj[v]))) for v in nodes}
    outputs: Dict[int, Any] = {}
    # round -> node -> inbox items; a wake is an entry with no items
    agenda: Dict[int, Dict[int, list]] = {}
    due_rounds: List[int] = []  # min-heap of the rounds in `agenda`
    message_counts: List[int] = []
    service_counts: List[int] = []
    log: Optional[List[List[Tuple[int, int, Any]]]] = [] if record_messages else None
    balls: Dict[int, BfsBall] = {}

    def inbox_at(at, v) -> list:
        """v's inbox items for round `at`, which becomes due."""
        if at <= rnd:
            raise RuntimeError("delivery due at round %d, not after round %d"
                               % (at, rnd))
        inboxes = agenda.get(at)
        if inboxes is None:
            inboxes = agenda[at] = {}
            heapq.heappush(due_rounds, at)
        items = inboxes.get(v)
        if items is None:
            items = inboxes[v] = []
        return items

    def check_within(u, targets, hops, what):
        """Exact check that every node of `targets` lies within `hops` hops
        of u; u's ball grows only as far as this and earlier checks need."""
        ball = balls.get(u)
        if ball is None:
            ball = balls[u] = BfsBall(g, u)
        ball.reach(targets, hops)
        for t in targets:
            d = ball.dist.get(t)
            if d is None or d > hops:
                raise RuntimeError("node %r is not within %s %d of %s %d"
                                   % (t, what[0], hops, what[1], u))

    def pad_to(rounds):
        """Record the quiet rounds up to (not including) round `rounds`."""
        quiet = rounds - len(message_counts)
        message_counts.extend([0] * quiet)
        service_counts.extend([0] * quiet)
        if log is not None:
            log.extend([] for _ in range(quiet))

    def transcript(rounds, complete):
        """The rounds recorded so far, with the counts and log entries of each
        round that has any."""
        busy = {r: counts for r, counts in enumerate(zip(message_counts, service_counts))
                if any(counts)}
        sent = None if log is None else {r: items for r, items in enumerate(log) if items}
        return Transcript(rounds, dict(outputs), complete, len(message_counts), busy, sent)

    # round 0 is the setup phase: every node steps once with an empty inbox
    # and may already send; a message sent in round r is readable in round
    # r + 1, so after round t every node has exactly its radius-t knowledge.
    # Rounds in which no node has a delivery or a wake are skipped and
    # recorded as quiet.
    rnd = 0
    while True:
        inboxes = agenda.pop(rnd, {})
        order = nodes if rnd == 0 else sorted(inboxes)
        if scan == "reverse":
            order = order[::-1]
        msg_count = 0
        svc_count = 0
        round_log: List[Tuple[int, int, Any]] = []
        collect_buffer: List[Tuple[int, Collect]] = []
        for v in order:
            res = program.step(states[v], rnd, dict(inboxes.get(v, ())))
            states[v] = res.state
            if res.output is not NO_OUTPUT:
                if v in outputs and outputs[v] != res.output:
                    raise RuntimeError("node %d changed its final output" % v)
                outputs[v] = res.output
            for nbr in sorted(res.outbox or ()):
                if nbr not in g.adj[v]:
                    raise RuntimeError("node %d sent to non-neighbor %d" % (v, nbr))
                payload = res.outbox[nbr]
                inbox_at(rnd + 1, nbr).append((("msg", v), payload))
                msg_count += 1
                if log is not None:
                    round_log.append((v, nbr, payload))
            for req in res.requests:
                svc_count += 1
                if isinstance(req, Collect):
                    if req.read and __debug__:
                        check_within(v, req.read, req.radius, ("radius", "reader"))
                    collect_buffer.append((v, req))
                elif isinstance(req, Send):
                    if __debug__:
                        check_within(v, (req.target,), req.latency, ("latency", "sender"))
                    inbox_at(rnd + req.latency, req.target).append(
                        (("msg", v), req.payload))
                    if log is not None:
                        round_log.append((v, req.target, req.payload))
                else:
                    raise TypeError("unknown service request %r" % (req,))
            if res.wake_at is not None:
                if res.wake_at <= rnd:
                    raise RuntimeError("wake_at must be in the future")
                inbox_at(res.wake_at, v)
        # a read snapshots the outputs after every step of the round
        timers: Dict[Tuple[Any, int], Tuple[Tuple[str, Any], CollectResult]] = {}
        for v, req in collect_buffer:
            if req.read:
                item = (("collect", req.tag), CollectResult(req.tag, req.radius, {
                    u: outputs[u] for u in req.read if u in outputs}))
            else:
                # a pure timer: every requester of this (tag, radius) in this
                # round receives the same frozen result
                item = timers.get((req.tag, req.radius))
                if item is None:
                    item = timers[req.tag, req.radius] = (
                        ("collect", req.tag), CollectResult(req.tag, req.radius))
            inbox_at(rnd + req.radius, v).append(item)
        message_counts.append(msg_count)
        service_counts.append(svc_count)
        if log is not None:
            log.append(round_log)
        if len(outputs) == len(nodes):
            return transcript(max(rnd, 1), True)
        nxt = heapq.heappop(due_rounds) if due_rounds else round_cap + 1
        if nxt > round_cap:
            pad_to(round_cap + 1)
            raise RoundCapExceeded("round cap %d reached" % round_cap,
                                   transcript(round_cap, False))
        pad_to(nxt)
        rnd = nxt


def dense_text(t: Transcript) -> str:
    """A transcript's text as `Transcript.serialize` wrote it before it read
    `traffic` directly: joined from the per-round views."""
    lines = ["rounds %d" % t.rounds_elapsed, "complete %s" % t.complete]
    for v in sorted(t.outputs):
        lines.append("out %d %r" % (v, t.outputs[v]))
    lines.append("msgs %s" % ",".join(map(str, t.message_counts)))
    lines.append("svc %s" % ",".join(map(str, t.service_counts)))
    return "\n".join(lines) + "\n"
