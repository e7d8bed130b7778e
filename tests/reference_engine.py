"""The simulator loop kept as a reference for the differential tests.

It is the engine's `run` before inboxes were kept as dicts, timers were
delivered by group and requests were dispatched on their exact type. It
reads an outbox of ``None``, which `StepResult` now defaults to, and like the
engine it steps a node after round 0 only for a delivery or a wake.
"""

import heapq
from typing import Any, Dict, List, Optional, Tuple

from chordalg.errors import RoundCapExceeded
from chordalg.graphs import BfsBall, Graph, bfs_distances
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
    published: Dict[int, Dict[str, Any]] = {v: {} for v in nodes}
    # round -> node -> inbox items; a wake is an entry with no items
    agenda: Dict[int, Dict[int, list]] = {}
    due_rounds: List[int] = []  # min-heap of the rounds in `agenda`
    message_counts: List[int] = []
    service_counts: List[int] = []
    log: Optional[List[List[Tuple[int, int, Any]]]] = [] if record_messages else None
    send_balls: Dict[int, BfsBall] = {}

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
        order = nodes if rnd == 0 else sorted(inboxes)
        if scan == "reverse":
            order = order[::-1]
        msg_count = 0
        svc_count = 0
        round_log: List[Tuple[int, int, Any]] = []
        publish_buffer: List[Tuple[int, Dict[str, Any]]] = []
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
                    collect_buffer.append((v, req))
                elif isinstance(req, Send):
                    if __debug__:
                        check_latency(v, req)
                    inbox_at(rnd + req.latency, req.target).append(
                        (("msg", v), req.payload))
                    if log is not None:
                        round_log.append((v, req.target, req.payload))
                else:
                    raise TypeError("unknown service request %r" % (req,))
            if res.publish:
                publish_buffer.append((v, res.publish))
            if res.wake_at is not None:
                if res.wake_at <= rnd:
                    raise RuntimeError("wake_at must be in the future")
                inbox_at(res.wake_at, v)
        # publishes land after every step of the round, then collects snapshot
        for v, items in publish_buffer:
            published[v].update(items)
        timers: Dict[Tuple[Any, int], Tuple[Tuple[str, Any], CollectResult]] = {}
        for v, req in collect_buffer:
            if req.want_data:
                ball = bfs_distances(g, v, cutoff=req.radius)
                members = tuple(sorted(ball))
                adjacency = {u: tuple(sorted(g.adj[u] & ball.keys())) for u in members}
                snapshot = {u: dict(published[u]) for u in members}
                item = (("collect", req.tag), CollectResult(
                    req.tag, req.radius, rnd, members, adjacency, snapshot))
            else:
                # a pure timer: every requester of this (tag, radius) in this
                # round receives the same frozen result
                item = timers.get((req.tag, req.radius))
                if item is None:
                    item = timers[req.tag, req.radius] = (
                        ("collect", req.tag), CollectResult(req.tag, req.radius, rnd))
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
