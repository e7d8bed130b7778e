"""Approximate maximum independent set on chordal graphs.

A bounded number of peeling iterations (depending only on the accuracy
target) removes pendant and long internal paths from the clique forest; the
removed interval strips already hold an almost-maximum independent set.
Each peeled record is cut once into component strips. Small components
are solved exactly on their strip: by its earliest-right-end sweep or, next
to a residual anchor clique X, by the absorbing sweep, which reads the order
of the component-plus-X clique path off the same strip (`absorbing_sweep`).
A component of fewer than d nodes gets that one sweep; large ones may take
the approximate interval routine.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .cliqueforest import IntervalStrip, peel, strips_from_traces
from .errors import BadEpsilon, debug_invariants
from .graphs import Graph, alpha_oracle
from .intervals import (
    _mis_interval_parts, in_exact_window, mis_eps_to_k, mis_strip, strip_stages,
)
from .localsim import replay


@dataclass(frozen=True)
class MisParams:
    """Accuracy-derived knobs: component size cap d and iteration count k."""

    eps: float
    d: int
    k: int

    @classmethod
    def from_eps(cls, eps: float) -> "MisParams":
        if not 0 < eps < 0.5:
            raise BadEpsilon("eps must lie in (0, 1/2)")
        try:
            d = math.ceil(64.0 / eps)
            k = math.ceil(math.log2(d / eps) + 2)
        except OverflowError:
            raise BadEpsilon("eps %g is too small: its parameters overflow" % eps)
        return cls(eps, d, k)

    @property
    def strip_eps(self) -> float:
        """The accuracy of the interval routine on a large component."""
        return self.eps / 8.0


@dataclass
class AbsorptionRecord:
    """One small-component invocation, kept for the absorption equation test."""

    iteration: int
    component: frozenset
    chosen: frozenset
    forbidden: frozenset
    anchor: Optional[frozenset]


@dataclass
class PeelState:
    residuals: List[Set[int]] = field(default_factory=list)  # U_1 .. U_{k+1}
    deg3_counts: List[int] = field(default_factory=list)     # a_1 .. a_k
    per_iteration: List[Set[int]] = field(default_factory=list)  # I_i
    absorption: List[AbsorptionRecord] = field(default_factory=list)
    branch: Dict[int, Optional[str]] = field(default_factory=dict)
    layer: Dict[int, int] = field(default_factory=dict)


def _runs_forward(cliques, strip: IntervalStrip) -> bool:
    """Whether `strip`, cut from the clique path `cliques`, runs in the
    direction of `cliques` (the cut may have turned it round).

    A node only on the strip's first clique and one only on its last are
    not adjacent, and the first starts on `cliques` before the second does
    exactly when the strip runs forward.
    """
    if len(strip.cliques) == 1:
        return True
    first = next(iter(strip.cliques[0] - strip.cliques[1]))
    last = next(iter(strip.cliques[-1] - strip.cliques[-2]))
    return first in next(c for c in cliques if first in c or last in c)


def absorbing_sweep(g: Graph, record, strip: IntervalStrip, anchor) -> Set[int]:
    """Maximum independent set of a small component, next to the residual
    `anchor` clique X, that absorbs the independence of its neighbourhood.

    `strip` is the component's strip, cut from `record.cliques`. The set is
    the earliest-right-end sweep of the clique path of the component plus
    X, with X last, taken from the remotest simplicial node (hop counts are
    too coarse: all of a hanging clique sits one hop from X, yet only its
    far end keeps the set absorbing). That path is not built; its order is
    read off the strip from X's side:
    - The cliques holding a node of X span a subtree of the clique forest
      (Blair & Peyton 1993), and X is attached at one end of the record. So
      on the record's cliques the nodes of X grow toward X: one on a record
      clique lies on every record clique from there to X. A member meets X
      only on its own cliques, so its anchor degree |N(v) & X| grows with
      its last record clique.
    - The traces of the record's cliques on component plus X are the
      component's traces, each with that growing part of X. A trace the
      cut swallows into a later one is swallowed here too. A trace kept
      here only is one whose X part grew past a trace that holds its
      component part, so no node starts on it: ties in the first clique
      stay ties, and adjacency is the strip's. It only splits nodes that
      end on the same strip clique, by their last record clique, and so by
      anchor degree, equal degrees staying together.
    So the sweep order is (last clique, anchor degree, first clique, id),
    counted from X's side. The path is one path ending at X iff some node
    of the strip's X-side end clique has a neighbour in X.
    """
    if (anchor == record.attach_e) == _runs_forward(record.cliques, strip):
        last, first = strip.hi, strip.lo
    else:  # X faces the strip's first clique: read it mirrored, positions negated
        last = {v: -j for v, j in strip.lo.items()}
        first = {v: -j for v, j in strip.hi.items()}
    adj = g.adj
    degree = {v: len(adj[v] & anchor) for v in last}
    order = sorted(last, key=lambda v: (last[v], degree[v], first[v], v))
    if not degree[order[-1]]:
        raise AssertionError("anchored strip is not one path ending at the anchor")
    chosen: Set[int] = set()
    blocked_to = -len(strip.cliques)  # below every first position
    for v in order:
        if first[v] > blocked_to:
            chosen.add(v)
            blocked_to = last[v]
    return chosen


def _outside_anchor(record, component):
    """The unique attach clique holding the component's residual outside
    neighbours: the non-members of the record cliques that meet it (`PeelPath`)."""
    outside = set().union(*(c for c in record.cliques if not c.isdisjoint(component)))
    outside.difference_update(record.members)
    if not outside:
        return None
    hits = [side for side in (record.attach_s, record.attach_e)
            if side is not None and not outside.isdisjoint(side)]
    if len(hits) != 1 or not outside <= hits[0]:
        raise AssertionError("outside neighbors not confined to one attach clique")
    return hits[0]


@dataclass
class MisRun:
    params: MisParams
    chosen: Set[int]
    state: PeelState


def mis_chordal_run(g: Graph, eps: float) -> MisRun:
    params = MisParams.from_eps(eps)
    d, iters = params.d, params.k

    def select(i, strip):
        if i < iters:
            return strip.diameter() >= 2 * d + 3
        return len(strip.greedy_mis()) >= d

    residual = set(g.nodes)
    chosen: Set[int] = set()
    forbidden: Set[int] = set()
    state = PeelState()
    state.residuals.append(set(residual))
    for step in peel(g, select):
        i, forest = step.index, step.forest
        state.deg3_counts.append(
            sum(1 for j in range(len(forest)) if forest.degree(j) > 2))
        frozen_forbidden = frozenset(forbidden)
        gained: Set[int] = set()
        removed_all: Set[int] = set()
        for p in step.paths:
            w_set = set(p.members)
            removed_all |= w_set
            for v in w_set:
                state.layer[v] = i
                state.branch.setdefault(v, None)
            active = w_set - frozen_forbidden
            if not active:
                continue
            for strip in strips_from_traces(p.cliques, active):
                comp = strip.nodes
                # fewer than d nodes means alpha < d: no plain sweep is needed
                # before the anchor; a larger component may still be approximate
                part = None if i < iters and len(comp) < d else strip.greedy_mis()
                tag = "exact"
                if part is not None and len(part) >= d:
                    part = mis_strip(strip, params.strip_eps)
                    tag = "approx"
                elif i < iters:
                    anchor = _outside_anchor(p, comp)
                    if anchor is not None:
                        part = absorbing_sweep(g, p, strip, anchor)
                    elif part is None:
                        part = strip.greedy_mis()
                    state.absorption.append(AbsorptionRecord(
                        i, frozenset(comp), frozenset(part),
                        frozen_forbidden, anchor))
                for v in comp:
                    state.branch[v] = tag
                gained |= part
        chosen |= gained
        state.per_iteration.append(gained)
        for v in gained:
            forbidden.add(v)
            forbidden |= g.adj[v]
        residual -= removed_all
        state.residuals.append(set(residual))
        if i == iters:
            break
    run = MisRun(params, chosen, state)
    if debug_invariants() and not verify_absorption(g, run):
        raise AssertionError("absorption equation violated")
    return run


def mis_chordal_centralized(g: Graph, eps: float) -> Set[int]:
    return mis_chordal_run(g, eps).chosen


def verify_absorption(g: Graph, run: MisRun) -> bool:
    """Check, for every recorded small-component pick, that the chosen set is
    as large as the independence number of its closed residual neighborhood
    minus the nodes that were already blocked."""
    for rec in run.state.absorption:
        ui = run.state.residuals[rec.iteration - 1]
        region: Set[int] = set()
        for v in rec.chosen:
            region |= g.closed_neighborhood(v) & ui
        region -= rec.forbidden
        if len(alpha_oracle(g.subgraph(region))) != len(rec.chosen):
            return False
    return True


# ---------------------------------------------------------------------------
# distributed variant


def peel_radius(d: int) -> int:
    return 2 * d + 12


def exact_branch_stages(d: int) -> List[int]:
    return [2 * d + 6]


def _require_countable(eps: float, prefix: List[int], branches: Dict[str, List[int]]):
    """BadEpsilon when a replay at eps would charge more rounds than a
    transcript can index."""
    if sum(prefix) + max(map(sum, branches.values())) > sys.maxsize:
        raise BadEpsilon("eps %g is too small: its replay charges more than %d rounds"
                         % (eps, sys.maxsize))


def mis_chordal_distributed(g: Graph, eps: float, round_cap: Optional[int] = None):
    """Simulate the node program; returns (independent set, transcript).

    The set equals the centralized output; the transcript spends the same
    number of rounds for every input size at a fixed accuracy, except for the
    branch-dependent tail: one collection per peeling iteration, then the
    stages of a node's branch, if it has one.
    """
    run = mis_chordal_run(g, eps)
    params = run.params
    branches = {"approx": strip_stages(mis_eps_to_k(params.strip_eps)),
                "exact": exact_branch_stages(params.d)}
    exits = {params.k - 1: {name: {v for v, b in run.state.branch.items() if b == name}
                            for name in branches}}
    outputs = {v: v in run.chosen for v in g.nodes}
    prefix = [peel_radius(params.d)] * params.k
    _require_countable(eps, prefix, branches)
    transcript = replay(g, outputs, prefix, branches, exits, round_cap)
    members = {v for v, flag in transcript.outputs.items() if flag}
    if members != run.chosen:
        raise AssertionError("distributed set diverged from centralized")
    return members, transcript


def mis_interval_distributed(h: Graph, eps: float, round_cap: Optional[int] = None):
    """Distributed form of the interval MIS routine: same output set, with
    rounds charged per component branch (exact window or skeleton build);
    the replayed set is compared with the centralized one."""
    ki, strips, chosen = _mis_interval_parts(h, eps)
    turns = {"exact": set(), "approx": set()}
    for strip in strips:
        turns["exact" if in_exact_window(strip, ki) else "approx"] |= strip.nodes
    # dominated-node screening, then the component's branch
    branches = {"exact": [10 * ki + 2], "approx": strip_stages(ki)}
    _require_countable(eps, [2], branches)
    transcript = replay(h, {v: (v in chosen) for v in h.nodes}, [2],
                        branches, {0: turns}, round_cap)
    members = {v for v, flag in transcript.outputs.items() if flag}
    if members != chosen:
        raise AssertionError("distributed set diverged from centralized")
    return members, transcript
