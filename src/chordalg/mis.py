"""Approximate maximum independent set on chordal graphs.

A bounded number of peeling iterations (depending only on the accuracy
target) removes pendant and long internal paths from the clique forest; the
removed interval strips already hold an almost-maximum independent set.
Small components are solved exactly on their clique strip, by its
earliest-right-end sweep or, next to a residual anchor, by the absorbing
sweep; large ones with the approximate interval routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .cliqueforest import (
    INTERNAL, IntervalStrip, path_diameter, peel, strips_from_traces,
)
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
        d = math.ceil(64.0 / eps)
        k = math.ceil(math.log2(d / eps) + 2)
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


def absorbing_mis(cliques, component, anchor) -> Set[int]:
    """Maximum independent set of a small interval component.

    `cliques` is the clique path the component was peeled from, ordered so
    that its last clique lies next to the `anchor` clique. Nodes are taken
    simplicial-first starting from the one remotest from the anchor.
    Remoteness is position along the clique path of the component-plus-anchor
    graph (hop counts are too coarse: all of a hanging clique sits at hop
    distance one, yet only its far end keeps the chosen set absorbing). The
    far-end sweep makes the chosen set absorb all independence of its closed
    residual neighborhood minus the nodes already blocked.
    """
    component = set(component)
    anchor = frozenset(anchor)
    strips = strips_from_traces(list(cliques) + [anchor], component | anchor,
                                oriented=True)
    if len(strips) != 1 or strips[0].cliques[-1] != anchor:
        raise AssertionError("anchored strip is not one path ending at the anchor")
    # smallest right endpoint in the anchored strip = remotest simplicial
    # node first; anchor members only widen ranges, they are never picked
    return strips[0].greedy_mis(allowed=component)


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

    def select(i, forest, paths):
        if i < iters:
            return [p for p in paths
                    if p.kind != INTERNAL or path_diameter(p) >= 2 * d + 3]
        return [p for p in paths
                if p.kind != INTERNAL or len(IntervalStrip(p.cliques).greedy_mis()) >= d]

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
                comp = set(strip.nodes)
                # the strip is the component's clique path, so its sweep is exact
                part = strip.greedy_mis()
                tag = "exact"
                if len(part) >= d:
                    part = mis_strip(strip, params.strip_eps)
                    tag = "approx"
                elif i < iters:
                    anchor = _outside_anchor(p, comp)
                    if anchor is not None:
                        cliques = p.cliques[::-1] if anchor == p.attach_s else p.cliques
                        part = absorbing_mis(cliques, comp, anchor)
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


def residual_alpha_check(g: Graph, run: MisRun):
    """Ratio alpha(residual after the last iteration) / alpha(input graph)."""
    leftover = run.state.residuals[-1]
    a_rest = len(alpha_oracle(g.subgraph(leftover))) if leftover else 0
    a_full = len(alpha_oracle(g)) if len(g) else 0
    return a_rest / a_full if a_full else 0.0


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
    transcript = replay(g, outputs, [peel_radius(params.d)] * params.k,
                        branches, exits, round_cap)
    members = {v for v, flag in transcript.outputs.items() if flag}
    if members != run.chosen:
        raise AssertionError("distributed set diverged from centralized")
    return members, transcript


def mis_interval_distributed(h: Graph, eps: float, round_cap: Optional[int] = None):
    """Distributed form of the interval MIS routine: same output set, with
    rounds charged per component branch (exact window or skeleton build)."""
    ki, strips, chosen = _mis_interval_parts(h, eps)
    turns = {"exact": set(), "approx": set()}
    for strip in strips:
        turns["exact" if in_exact_window(strip, ki) else "approx"] |= strip.nodes
    # dominated-node screening, then the component's branch
    transcript = replay(h, {v: (v in chosen) for v in h.nodes}, [2],
                        {"exact": [10 * ki + 2], "approx": strip_stages(ki)},
                        {0: turns}, round_cap)
    members = {v for v, flag in transcript.outputs.items() if flag}
    return members, transcript
