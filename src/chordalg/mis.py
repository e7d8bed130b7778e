"""Approximate maximum independent set on chordal graphs.

A bounded number of peeling iterations (depending only on the accuracy
target) removes pendant and long internal paths from the clique forest; the
removed interval strips already hold an almost-maximum independent set.
Small components are solved exactly with an absorbing maximum independent
set, large ones with the approximate interval routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .cliqueforest import (
    INTERNAL, path_diameter, path_strip, peel, strips_from_traces,
)
from .errors import AlphaTooLarge, BadEpsilon, debug_invariants
from .graphs import Graph, mcs_order
from .intervals import mis_eps_to_k, mis_strip, strip_stages
from . import localsim
from .localsim import StagedProgram, stage_chain


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
    params: MisParams
    residuals: List[Set[int]] = field(default_factory=list)  # U_1 .. U_{k+1}
    deg3_counts: List[int] = field(default_factory=list)     # a_1 .. a_k
    per_iteration: List[Set[int]] = field(default_factory=list)  # I_i
    absorption: List[AbsorptionRecord] = field(default_factory=list)
    branch: Dict[int, Optional[str]] = field(default_factory=dict)
    layer: Dict[int, int] = field(default_factory=dict)

    def blocked_set(self, g: Graph, i: int) -> Set[int]:
        """Union over r <= i of the closed neighborhoods of I_r inside U_{i+1}."""
        out: Set[int] = set()
        ui1 = self.residuals[i] if i < len(self.residuals) else set()
        for chosen in self.per_iteration[:i]:
            for v in chosen:
                out |= (g.closed_neighborhood(v) & ui1) | ({v} & ui1)
        return out


def _gavril_greedy(g: Graph, nodes):
    """Exact maximum independent set of a chordal induced subgraph."""
    sub = g.subgraph(nodes)
    order = mcs_order(sub).order
    taken = set()
    blocked = set()
    for v in order:
        if v not in blocked:
            taken.add(v)
            blocked.add(v)
            blocked |= sub.adj[v]
    return taken


def absorbing_mis(cliques, component, anchor,
                  alpha_cap: Optional[int] = None) -> Set[int]:
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
    chosen = strips[0].greedy_mis(allowed=component)
    if alpha_cap is not None and len(chosen) >= alpha_cap:
        raise AlphaTooLarge("component independence number reaches %d" % alpha_cap)
    return chosen


def _outside_anchor(g: Graph, record_sides, component, w_set, residual):
    """The unique attach clique holding the component's residual outside
    neighbors (earlier-peeled neighbors are no longer forest nodes)."""
    outside = set()
    for v in component:
        outside |= (g.adj[v] & residual) - w_set
    if not outside:
        return None
    hits = [side for side in record_sides
            if side is not None and outside & set(side)]
    if len(hits) != 1 or not outside <= set(hits[0]):
        raise AssertionError("outside neighbors not confined to one attach clique")
    return hits[0]


@dataclass
class MisRun:
    g: Graph
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
                if p.kind != INTERNAL or len(path_strip(p).greedy_mis()) >= d]

    residual = set(g.nodes)
    chosen: Set[int] = set()
    forbidden: Set[int] = set()
    state = PeelState(params)
    state.residuals.append(set(residual))
    for step in peel(g, select):
        i, forest = step.index, step.forest
        state.deg3_counts.append(
            sum(1 for j in range(len(forest)) if forest.degree(j) > 2))
        frozen_forbidden = frozenset(forbidden)
        gained: Set[int] = set()
        removed_all: Set[int] = set()
        for p, members in zip(step.paths, step.members):
            w_set = set(members)
            removed_all |= w_set
            for v in w_set:
                state.layer[v] = i
                state.branch.setdefault(v, None)
            active = w_set - frozen_forbidden
            if not active:
                continue
            sides = p.attach_cliques()
            for strip in strips_from_traces(p.clique_sets(), active):
                comp = set(strip.nodes)
                if len(strip.greedy_mis()) >= d:
                    part = mis_strip(strip, eps / 8.0)
                    tag = "approx"
                else:
                    if i < iters:
                        anchor = _outside_anchor(g, sides, comp, w_set, residual)
                        if anchor is None:
                            part = _gavril_greedy(g, comp)
                        else:
                            cliques = p.clique_sets()
                            if anchor == sides[0]:
                                cliques.reverse()
                            part = absorbing_mis(cliques, comp, anchor, alpha_cap=d)
                        state.absorption.append(AbsorptionRecord(
                            i, frozenset(comp), frozenset(part),
                            frozen_forbidden, anchor))
                    else:
                        part = _gavril_greedy(g, comp)
                    tag = "exact"
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
    run = MisRun(g, params, chosen, state)
    if debug_invariants() and not verify_absorption(g, run):
        raise AssertionError("absorption equation violated")
    return run


def mis_chordal_centralized(g: Graph, eps: float) -> Set[int]:
    return mis_chordal_run(g, eps).chosen


def residual_alpha_check(g: Graph, run: MisRun):
    """Ratio alpha(residual after the last iteration) / alpha(input graph)."""
    from .graphs import alpha_oracle

    leftover = run.state.residuals[-1]
    a_rest = len(alpha_oracle(g.subgraph(leftover))) if leftover else 0
    a_full = len(alpha_oracle(g)) if len(g) else 0
    return a_rest / a_full if a_full else 0.0


def verify_absorption(g: Graph, run: MisRun) -> bool:
    """Check, for every recorded small-component pick, that the chosen set is
    as large as the independence number of its closed residual neighborhood
    minus the nodes that were already blocked."""
    from .graphs import alpha_oracle

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


class MisProgram(StagedProgram):
    """Uniform-schedule node program: one collection per peeling iteration,
    then the branch-specific work, then the membership output."""

    def __init__(self, run: MisRun):
        params = run.params
        k, radius = params.k, peel_radius(params.d)
        branch = run.state.branch
        table = {None: (None, ("peel", 1), {})}
        for i in range(1, k):
            table["peel", i] = (radius, ("peel", i + 1), {})
        # after the last peel a node walks its branch's stages, if it has one
        table["peel", k] = (radius, None, {
            (name, 0): frozenset(v for v, b in branch.items() if b == name)
            for name in ("approx", "exact")})
        table.update(stage_chain(
            "approx", strip_stages(mis_eps_to_k(params.eps / 8.0))))
        table.update(stage_chain("exact", exact_branch_stages(params.d)))
        super().__init__(table, {v: v in run.chosen for v in run.g.nodes})


def default_round_cap(g: Graph, eps: float) -> int:
    params = MisParams.from_eps(eps)
    approx = strip_stages(mis_eps_to_k(eps / 8.0))
    worst = params.k * peel_radius(params.d) + sum(approx) + 10
    return 2 * worst


def mis_chordal_distributed(g: Graph, eps: float, round_cap: Optional[int] = None):
    """Simulate the node program; returns (independent set, transcript).

    The set equals the centralized output; the transcript spends the same
    number of rounds for every input size at a fixed accuracy, except for the
    branch-dependent tail.
    """
    run = mis_chordal_run(g, eps)
    cap = default_round_cap(g, eps) if round_cap is None else round_cap
    transcript = localsim.run(g, MisProgram(run), cap)
    members = {v for v, flag in transcript.outputs.items() if flag}
    if members != run.chosen:
        raise AssertionError("distributed set diverged from centralized")
    return members, transcript


def mis_interval_distributed(h: Graph, eps: float, round_cap: Optional[int] = None):
    """Distributed form of the interval MIS routine: same output set, with
    rounds charged per component branch (exact window or skeleton build)."""
    from .intervals import _mis_interval_parts

    ki, strips, chosen = _mis_interval_parts(h, eps)
    exact_stage = [10 * ki + 2]
    approx_stage = strip_stages(ki)
    branches = {"exact": set(), "approx": set()}
    for strip in strips:
        branches["exact" if strip.diameter() <= 10 * ki else "approx"] |= strip.nodes
    # dominated-node screening, then the component's branch
    table = {None: (None, ("work", 0), {}),
             ("work", 0): (2, None, {(name, 0): frozenset(nodes)
                                     for name, nodes in branches.items()}),
             **stage_chain("exact", exact_stage), **stage_chain("approx", approx_stage)}
    outputs = {v: (v in chosen) for v in h.nodes}
    cap = 2 * (2 + sum(approx_stage) + 10) if round_cap is None else round_cap
    transcript = localsim.run(h, StagedProgram(table, outputs), cap)
    members = {v for v, flag in transcript.outputs.items() if flag}
    return members, transcript
