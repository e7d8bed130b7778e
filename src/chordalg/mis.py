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
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .cliqueforest import (
    INTERNAL, path_diameter, path_strip, peel, strips_from_traces,
)
from .errors import AlphaTooLarge, BadEpsilon, debug_invariants
from .graphs import Graph, mcs_order
from .intervals import mis_eps_to_k, mis_strip, strip_stages
from . import localsim
from .localsim import Collect, StepResult


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
                    if p.kind != INTERNAL or path_diameter(g, p) >= 2 * d + 3]
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


@dataclass(slots=True)
class _MisNode:
    """One node's own schedule (its peel layer, membership and branch
    stages) and its progress through it."""

    layer: Optional[int]
    member: bool
    stages: Sequence[Tuple[Collect, ...]]
    iter: int = 0  # peel iteration
    stage: Optional[int] = None  # branch stage, once peeling ended


class MisProgram:
    """Uniform-schedule node program: one collection per peeling iteration,
    then the branch-specific work, then the membership output."""

    step_every_round = False

    def __init__(self, run: MisRun):
        self.run = run
        self.k = run.params.k
        self.peel_request = (
            Collect(peel_radius(run.params.d), tag="peel", want_data=False),)
        self.stages = {
            branch: [(Collect(r, tag="branch", want_data=False),) for r in radii]
            for branch, radii in (
                ("approx", strip_stages(mis_eps_to_k(run.params.eps / 8.0))),
                ("exact", exact_branch_stages(run.params.d)))
        }

    def init(self, node, neighbors):
        run = self.run
        return _MisNode(run.state.layer.get(node), node in run.chosen,
                        self.stages.get(run.state.branch.get(node), ()))

    def _advance(self, state):
        """Move `state` one collect along its schedule: the peel iterations,
        then the branch stages. Returns what the step publishes (None off
        the node's peel layer) and its next request (None once the schedule
        ends and the node outputs its membership)."""
        publish = None
        stage = state.stage
        if stage is None:
            i = state.iter
            if state.layer == i:
                publish = {"peeled": i}
                if state.member:
                    publish["in_set"] = True
            if i < self.k:
                state.iter = i + 1
                return publish, self.peel_request
            stage = -1
        state.stage = stage = stage + 1
        if stage < len(state.stages):
            return publish, state.stages[stage]
        return publish, None

    def _result(self, state, publish, requests):
        if requests is None:
            return StepResult(state, publish=publish, output=state.member)
        return StepResult(state, publish=publish, requests=requests)

    def step(self, state, rnd, inbox):
        if rnd == 0:
            state.iter = 1
            return StepResult(state, requests=self.peel_request)
        return self._result(state, *self._advance(state))

    def step_group(self, states, rnd, key, result, members):
        """`step` on each member; a member whose step only asks for its next
        timer is timed."""
        peel = self.peel_request
        peeling: List[int] = []
        timed: Dict[Tuple[str, int], List[int]] = {
            (peel[0].tag, peel[0].radius): peeling}
        stepped = []
        advance = self._advance
        for v in members:
            state = states[v]
            publish, requests = advance(state)
            if publish is not None or requests is None:
                stepped.append((v, self._result(state, publish, requests)))
            elif requests is peel:
                peeling.append(v)
            else:
                req = requests[0]
                timed.setdefault((req.tag, req.radius), []).append(v)
        return timed, stepped


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
    stages = {v: [2] for v in h.nodes}  # dominated-node screening
    for strip in strips:
        branch = exact_stage if strip.diameter() <= 10 * ki else approx_stage
        for v in strip.nodes:
            stages[v] = [2] + branch
    outputs = {v: (v in chosen) for v in h.nodes}
    cap = 2 * (2 + sum(approx_stage) + 10) if round_cap is None else round_cap
    transcript = localsim.run(h, localsim.UniformStagedProgram(stages, outputs), cap)
    members = {v for v, flag in transcript.outputs.items() if flag}
    return members, transcript
