"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers. Tolerances are pinned here and nowhere else."""

import math
from fractions import Fraction

import pytest

from chordalg import (
    alpha_oracle, brute_alpha, brute_chromatic, clique_forest, gen_chordal,
    gen_interval, local_view, mis_interval, omega_oracle, verify_coloring,
    verify_is,
)
from chordalg.cliqueforest import strips_from_traces
from chordalg.fileio import coloring_to_text
from chordalg.graphs import bfs_distances
from chordalg.intervals import color_budget
from chordalg.mis import mis_chordal_distributed, mis_chordal_run, verify_absorption
from chordalg.mvc import eps_to_k, mvc_distributed, mvc_distributed_run, mvc_pipeline

from conftest import chordal_corpus


@pytest.fixture
def announce(capsys):
    """Print the criterion verdict on the live terminal, capture or not."""
    def _announce(msg):
        with capsys.disabled():
            print("\n" + msg)
    return _announce


MVC_SIZES = (128, 512, 2048)
MAX_CLIQUES = (8, 20)
MVC_EPS = (Fraction(1, 2), Fraction(1, 4))
MIS_EPS = (Fraction(2, 5), Fraction(1, 4))
PER_CONFIG = 50


class MvcCorpusResult:
    def __init__(self):
        self.instances = 0
        self.legal = True
        self.palette_ok = True
        self.byte_equal = True
        self.layer_bound_ok = True
        self.peel_equal = True
        self.worst_ratio = Fraction(0)


@pytest.fixture(scope="module")
def mvc_corpus_results():
    """One pass over the criterion-1 corpus serving criteria 1, 2 and 4."""
    out = MvcCorpusResult()
    for eps in MVC_EPS:
        k = eps_to_k(float(eps))
        for n in MVC_SIZES:
            for mc in MAX_CLIQUES:
                for g, omega in chordal_corpus(eps, n, mc, PER_CONFIG):
                    out.instances += 1
                    run = mvc_pipeline(g, float(eps))
                    res = verify_coloring(g, run.final_colors)
                    out.legal &= res.legal
                    allowance = color_budget(k, omega)
                    out.palette_ok &= res.palette <= allowance
                    out.palette_ok &= Fraction(allowance) <= (1 + eps) * omega
                    out.worst_ratio = max(out.worst_ratio, Fraction(res.palette, omega))
                    # criterion 2: simulated run, byte-equal artifacts
                    _, transcript = mvc_distributed_run(run)
                    out.byte_equal &= (
                        coloring_to_text(run.final_colors)
                        == coloring_to_text(transcript.outputs))
                    # criterion 4: layer bound and peel soundness
                    layering = run.layering
                    out.layer_bound_ok &= layering.num_layers <= math.ceil(
                        math.log2(max(2, layering.clique_count)))
                    for i in range(1, layering.num_layers + 1):
                        leftover = [v for v, l in layering.layer.items() if l > i]
                        want = clique_forest(g.subgraph(leftover)).signature()
                        out.peel_equal &= (
                            layering.forest_history[i].signature() == want)
    return out


def test_criterion_1_mvc_approximation(mvc_corpus_results, announce):
    r = mvc_corpus_results
    assert r.instances == len(MVC_EPS) * len(MVC_SIZES) * len(MAX_CLIQUES) * PER_CONFIG
    assert r.legal and r.palette_ok
    announce("criterion 1 PASS: %d instances legal, palette <= floor((1+1/k)w)+1"
          " <= (1+eps)w, worst palette/omega = %.3f"
          % (r.instances, float(r.worst_ratio)))


def test_criterion_2_centralized_distributed_equivalence(mvc_corpus_results, announce):
    r = mvc_corpus_results
    assert r.byte_equal
    announce("criterion 2 PASS: %d simulated runs byte-equal to the centralized"
          " coloring" % r.instances)


def test_criterion_3_mvc_round_bound(announce):
    eps = 0.5
    seeds_per_n = 10
    sizes = (128, 256, 512, 1024, 2048)
    rounds = {n: [] for n in sizes}
    for n in sizes:
        for g, _ in chordal_corpus(Fraction(1, 2), n, 8, count=seeds_per_n):
            run = mvc_pipeline(g, eps)
            _, transcript = mvc_distributed_run(run)
            rounds[n].append(transcript.rounds_elapsed)
    inv_eps = 1 / eps
    calibration = max(r / (inv_eps * math.log2(128)) for r in rounds[128])
    cap = {n: 1.5 * calibration * inv_eps * math.log2(n) for n in sizes}
    for n in sizes:
        assert all(r <= cap[n] for r in rounds[n]), (n, max(rounds[n]), cap[n])
    announce("criterion 3 PASS: C=%.2f calibrated at n=128; max rounds per n: %s"
          " within 1.5*C*(1/eps)*log2(n)"
          % (calibration, {n: max(rounds[n]) for n in sizes}))


@pytest.mark.parametrize("name,solve,make,grid,f", [
    ("mvc", mvc_distributed, lambda s: gen_chordal(512, s, max_clique=40),
     (1, 1 / 2, 1 / 4, 1 / 8), lambda eps: 1 / eps),
    ("mis", mis_chordal_distributed, lambda s: gen_chordal(200, s, max_clique=30),
     (0.45, 0.3, 0.2, 0.15), lambda eps: (1 / eps) * math.log2(1 / eps)),
])
def test_rounds_against_eps(announce, name, solve, make, grid, f):
    """Rounds grow with 1/eps no faster than the paper's bounds: f(eps) =
    1/eps for coloring and (1/eps)*log2(1/eps) for independent set, at a
    fixed n, with C calibrated at the largest eps."""
    graphs = [make(s) for s in range(3)]
    rounds = {eps: [solve(g, eps)[1].rounds_elapsed for g in graphs] for eps in grid}
    calibration = max(r / f(grid[0]) for r in rounds[grid[0]])
    for eps in grid:
        cap = 1.5 * calibration * f(eps)
        assert all(r <= cap for r in rounds[eps]), (eps, max(rounds[eps]), cap)
    announce("rounds-vs-eps %s PASS: C=%.1f calibrated at eps=%g; max rounds per"
             " eps: %s within 1.5*C*f(eps)"
             % (name, calibration, grid[0], {eps: max(rounds[eps]) for eps in grid}))


def test_criterion_4_layer_bound_and_peel_soundness(mvc_corpus_results, announce):
    r = mvc_corpus_results
    assert r.layer_bound_ok and r.peel_equal
    announce("criterion 4 PASS: %d instances, layers <= ceil(log2 #cliques) and"
          " every maintained forest equals the recomputed one" % r.instances)


def test_criterion_5_mis_interval(announce):
    checked = 0
    worst = Fraction(0)
    for eps in (Fraction(2, 5), Fraction(1, 10)):
        for n in (200, 1000):
            for seed in range(PER_CONFIG):
                g = gen_interval(n, seed=seed)
                chosen = mis_interval(g, float(eps))
                assert verify_is(g, chosen)
                alpha = len(alpha_oracle(g))
                assert (1 + eps) * len(chosen) >= alpha, (n, seed, eps)
                worst = max(worst, Fraction(alpha, len(chosen)))
                checked += 1
    announce("criterion 5 PASS: %d interval instances independent and within"
          " (1+eps); worst alpha/|I| = %.3f" % (checked, float(worst)))


@pytest.fixture(scope="module")
def mis_corpus_results():
    results = []
    for eps in MIS_EPS:
        for n in MVC_SIZES:
            for mc in MAX_CLIQUES:
                for seed in range(PER_CONFIG):
                    g = gen_chordal(n, seed=seed, max_clique=mc)
                    run = mis_chordal_run(g, float(eps))
                    alpha = len(alpha_oracle(g))
                    leftover = run.state.residuals[-1]
                    rest = len(alpha_oracle(g.subgraph(leftover))) if leftover else 0
                    results.append({
                        "eps": eps,
                        "independent": verify_is(g, run.chosen),
                        "size": len(run.chosen),
                        "alpha": alpha,
                        "residual": rest,
                        "absorption": verify_absorption(g, run),
                        "records": len(run.state.absorption),
                    })
    return results


def test_criterion_6_mis_chordal(mis_corpus_results, announce):
    worst = Fraction(0)
    for r in mis_corpus_results:
        assert r["independent"]
        assert (1 + r["eps"]) * r["size"] >= r["alpha"]
        assert Fraction(r["residual"]) <= r["eps"] * r["alpha"] / 2
        worst = max(worst, Fraction(r["alpha"], r["size"]))
    announce("criterion 6 PASS: %d chordal instances within (1+eps) and residual"
          " alpha <= (eps/2)*alpha; worst alpha/|I| = %.3f"
          % (len(mis_corpus_results), float(worst)))


def test_criterion_7_absorption(mis_corpus_results, announce):
    total = sum(r["records"] for r in mis_corpus_results)
    assert all(r["absorption"] for r in mis_corpus_results)
    assert total > 0
    announce("criterion 7 PASS: absorption identity exact on %d small-component"
          " invocations" % total)


def test_criterion_8_oracle_self_consistency(announce):
    checked = 0
    for seed in range(200):
        n = 1 + seed % 12
        g = gen_chordal(n, seed=seed, max_clique=4)
        assert omega_oracle(g) == brute_chromatic(g)
        assert len(alpha_oracle(g)) == brute_alpha(g)
        checked += 1
    announce("criterion 8 PASS: %d tiny chordal graphs, oracles equal brute force"
          % checked)


def test_criterion_9_local_view_consistency(announce):
    inspected = 0
    for n in (40, 80, 120, 160, 200):
        for seed in range(4):
            g = gen_chordal(n, seed=seed, max_clique=6)
            full = clique_forest(g)
            words = set(full.words)
            edges = {tuple(sorted((full.words[a], full.words[b])))
                     for a, b in full.edges}
            for v in sorted(g.nodes):
                for d in (2, 4):
                    ballg = g.subgraph(bfs_distances(g, v, cutoff=d))
                    frag = local_view(ballg, v, d)
                    assert all(w in words for w in frag.words)
                    assert all(
                        tuple(sorted((frag.words[a], frag.words[b]))) in edges
                        for a, b in frag.edges)
                    inspected += 1
    announce("criterion 9 PASS: %d local views, all contained in the global"
          " clique forest" % inspected)


def test_criterion_10_mis_round_profile(announce):
    eps = 0.4
    per_n = {}
    for n in (200, 800, 3200):
        rounds = []
        for seed in range(3):
            g = gen_chordal(n, seed=seed, max_clique=6)
            _, transcript = mis_chordal_distributed(g, eps)
            assert transcript.complete
            rounds.append(transcript.rounds_elapsed)
        per_n[n] = max(rounds)
    growth = (per_n[3200] - per_n[200]) / per_n[200]
    assert growth <= 0.10, per_n
    announce("criterion 10 PASS: max rounds %s, growth %.1f%% from n=200 to"
          " n=3200 (cap never exceeded)" % (per_n, 100 * growth))
