# Approximate coloring of chordal graphs: peel interval layers, color each
# layer within its budget, repair the seams top-down, and replay the same
# decisions as a simulated distributed run.

import math

from chordalg import gen_chordal, omega_oracle, verify_coloring
from chordalg.intervals import color_budget
from chordalg.mvc import (
    color_layers, correct_colors, correction_forest, eps_to_k, mvc_distributed_run,
    mvc_pipeline, prune_layers,
)

eps = 0.5
g = gen_chordal(800, seed=22, max_clique=8)
omega = omega_oracle(g)
k = eps_to_k(eps)
print("n=%d omega=%d eps=%.2f (k=%d)" % (len(g), omega, eps, k))

# Phase 1: peeling. Every layer induces an interval graph and the layer
# count stays logarithmic in the number of cliques.
layering = prune_layers(g, k)
print("layers:", layering.num_layers,
      "<= ceil(log2 #cliques) =", math.ceil(math.log2(layering.clique_count)))
for i in range(1, layering.num_layers + 1):
    print("  layer %d: %d nodes" % (i, len(layering.layer_nodes(i))))

# Phase 2: color layers independently; conflicts only bridge layers.
base = color_layers(layering, k)
conflicts = [(u, v) for u, v in g.edges() if base[u] == base[v]]
print("seam conflicts after independent coloring:", len(conflicts),
      "all between layers:",
      all(layering.layer[u] != layering.layer[v] for u, v in conflicts))

# Phase 3: each peeled path is repaired against the later layers, highest
# layer first. Only nodes close to a conflicting clique may change; those
# are the nodes with a parent in the node program's correction forest.
final = correct_colors(layering, base, k)
changed = [v for v in base if base[v] != final[v]]
parent = correction_forest(layering, k)[0]
print("recolored nodes:", len(changed),
      "all had parents:", all(parent[v] is not None for v in changed))

res = verify_coloring(g, final)
print("legal:", res.legal, "palette:", res.palette,
      "budget:", color_budget(k, omega), "(1+eps)*omega:", (1 + eps) * omega)

# The distributed run replays the identical coloring while paying for every
# collection, poll, and color message.
run = mvc_pipeline(g, eps)
colors, transcript = mvc_distributed_run(run)
print("distributed equals centralized:", colors == run.final_colors)
print("rounds:", transcript.rounds_elapsed,
      "(about (1/eps) * log n up to the calibrated constant)")
