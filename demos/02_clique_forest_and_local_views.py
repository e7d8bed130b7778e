# The canonical clique forest: maximal cliques, the tie-broken spanning
# forest, path classification, peeling, and reconstructing local views.

from chordalg import (
    classify_paths, clique_forest, gen_chordal, gen_spider, local_view,
    remove_paths,
)
from chordalg.cliqueforest import IntervalStrip
from chordalg.graphs import ball

g = gen_spider(3, 6)
forest = clique_forest(g)
print("cliques of the spider:")
for i, word in enumerate(forest.words):
    print("C%d: %s" % (i, ",".join(map(str, word))))
for i, j in sorted(forest.edges):
    print("E: %d-%d" % (i, j))

# Path classification: the spider is three pendant chains meeting at one
# degree-3 clique. A path's cliques form an interval strip, whose greedy
# sweep gives an exact maximum independent set.
paths = classify_paths(forest)
for p in paths:
    strip = IntervalStrip(p.cliques)
    print(p.kind, "len", len(p.cliques),
          "diameter", strip.diameter(), "alpha", len(strip.greedy_mis()))

# Peeling the pendant paths leaves exactly the clique forest of the residual
# graph; this invariant carries the whole layering machinery. The nodes a
# path takes with it, its members, are those outside its attach cliques.
residual_forest = remove_paths(forest, g, paths,
                               [IntervalStrip(p.cliques) for p in paths])
removed = {v for p in paths for v in p.members}
rest = g.subgraph(g.nodes - removed)
print("peel removed %d nodes; residual forest equals recomputation: %s"
      % (len(removed), residual_forest.signature() == clique_forest(rest).signature()))

# A node can rebuild its fragment of the forest from a bounded view: for
# every node u within radius d-1, the cliques containing u are exact
# (possible extenders are u-neighbors), and the ball's own forest joins
# them by u's subtree, which those cliques alone fix. Keeping the ball's
# forest to those cliques never invents anything.
big = gen_chordal(60, seed=11, max_clique=5)
full = clique_forest(big)
full_words = set(full.words)
full_edges = {tuple(sorted((full.words[a], full.words[b]))) for a, b in full.edges}
center = min(big.nodes)
frag = local_view(ball(big, center, 4), center, 4)
print("fragment cliques: %d of %d global" % (len(frag), len(full)))
print("fragment inside the global forest:",
      all(w in full_words for w in frag.words)
      and all(tuple(sorted((frag.words[a], frag.words[b]))) in full_edges
              for a, b in frag.edges))
