"""The per-node form of the MVC peel decision, for the tests that check
`mvc.prune_layers` against what a node decides from its own ball.

`local_peel_decision` builds the node's clique forest from its residual
ball (`cliqueforest.local_view`) and walks its run of cliques outward until
a true end, a junction or the ball's horizon stops it. It is not called by
the library: the distributed MVC replays the layering that `prune_layers`
computes centrally.
"""

from chordalg.cliqueforest import IntervalStrip, clique_word, local_view, walk_path
from chordalg.graphs import Graph, bfs_distances
from chordalg.mvc import prune_radius


def local_peel_decision(gball: Graph, center: int, residual, k: int):
    """Per-node form of the peeling decision, computed from a radius-10k ball.

    `gball` is the induced subgraph on the radius-10k neighborhood of
    `center` in the full input graph; `residual` flags nodes not yet layered.
    Returns (peel, parent). Used to confirm that the shared pipeline decides
    exactly what a node could decide from its own collected view.
    """
    radius = prune_radius(k)
    resid_ball = gball.subgraph(set(gball.nodes) & set(residual))
    view = local_view(resid_ball, center, radius)
    dist = bfs_distances(resid_ball, center)

    def certified(i):
        return all(dist.get(u, radius + 1) <= radius - 1 for u in view.cliques[i])

    held = [i for i, c in enumerate(view.cliques) if center in c]
    if any(view.degree(i) > 2 for i in held):
        return False, None
    on_path = set(held)
    end = min(i for i in held if len(on_path.intersection(view.fadj[i])) <= 1)
    run_seq = walk_path(view.fadj, end, on_path)
    stops = []
    blocked = set()
    for at_front in (False, True):
        while True:
            end = run_seq[0] if at_front else run_seq[-1]
            taken = set(run_seq) | blocked
            nxt = [j for j in view.fadj[end] if j not in taken]
            if not nxt:
                stops.append(("end", None))
                break
            step = nxt[0]
            if not certified(step):
                stops.append(("horizon", None))
                blocked.add(step)
                break
            if view.degree(step) > 2:
                stops.append(("junction", step))
                blocked.add(step)
                break
            if at_front:
                run_seq.insert(0, step)
            else:
                run_seq.append(step)
    back, front = stops  # extension ran back side first, then front
    kinds = {front[0], back[0]}
    if kinds == {"junction"}:
        strip = IntervalStrip([view.cliques[i] for i in run_seq])
        peel = strip.diameter() >= 3 * k
    else:
        peel = True  # a true end makes it pendant; a horizon proves diameter
    if not peel:
        return False, None
    best = None
    full_dist = bfs_distances(gball, center, cutoff=k + 3)
    for stop_kind, attach in (front, back):
        if stop_kind != "junction":
            continue
        clique = view.cliques[attach]
        d = min((full_dist[u] for u in clique if u in full_dist), default=None)
        if d is None:
            continue
        key = (d, clique_word(clique))
        if best is None or key < best[0]:
            best = (key, clique)
    return True, (max(best[1]) if best else None)
