# The round-based message-passing engine: gather combinators, transcripts,
# and the locality guarantee ("after t rounds you know your radius-t ball").

from chordalg import Graph, gen_path
from chordalg.localsim import Collect, StepResult, gather, run

# Flooding for two rounds teaches the center of a 5-path every id.
t = run(gen_path(5), gather(2), round_cap=10)
print("rounds:", t.rounds_elapsed, "complete:", t.complete)
print("node 3 knows:", sorted(t.outputs[3]))

# Messages travel one hop per round, so state after round t is a function of
# the radius-t view only: two graphs agreeing around node 5 are
# indistinguishable to it.
base = [(i, i + 1) for i in range(1, 9)]
with_extra = base + [(1, 9)]
a = run(Graph(base), gather(2), 10).outputs[5]
b = run(Graph(with_extra), gather(2), 10).outputs[5]
print("radius-2 views agree despite the far-away edge:", a == b)

# The engine-mediated Collect service is flooding with the same cost model;
# programs that only need timing can skip the payload entirely.


class CollectOnce:
    def init(self, node, neighbors):
        return node

    def step(self, state, rnd, inbox):
        if rnd == 0:
            return StepResult(state, requests=[Collect(3, tag="look")])
        got = inbox[("collect", "look")]
        return StepResult(state, output=len(got.nodes))


t2 = run(gen_path(9), CollectOnce(), 10)
print("collect(3) delivered at round", t2.rounds_elapsed,
      "; ball sizes:", [t2.outputs[v] for v in sorted(t2.outputs)])

# Transcripts are deterministic byte for byte, whatever the scan order.
s1 = run(gen_path(6), gather(3), 10).serialize()
s2 = run(gen_path(6), gather(3), 10, scan="reverse").serialize()
print("transcripts identical under a different scheduler order:", s1 == s2)
