# The round-based message-passing engine: the flooding program, transcripts,
# and the locality guarantee ("after t rounds you know your radius-t ball").

from chordalg import Graph, gen_path
from chordalg.localsim import Collect, GatherProgram, StepResult, run

# Flooding for two rounds teaches the center of a 5-path every id.
t = run(gen_path(5), GatherProgram(2), round_cap=10)
print("rounds:", t.rounds_elapsed, "complete:", t.complete)
print("node 3 knows:", sorted(t.outputs[3]))

# Messages travel one hop per round, so state after round t is a function of
# the radius-t view only: two graphs agreeing around node 5 are
# indistinguishable to it.
base = [(i, i + 1) for i in range(1, 9)]
with_extra = base + [(1, 9)]
a = run(Graph(base), GatherProgram(2), 10).outputs[5]
b = run(Graph(with_extra), GatherProgram(2), 10).outputs[5]
print("radius-2 views agree despite the far-away edge:", a == b)

# A Collect is delivered after exactly `radius` rounds, what flooding that
# far costs. It may name nodes within `radius` whose outputs it reads, as
# they stood at the end of the round it was asked in; naming none makes it a
# pure timer. Here even nodes output their id at once, and odd nodes read
# their neighbours and output the sum.


class SumEvenNeighbours:
    def init(self, node, neighbors):
        return node, tuple(sorted(neighbors))

    def step(self, state, rnd, inbox):
        v, nbrs = state
        if v % 2 == 0:
            return StepResult(state, output=v)
        if rnd == 0:
            return StepResult(state, requests=[Collect(1, "look", read=nbrs)])
        got = inbox[("collect", "look")].outputs
        return StepResult(state, output=sum(got.values()))


t2 = run(gen_path(9), SumEvenNeighbours(), 10)
print("read delivered at round", t2.rounds_elapsed,
      "; outputs:", [t2.outputs[v] for v in sorted(t2.outputs)])

# Transcripts are deterministic byte for byte, whatever the scan order.
s1 = run(gen_path(6), GatherProgram(3), 10).serialize()
s2 = run(gen_path(6), GatherProgram(3), 10, scan="reverse").serialize()
print("transcripts identical under a different scheduler order:", s1 == s2)
