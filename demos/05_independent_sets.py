# Approximate maximum independent sets: the interval routine, the bounded
# peeling on chordal graphs, the absorption identity, and the flat round
# profile of the simulated distributed variant.

from chordalg import (
    alpha_oracle, gen_chordal, gen_interval, gen_path, mis_chordal_distributed,
    mis_interval, verify_is,
)
from chordalg.mis import MisParams, mis_chordal_run, verify_absorption

# Interval graphs first: dominated nodes go, small components are solved
# exactly, long ones via a distance-k skeleton with exact fills in between.
h = gen_interval(400, seed=13)
chosen = mis_interval(h, 0.1)
alpha = len(alpha_oracle(h))
print("interval: |I|=%d alpha=%d independent=%s within 1.1x=%s"
      % (len(chosen), alpha, verify_is(h, chosen), 1.1 * len(chosen) >= alpha))

# A long path forces the skeleton branch.
p = gen_path(2000)
chosen = mis_interval(p, 0.25)
print("path 2000: |I|=%d of alpha=%d" % (len(chosen), len(alpha_oracle(p))))

# Chordal graphs: the accuracy target fixes the component cap d and the
# number of peeling iterations k; only those iterations ever run.
eps = 0.4
params = MisParams.from_eps(eps)
print("eps=%.2f -> d=%d, k=%d iterations" % (eps, params.d, params.k))

g = gen_chordal(1500, seed=31, max_clique=6)
run = mis_chordal_run(g, eps)
alpha = len(alpha_oracle(g))
print("chordal: |I|=%d alpha=%d ratio=%.3f independent=%s"
      % (len(run.chosen), alpha, alpha / len(run.chosen),
         verify_is(g, run.chosen)))

# What the analysis promises, checked directly on this run: the leftover
# graph holds almost no independence, and every small-component pick
# absorbed all independence of its closed residual neighborhood.
leftover = g.subgraph(run.state.residuals[-1])
print("residual alpha ratio:", len(alpha_oracle(leftover)) / alpha,
      "<= eps/2 =", eps / 2)
print("absorption identity exact on %d picks: %s"
      % (len(run.state.absorption), verify_absorption(g, run)))

# The distributed variant follows a uniform schedule, so its round count
# barely moves with n at a fixed accuracy.
for n in (200, 800):
    members, transcript = mis_chordal_distributed(gen_chordal(n, seed=1, max_clique=5), eps)
    print("n=%d rounds=%d |I|=%d" % (n, transcript.rounds_elapsed, len(members)))
