"""A scaled run of the basic OLDC pipeline, with a look at the type table.

Paper-scale thresholds (tau >= 32 even in tiny settings) make candidate
enumeration astronomically large, so runs use a scale_override; the
trade-off is that the greedy table assignment or a pigeonhole step may
fail, in which case the run aborts instead of emitting anything invalid.
"""

import random

from listdefect import (
    ColoredGraph,
    FailFast,
    OldcConfig,
    network,
    single_defect_oldc,
    tau_g_conflict,
)
from listdefect.conflict import tau_of, tau_prime_of

print("paper-scale parameters at h=1, |C|=16, m=16:")
print("  tau =", tau_of(1, 16, 16), " tau' = 2**", tau_prime_of(1, 16, 16).bit_length() - 1)

# a random DAG with outdegree capped at 2
rng = random.Random(3)
n = 14
edges, outdeg = [], [0] * n
for u in range(n):
    for v in range(u + 1, n):
        if outdeg[u] < 2 and rng.random() < 0.3:
            edges.append((u, v))
            outdeg[u] += 1
graph = ColoredGraph.build(n, edges, orientation=edges)
space = list(range(48))
lists = [sorted(rng.sample(space, 8)) for _ in range(n)]
config = OldcConfig(alpha=1.0, scale_override=(2, 2))

try:
    with network(record_messages=True):
        out, trace = single_defect_oldc(graph, space, lists, [1] * graph.n, 0, config)
    print("\ncolors:", out.colors)
    print("rounds:", trace.rounds_elapsed, " max bits per round:", trace.max_message_bits)
    print("messages delivered:", len(trace.messages))
    worst = max(
        sum(1 for u in graph.out_neighbors[v] if out.colors[u] == out.colors[v])
        for v in range(graph.n)
    )
    print("worst same-color outdegree:", worst, "(defect budget 1)")
except FailFast as exc:
    print("\nfail-fast:", type(exc).__name__, exc)

# the conflict predicate driving the table: tau & g conflicts
print("\ntau&g conflicts at tau=2:")
for c1, c2, g in [((3, 9), (3, 9), 0), ((3, 9), (4, 8), 1), ((3, 9), (20, 30), 1)]:
    print(f"  {c1} vs {c2} at g={g}:", tau_g_conflict(c1, c2, 2, g))
