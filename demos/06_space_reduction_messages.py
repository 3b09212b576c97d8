"""Recursive color-space reduction shrinks message sizes.

Nodes first pick one of p subspaces via a tiny OLDC instance (colors are
subspace indices), then recurse inside their subspace.  Deeper recursion
(larger r) means smaller active spaces and smaller list encodings on the
wire, at the cost of more rounds and stronger list-size requirements.
"""

import random

from listdefect import (
    ColoredGraph,
    LdcInstance,
    OldcConfig,
    OldcInner,
    network,
    preset_message,
    validate_ldc,
)

rng = random.Random(1)
n = 12
edges, outdeg = [], [0] * n
for u in range(n):
    for v in range(u + 1, n):
        if outdeg[u] < 2 and rng.random() < 0.3:
            edges.append((u, v))
            outdeg[u] += 1
graph = ColoredGraph.build(n, edges, orientation=edges)

# one color per 16-block keeps the defect energy evenly spread across
# every recursion level, which is what the strengthened condition needs
lists = [sorted(16 * b + rng.randrange(16) for b in range(16)) for _ in range(n)]
inst = LdcInstance.build(
    range(256), lists, [{x: 7 for x in l} for l in lists], flavor="oriented"
)
inner = OldcInner(OldcConfig(alpha=1.0, scale_override=(2, 2)))

print("|C| = 256, lists of 16, defects 7, outdegree <= 2")
for r in (1, 2, 4):
    with network(record_messages=True):
        out, trace = preset_message(graph, inst, inner, r=r)
    assert validate_ldc(graph, inst, out).valid
    print(
        f"r={r}: p={256 if r == 1 else round(256 ** (1 / r) + 0.5)}"
        f"  rounds={trace.rounds_elapsed}  max message bits={trace.max_bits()}"
        f"  messages={len(trace.messages)}"
    )
