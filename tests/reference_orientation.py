"""Frozen reference: the orientation check as it was before path reversal.

``orient_class`` builds a unit-capacity flow network (source -> one node
per edge -> its two endpoints -> sink, with capacity caps[v] into the
sink) and runs ``max_flow``, a breadth-first (Edmonds-Karp) max flow.
The classes are feasible iff the flow saturates every edge.  Tests check
the library's ``oracle._orient_class`` against this copy.
"""

from __future__ import annotations

from typing import Optional


def max_flow(n_nodes: int, arcs: list[tuple[int, int, int]], s: int, t: int):
    """Tiny BFS (Edmonds-Karp) max flow for unit capacities out of s;
    returns (value, flow per arc)."""
    head: list[list[int]] = [[] for _ in range(n_nodes)]
    to: list[int] = []
    cap: list[int] = []
    for u, v, c in arcs:
        head[u].append(len(to)); to.append(v); cap.append(c)
        head[v].append(len(to)); to.append(u); cap.append(0)
    flow = 0
    while True:
        parent_arc = [-1] * n_nodes
        parent_arc[s] = -2
        queue = [s]
        for u in queue:
            if u == t:
                break
            for aid in head[u]:
                if cap[aid] > 0 and parent_arc[to[aid]] == -1:
                    parent_arc[to[aid]] = aid
                    queue.append(to[aid])
        if parent_arc[t] == -1:
            break
        # every arc out of s has capacity 1, so each path carries 1
        v = t
        while v != s:
            aid = parent_arc[v]
            cap[aid] -= 1
            cap[aid ^ 1] += 1
            v = to[aid ^ 1]
        flow += 1
    used = [arcs[i][2] - cap[2 * i] for i in range(len(arcs))]
    return flow, used


def orient_class(
    nodes: list[int],
    class_edges: list[tuple[int, int]],
    caps: dict[int, int],
) -> Optional[list[tuple[int, int]]]:
    """Orientation of class_edges with outdeg(v) <= caps[v], or None.

    Unit flow: source -> edge -> endpoint -> sink(cap caps[v]); feasible
    iff the max flow saturates all edges; the endpoint absorbing an edge
    pays for it, i.e. the edge points away from it.
    """
    if not class_edges:
        return []
    index = {v: i for i, v in enumerate(nodes)}
    s = 0
    e0 = 1
    v0 = e0 + len(class_edges)
    t = v0 + len(nodes)
    arcs: list[tuple[int, int, int]] = []
    for i, (u, v) in enumerate(class_edges):
        arcs.append((s, e0 + i, 1))
        arcs.append((e0 + i, v0 + index[u], 1))
        arcs.append((e0 + i, v0 + index[v], 1))
    for v in nodes:
        arcs.append((v0 + index[v], t, caps[v]))
    value, used = max_flow(t + 1, arcs, s, t)
    if value < len(class_edges):
        return None
    oriented = []
    for i, (u, v) in enumerate(class_edges):
        to_u = used[3 * i + 1]
        oriented.append((u, v) if to_u else (v, u))
    return oriented
