"""Frozen reference: the degree-halving framework and its decomposition
core as they were before the arbdefect-0 path was flattened.

``_arbdefective_core`` here doubles every defect map, checks the
existence condition node by node, and scans every node for a neighbor
on its own color, whatever the defects.  ``degree_halving_framework``
here tests each class node's activity and builds each active node's
residual map through two closures, and walks a batch's neighbors twice:
once for the orientation, once for ``taken`` and ``udeg``.  Tests run the
library's framework and core and this copy on the same inputs: equal
colors, orientations, traces and stage rows, or the same exception with
the same message and node.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Mapping, Optional, Sequence

from listdefect.errors import ConditionViolated, FailFast, InvalidInstance, NodeFailure
from listdefect.graphs import (
    FLAVOR_ARBDEFECTIVE,
    FLAVOR_ORIENTED,
    ColoredGraph,
    ColoringOutput,
    LdcInstance,
    _check_list_count,
    require_valid,
)
from listdefect.oracle import RecoloringStats, _euler_orient, _recolor
from listdefect.reductions import InnerSolver, OracleInner, StageRow
from listdefect.runtime import RoundTrace, concat_traces


def _arbdefective_core(
    graph: ColoredGraph, lists: Sequence[Sequence[int]], defects: Sequence[Mapping[int, int]]
) -> tuple[tuple[int, ...], RecoloringStats, list[tuple[int, int]]]:
    n, adjacency = graph.n, graph.adjacency
    # nodes that share a defect map share its doubled map and its sum
    shared: dict[int, tuple[dict[int, int], int]] = {}
    doubled = []
    for v, dv in enumerate(defects[:n]):
        if id(dv) not in shared:
            shared[id(dv)] = ({x: 2 * d for x, d in dv.items()}, 2 * sum(dv.values()) + len(dv))
        twice, budget = shared[id(dv)]
        if budget <= len(adjacency[v]):
            raise ConditionViolated(f"existence condition fails at node {v}")
        doubled.append(twice)
    out, stats = _recolor(graph, lists, doubled)
    colors = out.colors

    mono: list[tuple[int, int]] = []
    class_deg: dict[int, int] = {}
    odd: dict[int, list[int]] = {}
    color = colors.__getitem__
    for u, nbrs in enumerate(adjacency):
        x = colors[u]
        if x in map(color, nbrs):
            deg = 0
            for v in nbrs:
                if colors[v] == x:
                    deg += 1
                    if u < v:
                        mono.append((u, v))
            class_deg[u] = deg
            if deg % 2:
                odd.setdefault(x, []).append(u)
    virtual = [
        (nodes[i], nodes[i + 1]) for _, nodes in sorted(odd.items()) for i in range(0, len(nodes), 2)
    ]
    directed = _euler_orient(n, mono + virtual)[: len(mono)]
    outdeg = [0] * n
    for a, _ in directed:
        outdeg[a] += 1
    for v, deg in class_deg.items():
        if not outdeg[v] <= (deg + 1) // 2 <= defects[v][colors[v]]:
            raise NodeFailure(f"Euler orientation violated the defect bound at node {v}", node=v)
    return colors, stats, sorted(directed)


def degree_halving_framework(
    graph: ColoredGraph,
    inst: LdcInstance,
    inner: InnerSolver = OracleInner(),
) -> tuple[ColoringOutput, RoundTrace, list[StageRow]]:
    _check_list_count(graph, inst)
    if inst.flavor != FLAVOR_ARBDEFECTIVE:
        raise InvalidInstance("framework expects an arbdefective instance")
    if inst.g != 0:
        raise InvalidInstance("framework requires g = 0")
    n = graph.n
    lists, defects = inst.lists, inst.defects
    for v in range(n):
        if sum(defects[v].values()) + len(defects[v]) <= graph.degree(v):
            raise ConditionViolated(f"node {v}: sum(d+1) <= deg")
    top = [max(dv.values()) for dv in defects]

    colors: list[Optional[int]] = [None] * n
    taken: list[dict[int, int]] = [{} for _ in range(n)]
    udeg = [len(a) for a in graph.adjacency]
    oriented: list[tuple[int, int]] = []
    uncolored = set(range(n))
    traces: list[RoundTrace] = []
    rows: list[StageRow] = []
    stage = 0
    max_stages = max(1, graph.max_degree()).bit_length() + 2
    nu = inner.nu
    factor = max(1.0, inst.max_list_size ** (nu / (1 + nu)) * inner.kappa ** (1 / (1 + nu)))

    def residual(v: int) -> dict[int, int]:
        t = taken[v]
        d_v = defects[v]
        deg_u = udeg[v]
        dd: dict[int, int] = {}
        budget = 0
        for x in lists[v]:
            left = d_v[x] - t.get(x, 0)
            if left >= 0:
                dd[x] = left
                budget += left + 1
                if budget > deg_u:
                    return dd
        if not dd:
            raise NodeFailure("empty residual list", node=v)
        raise NodeFailure(f"residual budget {budget} at uncolored degree {deg_u}", node=v)

    while uncolored:
        stage += 1
        if stage > max_stages:
            raise NodeFailure(f"degree halving stalled after {max_stages} stages")
        stage_graph, keep = graph.subgraph(uncolored)
        delta_s = stage_graph.max_degree()
        delta = max(0, math.floor(delta_s / (2 * factor)))
        q = delta_s // (delta + 1) + 1
        palette = tuple(range(q))
        uniform = ({x: delta for x in palette},) * len(keep)
        dec_colors, _, dec_pairs = _arbdefective_core(stage_graph, (palette,) * len(keep), uniform)
        edged_classes = {dec_colors[a] for a, _ in dec_pairs}
        if dec_pairs:
            dec_outn: list[list[int]] = [[] for _ in keep]
            for a, b in dec_pairs:
                dec_outn[a].append(b)
            stage_graph = replace(stage_graph, out_neighbors=tuple(map(tuple, dec_outn)))
        by_class: dict[int, list[int]] = {}
        for i, c in enumerate(dec_colors):
            by_class.setdefault(c, []).append(i)

        def is_active(v: int) -> bool:
            deg_u, t = udeg[v], taken[v]
            return 2 * deg_u >= delta_s or deg_u <= top[v] and any(
                d - t.get(x, 0) >= deg_u for x, d in defects[v].items()
            )

        for cls in range(q):
            active = [i for i in by_class.get(cls, ()) if is_active(keep[i])]
            if not active:
                rows.append(StageRow(stage, cls, 0, delta_s, 0, 0))
                continue
            batch_nodes = [keep[i] for i in active]
            residuals = [residual(v) for v in batch_nodes]
            batch_graph = stage_graph.subgraph(active)[0] if cls in edged_classes else None
            if batch_graph is not None and batch_graph.edge_count() > 0:
                inst_b = LdcInstance.build(
                    {x for dd in residuals for x in dd}, residuals, residuals, flavor=FLAVOR_ORIENTED
                )
                try:
                    out_b, tr_b = inner.solve(batch_graph, inst_b)
                except FailFast:
                    out_b, tr_b = OracleInner().solve(batch_graph, inst_b)
                for a, b in batch_graph.oriented_edges():
                    oriented.append((batch_nodes[a], batch_nodes[b]))
            else:
                out_b, tr_b = ColoringOutput(tuple(map(min, residuals))), RoundTrace()
            traces.append(tr_b)
            for v in batch_nodes:
                oriented.extend((v, u) for u in graph.adjacency[v] if colors[u] is not None)
            for v, x in zip(batch_nodes, out_b.colors):
                colors[v] = x
                for u in graph.adjacency[v]:
                    t = taken[u]
                    t[x] = t.get(x, 0) + 1
                    udeg[u] -= 1
            uncolored.difference_update(batch_nodes)
            rows.append(
                StageRow(stage, cls, len(batch_nodes), delta_s, tr_b.rounds_elapsed, tr_b.max_bits())
            )

    output = ColoringOutput(tuple(colors), tuple(sorted(oriented)))
    require_valid(graph, inst, output, "framework output invalid at")
    return output, concat_traces(traces, output.colors), rows
