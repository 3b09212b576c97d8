"""Centralized ground-truth solvers.

``sequential_ldc`` is the potential-function recoloring algorithm: start
anywhere, repeatedly recolor an unhappy node to a color whose conflict
count fits its defect.  The potential

    Phi = M + sum_v (deg(v) - d_v(x_v))

(M = number of monochromatic edges) strictly drops by at least 1 per
recoloring and starts at most 3|E|, which bounds the recoloring count.

With every defect 0 the walk is one id-order first-fit pass: v keeps its
first list color unless a neighbor holds it now, and otherwise takes the
first list color no neighbor holds now (lower ids hold their final colors,
higher ids still their first).  The output, recoloring count and potential
history are the walk's.  At defect 0 the walk moves a node only to a color
none of its neighbors holds, so it never re-queues a neighbor and pops each
initially unhappy node once, in id order.  At v's turn no lower neighbor u
holds v's first color: v held it at u's turn, so u could neither keep it
nor move onto it.  So the step at v lowers Phi by the number of higher
neighbors sharing v's first color; these drops give the potential history
step by step, Phi starts at their sum plus 2|E|, and the recoloring count
is the number of drops.

``sequential_arbdefective`` solves the doubled-defect instance, then
orients each color class along an Euler tour (after evening out odd
degrees with virtual matching edges), giving per-color outdegree at most
ceil(class_degree/2) <= d_v(x).  Its core, which the degree-halving
framework calls, returns only the intra-class pairs.

``exhaustive_solve`` is the brute-force oracle for tiny instances (a
candidate is checked only against the earlier nodes that count it); for
arbdefective instances it orients the monochromatic edges by path reversal,
exact by Hakimi's orientation theorem (see ``_orient_class``).

All three are deterministic: ties always break toward the smallest id,
color or candidate.  Proximity g > 0 is not supported here; the
sequential arguments are specific to exact color equality.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate
from operator import countOf, sub
from typing import Mapping, Optional, Sequence

from .errors import CapExceeded, ConditionViolated, InvalidInstance, NodeFailure
from .graphs import (
    FLAVOR_ARBDEFECTIVE,
    FLAVOR_ORIENTED,
    ColoredGraph,
    ColoringOutput,
    LdcInstance,
    _check_list_count,
)


@dataclass
class RecoloringStats:
    recolorings: int
    phi_initial: int
    phi_history: tuple[int, ...]


def sequential_ldc(
    graph: ColoredGraph, inst: LdcInstance
) -> tuple[ColoringOutput, RecoloringStats]:
    """List defective coloring by potential-function recoloring.

    Requires the per-node condition sum(d_v(x)+1) > deg(v) (refuses to run
    otherwise) and g = 0.  Initial color: first list color.  Unhappy node:
    lowest id.  New color: lowest color with a fitting conflict count.

    With every defect 0 one id-order first-fit pass gives the walk's
    output and stats: v keeps its first color unless a neighbor holds it
    now, and otherwise takes the first list color no neighbor holds now.
    The walk then moves a node only onto a color no neighbor holds, so it
    re-queues nobody and pops each initially unhappy node once, in id
    order; no lower neighbor holds v's first color at v's turn (v held it
    at theirs), so the step at v lowers Phi by the number of higher
    neighbors sharing that color, and Phi starts at the sum of these drops
    plus 2|E|.
    """
    _check_list_count(graph, inst)
    if inst.g != 0:
        raise InvalidInstance("sequential solver requires g = 0")
    for v, dv in enumerate(inst.defects):
        if sum(dv.values()) + len(dv) <= graph.degree(v):
            raise ConditionViolated(f"existence condition fails at node {v}")
    return _recolor(graph, inst.lists, inst.defects)


def _recolor(
    graph: ColoredGraph,
    lists: tuple[tuple[int, ...], ...],
    defects: Sequence[Mapping[int, int]],
) -> tuple[ColoringOutput, RecoloringStats]:
    """The recoloring walk of ``sequential_ldc`` on bare lists and defect
    maps, so that the arbdefective core needs no instance for its doubled
    defects.  The caller has checked the existence condition.  Recoloring
    a node from ``old`` to ``new`` reads its neighbors and re-queues only
    those on ``new``: no other node can become unhappy, and every node
    already unhappy is still in the heap, so the first non-stale pop is the
    lowest-id unhappy node, as with a re-check of every neighbor.  With
    every defect 0 the walk is the id-order first-fit pass of the module
    docstring."""
    n, adjacency = graph.n, graph.adjacency
    colors = [lists[v][0] for v in range(n)]
    if not any(any(dv.values()) for dv in {id(dv): dv for dv in defects}.values()):
        color = colors.__getitem__
        drops = []
        for v, nbrs in enumerate(adjacency):
            drop = countOf(map(color, nbrs), colors[v])  # only higher neighbors can hold it now
            if drop:
                held = set(map(color, nbrs))
                for y in lists[v]:
                    if y not in held:
                        break
                else:
                    raise NodeFailure("existence condition guarantees a fitting color", node=v)
                colors[v] = y
                drops.append(drop)
        phi_history = tuple(accumulate(drops, sub, initial=sum(drops) + 2 * graph.edge_count()))
        return (
            ColoringOutput(tuple(colors)),
            RecoloringStats(len(drops), phi_history[0], phi_history),
        )
    # per-node counter of neighbor colors
    nbr_count: list[dict[int, int]] = [dict() for _ in range(n)]
    for v in range(n):
        cnt = nbr_count[v]
        for u in adjacency[v]:
            x = colors[u]
            cnt[x] = cnt.get(x, 0) + 1

    # every monochromatic edge is counted once from each end
    mono = sum(nbr_count[v].get(colors[v], 0) for v in range(n)) // 2
    phi = mono + sum(len(adjacency[v]) - defects[v][colors[v]] for v in range(n))
    phi_history = [phi]
    cap = 3 * graph.edge_count()

    heap = [v for v in range(n) if nbr_count[v].get(colors[v], 0) > defects[v][colors[v]]]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    steps = 0
    while heap:
        v = heappop(heap)
        cnt_v = nbr_count[v]
        d_v = defects[v]
        old = colors[v]
        c_old = cnt_v.get(old, 0)
        if c_old <= d_v[old]:
            continue  # stale entry
        new = None
        for y in lists[v]:
            c_new = cnt_v.get(y, 0)
            if c_new <= d_v[y]:
                new = y
                break
        if new is None:
            raise NodeFailure("existence condition guarantees a fitting color", node=v)
        colors[v] = new
        # only M and v's own defect term change
        phi_new = phi + (c_new - c_old) + (d_v[old] - d_v[new])
        if phi_new > phi - 1:
            raise NodeFailure("potential must strictly decrease", node=v)
        phi = phi_new
        phi_history.append(phi)
        steps += 1
        if steps > cap:
            raise NodeFailure("recoloring count exceeded 3|E|")
        # v's own counter does not change, so v itself stays happy
        for u in adjacency[v]:
            cnt = nbr_count[u]
            cnt[old] -= 1  # a count may stay at 0: .get(x, 0) reads it alike
            c = cnt[new] = cnt.get(new, 0) + 1
            if colors[u] == new and c > defects[u][new]:
                heappush(heap, u)

    return (
        ColoringOutput(tuple(colors)),
        RecoloringStats(steps, phi_history[0], tuple(phi_history)),
    )


# -- Euler orientation --------------------------------------------------------


def _euler_orient(n: int, multi_edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Orient a multigraph with all degrees even along Euler circuits.

    Deterministic iterative Hierholzer, always following the lowest
    available (edge id, endpoint).  The recorded traversal directions
    decompose into closed trails, so every node ends up with outdegree
    exactly half its multigraph degree.  Returns one directed pair per
    edge, in edge-id order.
    """
    if not multi_edges:  # a proper coloring has no monochromatic edge
        return []
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (edge id, other end)
    for eid, (u, v) in enumerate(multi_edges):
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    # a walk from a node without edges is empty: only the others start one
    starts = [v for v in range(n) if adj[v]]
    for v in starts:
        adj[v].sort(reverse=True)  # pop() yields the smallest (eid, w)
    used = [False] * len(multi_edges)
    directed: list[Optional[tuple[int, int]]] = [None] * len(multi_edges)

    for start in starts:
        stack = [start]
        while stack:
            v = stack[-1]
            while adj[v] and used[adj[v][-1][0]]:
                adj[v].pop()
            if adj[v]:
                eid, w = adj[v].pop()
                used[eid] = True
                directed[eid] = (v, w)
                stack.append(w)
            else:
                stack.pop()
    if None in directed:
        raise NodeFailure("Euler orientation missed an edge")
    return [d for d in directed if d is not None]


def sequential_arbdefective(
    graph: ColoredGraph, inst: LdcInstance
) -> tuple[ColoringOutput, RecoloringStats]:
    """List arbdefective coloring: doubled defects, then Euler orientation.

    Requires sum(2 d_v(x)+1) > deg(v) per node.  First solves the list
    defective instance with defects 2 d_v(x); in each color class, nodes of
    odd class-degree are greedily paired in id order by virtual edges (the
    pairs need not be actual edges), making all degrees even; all classes
    are then oriented along Euler circuits in one pass over their union,
    so the real-edge outdegree of v is at most ceil(class_degree(v)/2) <=
    d_v(x).  The classes are node-disjoint, so the single pass walks each
    class exactly as a pass over that class alone would, and the whole
    orientation costs O(n + m).  Edges between different color classes
    are oriented from the lower to the higher id.
    """
    _check_list_count(graph, inst)
    if inst.g != 0:
        raise InvalidInstance("sequential solver requires g = 0")
    colors, stats, directed = _arbdefective_core(graph, inst.lists, inst.defects)
    adj = graph.adjacency
    cross = [(u, v) for u in range(graph.n) for v in adj[u] if u < v and colors[u] != colors[v]]
    return ColoringOutput(colors, tuple(sorted(directed + cross))), stats


def _arbdefective_core(
    graph: ColoredGraph, lists: Sequence[Sequence[int]], defects: Sequence[Mapping[int, int]]
) -> tuple[tuple[int, ...], RecoloringStats, list[tuple[int, int]]]:
    """``sequential_arbdefective`` on bare lists and defect maps and without
    cross-class edges: the colors, the walk's stats and the sorted intra-class
    pairs, the only ones that bound an arbdefect.  The caller checks g = 0."""
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

    # monochromatic edges in edges() order, then the virtual pairs of each
    # class: within a class this is the edge-id order of a per-class pass.
    # A node with no neighbor on its own color is passed over at C speed
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


# -- exhaustive oracle ---------------------------------------------------------


def _orient_class(
    nodes: Sequence[int],
    class_edges: list[tuple[int, int]],
    caps: Sequence[int] | Mapping[int, int],
) -> Optional[list[tuple[int, int]]]:
    """Orientation of class_edges with outdeg(v) <= caps[v], or None.

    Every edge starts out of its first end; while a node is over its cap,
    a breadth-first search along out-edges finds the nearest node below
    its cap and reverses the path to it (a node within its cap stays so).
    If none is reachable, the reached set S keeps its out-edges inside:
    sum_S outdeg = |E(S)| > sum_S cap, so no orientation fits.  Classes
    share no node, so one call orients each as a per-class call would.
    Returns one directed pair per edge, in class_edges order.
    """
    out: dict[int, list[int]] = {v: [] for v in nodes}
    for u, v in class_edges:
        out[u].append(v)
    for v in nodes:
        while len(out[v]) > caps[v]:
            parent = {v: v}
            queue = [v]
            for u in queue:
                if len(out[u]) < caps[u]:
                    break
                for w in out[u]:
                    if w not in parent:
                        parent[w] = u
                        queue.append(w)
            else:
                return None
            while u != v:
                p = parent[u]
                out[p].remove(u)
                out[u].append(p)
                u = p
    return [(u, v) if v in out[u] else (v, u) for u, v in class_edges]


def exhaustive_solve(
    graph: ColoredGraph, inst: LdcInstance, cap: int = 10_000_000
) -> Optional[ColoringOutput]:
    """Brute-force solver and unsatisfiability prover for tiny instances.

    Enumerates list assignments depth-first in id order with monotone
    conflict pruning; for arbdefective instances a placed class with more
    edges than caps is pruned, and every complete coloring is checked for
    a feasible bounded-outdegree orientation of its monochromatic edges
    (by path reversal, exact by Hakimi's theorem: see ``_orient_class``).
    Returns a valid output or None when no valid coloring exists.  Refuses
    instances whose assignment space exceeds ``cap``.
    """
    _check_list_count(graph, inst)
    space = 1
    for lst in inst.lists:
        space *= max(1, len(lst))
        if space > cap:
            raise CapExceeded(f"assignment space exceeds {cap}")
    if inst.flavor == FLAVOR_ARBDEFECTIVE and inst.g != 0:
        raise InvalidInstance("arbdefective exhaustive search requires g = 0")
    if inst.flavor == FLAVOR_ORIENTED and graph.out_neighbors is None:
        raise InvalidInstance("oriented instance on an unoriented graph")

    n = graph.n
    colors: list[Optional[int]] = [None] * n
    relevant = graph.out_neighbors if inst.flavor == FLAVOR_ORIENTED else graph.adjacency

    def count_at(v: int, x: int) -> int:
        return sum(
            1 for u in relevant[v] if colors[u] is not None and abs(colors[u] - x) <= inst.g
        )

    # per node, the earlier nodes whose conflict count includes it
    counted_by: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in relevant[u]:
            if u < v:
                counted_by[v].append(u)

    edges = graph.edges()

    def final_check() -> Optional[ColoringOutput]:
        if inst.flavor != FLAVOR_ARBDEFECTIVE:
            return ColoringOutput(tuple(colors))
        mono = [(u, v) for u, v in edges if colors[u] == colors[v]]
        caps = [inst.defects[v][x] for v, x in enumerate(colors)]
        oriented = _orient_class(range(n), mono, caps)
        if oriented is None:
            return None
        oriented += [(u, v) for u, v in edges if colors[u] != colors[v]]
        return ColoringOutput(tuple(colors), tuple(sorted(oriented)))

    # arbdefective: per color, caps minus edges over its placed nodes; a
    # class below 0 stays violated in every completion (Hakimi)
    arb = inst.flavor == FLAVOR_ARBDEFECTIVE
    slack = dict.fromkeys(inst.color_space, 0)

    def fits(v: int, x: int) -> bool:
        """May v take x, given the colors of the nodes before it?"""
        if arb:
            return slack[x] + inst.defects[v][x] >= count_at(v, x)
        if count_at(v, x) > inst.defects[v][x]:
            return False
        for u in counted_by[v]:
            xu = colors[u]
            if abs(xu - x) <= inst.g and count_at(u, xu) >= inst.defects[u][xu]:
                return False
        return True

    # Depth-first in id order with an explicit cursor per node, so the
    # depth is not bounded by the recursion limit and no recursive closure
    # (a reference cycle) is left for the cyclic collector: next_pick[v]
    # indexes the next color of v's list to try; nodes after v are uncolored.
    next_pick = [0] * n
    v = 0
    while v >= 0:
        if v == n:
            out = final_check()
            if out is not None:
                return out
            v -= 1
            continue
        lst = inst.lists[v]
        if arb and colors[v] is not None:
            slack[colors[v]] -= inst.defects[v][colors[v]] - count_at(v, colors[v])
        colors[v] = None
        while next_pick[v] < len(lst):
            x = lst[next_pick[v]]
            next_pick[v] += 1
            if fits(v, x):
                colors[v] = x
                break
        if colors[v] is None:
            next_pick[v] = 0
            v -= 1
        else:
            if arb:
                slack[x] += inst.defects[v][x] - count_at(v, x)
            v += 1
    return None
