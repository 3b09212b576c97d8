"""Deterministic instance generation for benchmarks and sweeps.

Every generator is a pure function of its parameters and seed; repeated
calls yield byte-identical JSON.  Graph families: ring, clique,
random-gnp, random-dag, power-law.  List models: degree-plus-one (proper
list coloring), uniform-k (k random colors, defects zero), defect-budget
(defects drawn and then raised until a target per-node condition holds).
"""

from __future__ import annotations

import math
import random
from itertools import cycle

from .conflict import tau_of
from .errors import InfeasibleParams
from .graphs import ColoredGraph, LdcInstance

FAMILIES = ("ring", "clique", "random-gnp", "random-dag", "power-law")
LIST_MODELS = ("degree-plus-one", "uniform-k", "defect-budget")
TARGETS = ("eq1", "eq2", "eq5", "eq6")


def _greedy_init_coloring(n: int, adj: list[list[int]]) -> tuple[list[int], int]:
    colors = [-1] * n
    for v in range(n):
        used = {colors[u] for u in adj[v] if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors, (max(colors) + 1 if n else 1)


def make_graph(
    family: str,
    n: int,
    degree_target: int,
    seed: int,
    oriented: bool = True,
) -> ColoredGraph:
    """Build one graph of the family; orientation is acyclic by node order
    (random-dag uses a random permutation instead)."""
    rng = random.Random(("graph", family, n, degree_target, seed).__repr__())
    if family not in FAMILIES:
        raise InfeasibleParams(f"unknown family {family!r}")
    if n < 1:
        raise InfeasibleParams("n must be positive")
    edges: list[tuple[int, int]] = []
    gnp = family in ("random-gnp", "random-dag")
    p = degree_target / max(1, n - 1)
    if family == "ring":
        if n < 3:
            raise InfeasibleParams("ring needs n >= 3")
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif family == "clique" or gnp and p >= 1:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif gnp and p > 0:
        # Batagelj & Brandes (2005): walk the pairs (w, v), w < v, in the
        # order (v, w) and jump a geometric gap to the next edge, so each
        # pair is an edge with probability p at O(n + m) cost
        log_q = math.log1p(-p)
        v, w = 1, -1
        while v < n:
            w += 1 + int(math.log1p(-rng.random()) / log_q)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                edges.append((w, v))
    elif family == "power-law":
        # preferential attachment with degree_target//2 links per new node
        k = max(1, degree_target // 2)
        targets: list[int] = []
        for v in range(1, n):
            pool = targets if targets else [0]
            chosen = set()
            for _ in range(min(k, v)):
                chosen.add(pool[rng.randrange(len(pool))])
            for u in sorted(chosen):
                edges.append((u, v))
                targets.extend([u, v])

    perm = list(range(n))
    if family == "random-dag":
        rng.shuffle(perm)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    init, m = _greedy_init_coloring(n, adj)
    adjacency = tuple(map(tuple, map(sorted, adj)))
    out = None
    if oriented:
        # each edge points up the node order perm; a filtered sorted row stays sorted
        out = tuple(tuple([v for v in row if perm[v] > pu]) for row, pu in zip(adjacency, perm))
    # simple in-range edges and a proper greedy coloring: nothing for build to check
    return ColoredGraph(n, adjacency, out, tuple(init), m)


def _target_threshold(
    target: str, graph: ColoredGraph, v: int, space_size: int, g: int, alpha: float
) -> tuple[int, int, int]:
    """(w, e, need): the defect-budget defects d at node v must reach sum((w*d + 1)**e) >= need."""
    deg = len(graph.adjacency[v])
    if target in ("eq1", "eq2"):
        # eq2's sum(2d+1) > deg weighs each defect twice
        return (2 if target == "eq2" else 1), 1, deg + 1
    if target not in ("eq5", "eq6"):
        raise InfeasibleParams(f"unknown target {target!r}")
    beta = graph.beta(v) if graph.out_neighbors is not None else max(1, deg)
    h = max(1, beta.bit_length())
    tau = tau_of(h, space_size, graph.m)
    if target == "eq5":
        return 1, 2, math.ceil(alpha * beta**2 * tau * h * (2 * g + 1))
    hp = max(1, math.ceil(math.log2(8 * h)))
    taubar = tau_of(hp, h, graph.m)
    return 1, 2, math.ceil(alpha**2 * beta**2 * tau * taubar * hp**2)


def _draw(getrandbits, n: int, k: int, defects: bool) -> dict[int, int]:
    """``rng.sample(range(n), k)``, sorted, mapped to one ``rng.randrange(4)`` per color if
    ``defects``, else to 0, from the same ``rng.getrandbits`` calls in the same order:
    ``sample``'s pool or set method by its ``setsize`` rule, ``_randbelow``'s rejection loop."""
    setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
    if n <= setsize:
        pool = list(range(n))
        for i in range(n, n - k, -1):
            j = getrandbits(i.bit_length())
            while j >= i:
                j = getrandbits(i.bit_length())
            pool[j], pool[i - 1] = pool[i - 1], pool[j]
        picked = pool[n - k:]
    else:
        bits = n.bit_length()
        picked = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in picked:
                j = getrandbits(bits)
            picked.add(j)
    dv = dict.fromkeys(sorted(picked), 0)
    for c in dv if defects else ():
        d = getrandbits(3)
        while d > 3:
            d = getrandbits(3)
        dv[c] = d
    return dv


def make_instance(
    graph: ColoredGraph,
    list_model: str,
    seed: int,
    space_size: int = 32,
    k: int = 4,
    flavor: str = "defective",
    g: int = 0,
    target: str = "eq1",
    alpha: float = 1.0,
) -> LdcInstance:
    """Draw lists (and defects, for the defect-budget model) per node.

    defect-budget draws defects in [0, 3] and then raises them
    round-robin until the target condition holds at every node.
    """
    rng = random.Random(("inst", list_model, seed, space_size, k, flavor, g, target).__repr__())
    if list_model not in LIST_MODELS:
        raise InfeasibleParams(f"unknown list model {list_model!r}")
    if space_size < 1:
        raise InfeasibleParams("empty color space")
    budget = list_model == "defect-budget"
    defects: list[dict[int, int]] = []
    for v, row in enumerate(graph.adjacency):
        if list_model == "degree-plus-one":
            size = len(row) + 1
            if size > space_size:
                raise InfeasibleParams(f"degree+1 = {size} exceeds the color space at node {v}")
        elif list_model == "uniform-k":
            if k > space_size:
                raise InfeasibleParams("k exceeds the color space")
            if k < 0:
                raise InfeasibleParams(f"k = {k} is negative")
            size = k
        else:
            size = min(space_size, max(1, k))
        dv = _draw(rng.getrandbits, space_size, size, budget)
        if budget:
            w, exponent, need = _target_threshold(target, graph, v, space_size, g, alpha)
            total = sum((w * d + 1) ** exponent for d in dv.values())
            for guard, x in enumerate(cycle(dv), 1):
                if total >= need:
                    break
                total += (w * dv[x] + w + 1) ** exponent - (w * dv[x] + 1) ** exponent
                dv[x] += 1
                if guard > 10_000_000:
                    raise InfeasibleParams("defect budget did not converge")
        defects.append(dv)
    # each defect map's keys are its list: sorted and free of repeats
    lists = tuple(map(tuple, defects))
    return LdcInstance._trusted(tuple(range(space_size)), lists, tuple(defects), flavor, g)
