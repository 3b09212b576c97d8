"""Recursive color-space reduction and the degree-halving framework.

Space reduction: partition the color space into p contiguous chunks,
solve a p-color OLDC to pick a chunk per node (defects are the budgets
beta_{v,i} derived from the per-chunk share of the defect energy), then
recurse inside each chunk on the nodes that picked it.  Nodes in
different chunks can never conflict, so the recursion is sound by
construction and each level costs one inner-solver run.

Degree halving: repeatedly color a portion of the graph so that the
uncolored subgraph's maximum degree at least halves per stage.  A stage
computes a q-color arbdefective decomposition with arbdefect delta,
iterates over its classes, and extends the partial coloring on the
class-i nodes that still have many uncolored neighbors, using an inner
oriented-LDC solver on the residual lists (colors not yet exhausted by
colored neighbors).  Edges always point from later-colored to
earlier-colored nodes, so finished nodes never gain same-color
out-neighbors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Protocol, Sequence, Union

from .errors import (
    ConditionViolated,
    FailFast,
    InvalidInstance,
    MissingOrientation,
    NodeFailure,
)
from .graphs import (
    FLAVOR_ARBDEFECTIVE,
    FLAVOR_ORIENTED,
    ColoredGraph,
    ColoringOutput,
    LdcInstance,
    _check_list_count,
    _first_condition_failure,
    _values,
    require_valid,
)
from .linial import linial_coloring
from .oldc_basic import OldcConfig, multi_defect_oldc
from .oldc_main import MainConfig, main_oldc
from .oracle import _arbdefective_core, sequential_arbdefective, sequential_ldc
from .runtime import RoundTrace, concat_traces, current_network, merge_parallel, network


# -- inner solvers ---------------------------------------------------------------


class InnerSolver(Protocol):
    """An oriented LDC solver with a declared (nu, kappa) guarantee.

    ``solve`` must color every node of the (oriented) graph so that each
    node v has at most d_v(x_v) out-neighbors of its color, or raise a
    FailFast error.  ``kappa`` is the list-size strengthening the solver
    needs.
    """

    nu: int
    kappa: int

    def solve(
        self, graph: ColoredGraph, inst: LdcInstance
    ) -> tuple[ColoringOutput, RoundTrace]: ...


class OracleInner:
    """Centralized fallback: list defective coloring on the undirected
    graph, which dominates any oriented variant.  nu = 0, kappa = 1.

    The instance goes to ``sequential_ldc`` as it is, whatever its
    flavor: that solver reads only the lists, the defects and g, and
    always counts conflicts over the undirected adjacency."""

    nu = 0
    kappa = 1

    def solve(self, graph, inst):
        out, _ = sequential_ldc(graph, inst)
        return out, RoundTrace(outputs=list(out.colors))


@dataclass
class OldcInner:
    """The distributed OLDC algorithm as an inner solver (nu = 1, kappa = 4).

    An OldcConfig runs the basic algorithm (``multi_defect_oldc``), a
    MainConfig the full one (``main_oldc``).  With ``r`` set, every solve
    goes through r-level message-preset space reduction around it.
    """

    config: Union[OldcConfig, MainConfig] = field(default_factory=OldcConfig)
    r: Optional[int] = None

    nu = 1
    kappa = 4

    def solve(self, graph, inst):
        if self.r is not None:
            return preset_message(graph, inst, replace(self, r=None), self.r)
        if isinstance(self.config, MainConfig):
            return main_oldc(graph, inst, self.config)
        return multi_defect_oldc(graph, inst, config=self.config)


# -- recursive color-space reduction ----------------------------------------------


def _iroot(x: int, e: int) -> int:
    """floor(x ** (1/e)) for x >= 0, in exact integer arithmetic."""
    lo, hi = 0, 1 << (x.bit_length() // e + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**e <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _padded_space(color_space: Sequence[int], p: int) -> tuple[tuple[int, ...], int]:
    """The sorted color space padded with dummies above its maximum to p^k
    colors, and the depth k >= 1, the least with p^k >= |C|."""
    if p < 2:
        raise InvalidInstance("branching factor p must be at least 2")
    colors = sorted(color_space)
    depth = 1
    while p**depth < len(colors):
        depth += 1
    top = (colors[-1] if colors else 0) + 1
    colors.extend(range(top, top + p**depth - len(colors)))
    return tuple(colors), depth


def space_reduced_oldc(
    graph: ColoredGraph,
    inst: LdcInstance,
    p: int,
    inner: InnerSolver,
) -> tuple[ColoringOutput, RoundTrace]:
    """Solve an oriented LDC instance by recursive space reduction.

    With p >= |C| there is nothing to reduce, and ``inner`` solves the
    instance as it is, whatever its flavor or orientation.  Otherwise per
    node the strengthened condition
        sum (d_v(x)+1)^(1+nu) >= beta_v^(1+nu) * kappa^k,   k = ceil(log_p |C|)
    must hold.  Each level solves a p-color choice instance with the
    inner solver and recurses on the induced subgraphs; sub-runs of one
    level merge in parallel (disjoint node sets), levels concatenate.
    """
    if p >= len(inst.color_space):
        return inner.solve(graph, inst)
    if graph.out_neighbors is None:
        raise MissingOrientation("space reduction needs an orientation")
    if inst.flavor != FLAVOR_ORIENTED:
        raise InvalidInstance("space reduction expects an oriented instance")
    colors, k = _padded_space(inst.color_space, p)
    e = 1 + inner.nu
    for v in range(graph.n):
        total = sum((d + 1) ** e for d in inst.defects[v].values())
        if total < graph.beta(v) ** e * inner.kappa**k:
            raise ConditionViolated(
                f"node {v}: strengthened condition fails at p={p}, k={k}"
            )
    return _reduce_level(graph, inst, colors, p, inner, k)


def _reduce_level(
    graph: ColoredGraph,
    inst: LdcInstance,
    colors: tuple[int, ...],
    p: int,
    inner: InnerSolver,
    k: int,
) -> tuple[ColoringOutput, RoundTrace]:
    if k <= 1:
        return inner.solve(graph, inst)
    e = 1 + inner.nu
    kappa = inner.kappa
    size = len(colors) // p
    chunk_of = {c: j // size for j, c in enumerate(colors)}

    choice_lists: list[tuple[int, ...]] = []
    choice_defects: list[dict[int, int]] = []
    lists_by_chunk: list[dict[int, list[int]]] = [dict() for _ in range(graph.n)]
    for v in range(graph.n):
        for x in inst.lists[v]:
            lists_by_chunk[v].setdefault(chunk_of[x], []).append(x)
        # chunk i holds the share lambda_i = energy_i / (beta^e kappa^k)
        # and gets the defect floor((lambda_i beta^e kappa)^(1/e)), which
        # is iroot(energy_i // kappa^(k-1), e)
        total = 0
        defects_v: dict[int, int] = {}
        for i, xs in sorted(lists_by_chunk[v].items()):
            energy = sum((inst.defects[v][x] + 1) ** e for x in xs)
            total += energy
            defects_v[i] = _iroot(energy // kappa ** (k - 1), e)
        bound = graph.beta(v) ** e * kappa**k
        if total < bound:
            raise NodeFailure(f"chunk shares sum to {total / bound:.3f} < 1", node=v)
        choice_lists.append(tuple(sorted(defects_v)))
        choice_defects.append(defects_v)

    choice_inst = LdcInstance.build(
        list(range(p)), choice_lists, choice_defects, flavor=FLAVOR_ORIENTED, g=0
    )
    choice_out, choice_trace = inner.solve(graph, choice_inst)

    by_chunk: dict[int, list[int]] = {}
    for v in range(graph.n):
        by_chunk.setdefault(choice_out.colors[v], []).append(v)

    colors_out: list[Optional[int]] = [None] * graph.n
    sub_traces = []
    for i, members in sorted(by_chunk.items()):
        sub, keep = graph.subgraph(members)
        sub_space = colors[i * size : (i + 1) * size]
        sub_inst = LdcInstance.build(
            sub_space,
            [lists_by_chunk[v][i] for v in keep],
            [
                {x: inst.defects[v][x] for x in lists_by_chunk[v][i]}
                for v in keep
            ],
            flavor=FLAVOR_ORIENTED,
        )
        # the chunk choice bounds the within-chunk outdegree by the defect
        for idx, v in enumerate(keep):
            within = len(sub.out_neighbors[idx])
            if within > choice_defects[v][i]:
                raise NodeFailure(
                    f"chunk outdegree {within} exceeds budget {choice_defects[v][i]}",
                    node=v,
                )
        sub_out, sub_trace = _reduce_level(sub, sub_inst, sub_space, p, inner, k - 1)
        sub_traces.append(sub_trace)
        for idx, v in enumerate(keep):
            colors_out[v] = sub_out.colors[idx]
            # the final color's chunk path must match the choice
            if chunk_of.get(sub_out.colors[idx]) != i:
                raise NodeFailure("color escaped its chunk", node=v)

    output = ColoringOutput(tuple(colors_out))
    require_valid(graph, inst, output, "space reduction output invalid at")
    return output, concat_traces([choice_trace, merge_parallel(sub_traces)], output.colors)


def preset_message(
    graph: ColoredGraph, inst: LdcInstance, inner: InnerSolver, r: int
) -> tuple[ColoringOutput, RoundTrace]:
    """Space reduction with the message-preset branching factor
    ceil(|C|**(1/r)); r = 1 keeps the whole space, so ``inner`` solves."""
    return space_reduced_oldc(graph, inst, message_preset_p(len(inst.color_space), r), inner)


def message_preset_p(space_size: int, r: int) -> int:
    """The message-preset branching factor max(2, ceil(|C|**(1/r))), with
    ceil(x**(1/r)) = iroot(x - 1, r) + 1; r = 1 keeps the whole space.
    Raises InvalidInstance for r < 1."""
    if r < 1:
        raise InvalidInstance("r must be at least 1")
    return space_size if r == 1 else max(2, _iroot(space_size - 1, r) + 1)


# -- arbdefective subroutine -------------------------------------------------------


def arbdefective_subroutine(
    graph: ColoredGraph, q: int, delta: int
) -> tuple[ColoringOutput, RoundTrace]:
    """A delta-arbdefective q-coloring with an explicit orientation.

    Requires q*(delta+1) > max degree.  The coloring is centralized: the
    doubled-defect sequential route (``sequential_arbdefective``), which
    always applies under that condition, in 0 rounds.  An orientation the
    graph carries is ignored.
    """
    delta_max = graph.max_degree()
    if q * (delta + 1) <= delta_max:
        raise ConditionViolated(f"q(delta+1)={q*(delta+1)} <= max degree {delta_max}")
    # every node shares one list and one defect map, checked once
    palette = tuple(range(q))
    uniform = {x: delta for x in palette}
    inst = LdcInstance(
        palette, (palette,) * graph.n, (uniform,) * graph.n, FLAVOR_ARBDEFECTIVE, 0
    )
    out, _ = sequential_arbdefective(graph, inst)
    return out, RoundTrace(outputs=list(out.colors))


# -- degree-halving framework ------------------------------------------------------


@dataclass
class StageRow:
    stage: int
    class_index: int
    colored: int
    max_uncolored_degree: int
    rounds: int
    max_bits: int

    @staticmethod
    def header() -> str:
        return "stage,class,colored_count,max_uncolored_degree,rounds,max_bits"

    def csv(self) -> str:
        return (
            f"{self.stage},{self.class_index},{self.colored},"
            f"{self.max_uncolored_degree},{self.rounds},{self.max_bits}"
        )


def degree_halving_framework(
    graph: ColoredGraph,
    inst: LdcInstance,
    inner: InnerSolver = OracleInner(),
) -> tuple[ColoringOutput, RoundTrace, list[StageRow]]:
    """Solve a list arbdefective instance with sum (d_v(x)+1) > deg(v).

    Each stage runs the arbdefective decomposition on the uncolored
    subgraph and colors, class by class, the nodes that still have at
    least half the stage degree uncolored; the residual lists always
    satisfy the inner solver's sequential condition, so with the oracle
    fallback every stage completes and the uncolored maximum degree at
    least halves.  A batch with no edges needs no communication: each of
    its nodes takes the smallest color of its residual list in 0 rounds,
    without ``inner``.  A batch on which ``inner`` fails fast is solved by
    the oracle instead.  The returned orientation covers every edge, each
    oriented when its later endpoint's batch is colored: within a batch it
    follows the decomposition, across batches it points from later-colored
    to earlier-colored (so finished nodes never gain same-color
    out-neighbors).

    ``udeg[v]`` counts v's uncolored neighbors and ``taken[v]`` the colors
    of its colored ones; both are read only while v is uncolored.  A class
    is one loop: a node under half the stage degree is active when a
    residual defect covers its uncolored degree (as d - taken(x) <= d, its
    defect map is read only if that degree is at most its largest defect),
    and an active node's residual prefix is walked at once.  Only a class
    with intra-class pairs keeps residual maps; an edgeless class keeps each
    node's smallest residual color.  A colored batch's neighbors are walked
    once, and the output is checked once.  A stage reads only the colors
    and intra-class pairs of the core of ``sequential_arbdefective`` on the
    uncolored subgraph (the input itself at stage 1); out-lists and batch
    graphs come only from pairs (none at arbdefect 0).
    """
    _check_list_count(graph, inst)
    if inst.flavor != FLAVOR_ARBDEFECTIVE:
        raise InvalidInstance("framework expects an arbdefective instance")
    if inst.g != 0:
        raise InvalidInstance("framework requires g = 0")
    n, adjacency = graph.n, graph.adjacency
    lists, defects = inst.lists, inst.defects
    bad = _first_condition_failure(graph, defects, 1)
    if bad is not None:
        raise ConditionViolated(f"node {bad}: sum(d+1) <= deg")
    top = list(map(max, map(_values, defects)))  # each node's largest defect

    colors: list[Optional[int]] = [None] * n
    taken: list[dict[int, int]] = [{} for _ in range(n)]
    udeg = list(map(len, adjacency))
    oriented: list[tuple[int, int]] = []
    uncolored = set(range(n))
    traces: list[RoundTrace] = []
    rows: list[StageRow] = []
    stage = 0
    max_stages = max(1, graph.max_degree()).bit_length() + 2
    nu = inner.nu
    factor = max(1.0, inst.max_list_size ** (nu / (1 + nu)) * inner.kappa ** (1 / (1 + nu)))

    while uncolored:
        stage += 1
        if stage > max_stages:
            raise NodeFailure(f"degree halving stalled after {max_stages} stages")
        stage_graph, keep = graph.subgraph(uncolored)
        delta_s = stage_graph.max_degree()
        delta = max(0, math.floor(delta_s / (2 * factor)))
        q = delta_s // (delta + 1) + 1
        # the decomposition's colors and intra-class pairs, in 0 rounds
        palette = tuple(range(q))
        uniform = ({x: delta for x in palette},) * len(keep)
        dec_colors, _, dec_pairs = _arbdefective_core(stage_graph, (palette,) * len(keep), uniform)
        edged_classes = {dec_colors[a] for a, _ in dec_pairs}
        if dec_pairs:  # never at arbdefect 0
            dec_outn: list[list[int]] = [[] for _ in keep]
            for a, b in dec_pairs:  # sorted, so each out-list is sorted
                dec_outn[a].append(b)
            stage_graph = replace(stage_graph, out_neighbors=tuple(map(tuple, dec_outn)))
        by_class: dict[int, list[int]] = {}
        for i, c in enumerate(dec_colors):
            by_class.setdefault(c, []).append(i)

        for cls in range(q):
            edged = cls in edged_classes
            # per active node: its stage index, id and residual map (edged
            # class) or the smallest color of its residual prefix
            active, batch_nodes, residuals = [], [], []
            for i in by_class.get(cls, ()):
                v = keep[i]
                deg_u, t, d_v = udeg[v], taken[v], defects[v]
                # active: half the stage degree uncolored, or a residual
                # defect (at most top[v]) absorbs it all
                if 2 * deg_u < delta_s and (
                    deg_u > top[v] or not any(d - t.get(x, 0) >= deg_u for x, d in d_v.items())
                ):
                    continue
                # the shortest list prefix whose residual budget sum(d+1)
                # exceeds the uncolored degree
                dd: dict[int, int] = {}
                low = budget = 0
                for x in lists[v]:
                    left = d_v[x] - t.get(x, 0)
                    if left >= 0:
                        if edged:
                            dd[x] = left
                        elif not budget or x < low:
                            low = x
                        budget += left + 1
                        if budget > deg_u:
                            break
                else:
                    at = f"residual budget {budget} at uncolored degree {deg_u}"
                    raise NodeFailure(at if budget else "empty residual list", node=v)
                active.append(i)
                batch_nodes.append(v)
                residuals.append(dd if edged else low)
            if not active:
                rows.append(StageRow(stage, cls, 0, delta_s, 0, 0))
                continue
            batch_graph = stage_graph.subgraph(active)[0] if edged else None
            if batch_graph is not None and batch_graph.edge_count() > 0:
                inst_b = LdcInstance.build(
                    {x for dd in residuals for x in dd}, residuals, residuals, flavor=FLAVOR_ORIENTED
                )
                try:
                    out_b, tr_b = inner.solve(batch_graph, inst_b)
                except FailFast:
                    out_b, tr_b = OracleInner().solve(batch_graph, inst_b)
                traces.append(tr_b)
                # batch-internal edges follow the decomposition
                for a, b in batch_graph.oriented_edges():
                    oriented.append((batch_nodes[a], batch_nodes[b]))
                batch_colors = out_b.colors
                rounds, bits = tr_b.rounds_elapsed, tr_b.max_bits()
            else:
                # no two nodes are adjacent: each takes the smallest color
                # of its residual list, as the oracle would, in 0 rounds
                batch_colors = list(map(min, residuals)) if edged else residuals
                rounds = bits = 0
            # one walk over the batch's neighbors: an edge to an earlier-
            # colored node points at it, and an uncolored neighbor (a
            # batch-mate too, whose counts are never read again) counts x
            for v, x in zip(batch_nodes, batch_colors):
                for u in adjacency[v]:
                    if colors[u] is None:
                        t = taken[u]
                        t[x] = t.get(x, 0) + 1
                        udeg[u] -= 1
                    else:
                        oriented.append((v, u))
            for v, x in zip(batch_nodes, batch_colors):
                colors[v] = x
            uncolored.difference_update(batch_nodes)
            rows.append(StageRow(stage, cls, len(batch_nodes), delta_s, rounds, bits))

    output = ColoringOutput(tuple(colors), tuple(sorted(oriented)))
    require_valid(graph, inst, output, "framework output invalid at")
    return output, concat_traces(traces, output.colors), rows


# -- the CONGEST pipeline ----------------------------------------------------------


# the pipeline accepts color spaces up to degree**SPACE_EXPONENT
SPACE_EXPONENT = 2


def congest_pipeline(
    graph: ColoredGraph,
    inst: LdcInstance,
    config: Optional[MainConfig] = None,
    r: Optional[int] = None,
) -> tuple[ColoringOutput, RoundTrace, list[StageRow]]:
    """degree+1 list coloring under a CONGEST bit budget.

    Composes the initial-coloring subroutine, the message-preset
    space-reduced main OLDC as the framework inner solver (with the
    oracle fallback the down-scaled parameters usually force), and the
    degree-halving framework.  The initial coloring and the inner run
    under the current network's budget, or one derived from |C|, r and n
    when that is None (an over-budget inner batch fails fast and falls
    back to the oracle, which sends nothing).  The inner runs ``config`` (default
    ``MainConfig()``) at r levels of space reduction (default 4).  The
    framework solves the arbdefective g = 0 copy of the instance; when
    the instance differs from that copy (another flavor, or g > 0), the
    output is checked against the instance itself and a violation fails
    fast.
    """
    _check_list_count(graph, inst)
    config = config or MainConfig()
    delta = graph.max_degree()
    space = len(inst.color_space)
    if space > max(4, delta + 1) ** SPACE_EXPONENT:
        raise InvalidInstance(f"color space of {space} exceeds degree^{SPACE_EXPONENT}")
    r = 2 * SPACE_EXPONENT if r is None else r
    chunk = message_preset_p(space, r)  # rejects r < 1 before any run
    budget = current_network().bits_per_message
    if budget is None:
        budget = 8 * (
            chunk * max(1, math.ceil(math.log2(max(2, space))))
            + max(1, math.ceil(math.log2(max(2, graph.n))))
            + 16
        )

    arb = inst
    if inst.flavor != FLAVOR_ARBDEFECTIVE or inst.g != 0:
        arb = LdcInstance(inst.color_space, inst.lists, inst.defects, FLAVOR_ARBDEFECTIVE, 0)
    with network(bits_per_message=budget):
        out0, trace0 = linial_coloring(graph)
        colored = replace(graph, init_colors=out0.colors, m=max(out0.colors, default=0) + 1)
        out, trace, rows = degree_halving_framework(colored, arb, OldcInner(config, r=r))
    if arb is not inst:
        # the framework solved the arbdefective g = 0 copy, which need not
        # bound the conflicts this instance counts
        require_valid(graph, inst, out, "pipeline output invalid at")
    return out, concat_traces([trace0, trace], out.colors), rows
