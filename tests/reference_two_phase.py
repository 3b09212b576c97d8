"""Frozen reference: two-phase OLDC as it was before it read sent messages.

``two_phase_oldc`` here copies every delivered inbox of each broadcast
segment into per-node ``known_types``, ``known_csets`` and
``known_colors`` dicts of a ``_TwoPhaseNode`` and filters them by
out-neighbor where it reads them.  Tests run the library's
``oldc_main.two_phase_oldc`` and this copy on the same inputs: equal
colors, traces, message records and audits, or the same exception with
the same message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from listdefect.conflict import (
    ConflictParams, NodeType, build_type_table, color_mask, least_conflicting,
    proximity_count,
)
from listdefect.errors import InvalidInstance, ListTooSmall, MissingOrientation, NodeFailure
from listdefect.graphs import ColoredGraph, ColoringOutput, require_valid
from listdefect.oldc_basic import OldcConfig, _checked_lists, _single_defect_instance
from listdefect.oldc_main import ClassBudget
from listdefect.runtime import (
    ColorListField, IndexField, Pow2DefectField, RawField, RoundTrace, concat_traces, run,
)


@dataclass
class _SegmentProgram:
    """One broadcast step: the given nodes send, everyone collects."""

    senders: dict[int, Mapping]

    def init(self, view):
        return view, None

    def step(self, view, inbox, round_no):
        if round_no == 1:
            return view, self.senders.get(view.node), None
        return view, None, dict(inbox)


def _broadcast_segment(
    graph: ColoredGraph, senders: dict[int, Mapping]
) -> tuple[RoundTrace, list[dict[int, Mapping]]]:
    if not senders:
        return RoundTrace(), [{} for _ in range(graph.n)]
    trace = run(graph, _SegmentProgram(senders))
    return trace, list(trace.outputs)


# -- two-phase algorithm ---------------------------------------------------------


@dataclass
class _TwoPhaseNode:
    colors: tuple[int, ...] = ()
    defect: int = 0
    gamma: int = 0
    cset: tuple[int, ...] = ()
    known_types: dict = field(default_factory=dict)    # u -> (class, list, init color)
    known_csets: dict = field(default_factory=dict)    # u -> color_mask(C_u)
    known_colors: dict = field(default_factory=dict)   # u -> final color
    audit: tuple = ()


def two_phase_oldc(
    graph: ColoredGraph,
    color_space: Sequence[int],
    lists: Sequence[Sequence[int]],
    budget: ClassBudget,
    config: Optional[OldcConfig] = None,
    predecided: Optional[dict[int, int]] = None,
) -> tuple[ColoringOutput, RoundTrace]:
    """Solve a single-defect OLDC instance under an explicit class budget.

    Requires per machinery node:
      4 * max(beta_within_class, beta_v / q) <= (d_v + 1) * 2**class
      |L_v| >= [alpha * 4**class
                + (4/(d_v+1)) * sum of beta_{v,j} * 2**j
                  over j in [class - floor(log2 q), class - 1]] * tau

    ``predecided`` nodes broadcast a fixed color up front and only count
    toward their neighbors' budgets.
    """
    config = config or OldcConfig()
    if graph.out_neighbors is None:
        raise MissingOrientation("two-phase OLDC needs an orientation")
    n = graph.n
    predecided = dict(predecided or {})
    machinery = sorted(budget.classes)
    if set(machinery) | set(predecided) != set(range(n)) or set(machinery) & set(predecided):
        raise InvalidInstance("every node needs exactly one of: class or predecided color")
    # a predecided node is checked at its one color
    rows = [(predecided[v],) if v in predecided else l for v, l in enumerate(lists)]
    lists = _checked_lists(n, color_space, rows, [budget.defects.get(v, 0) for v in range(n)])

    h, q = budget.h, budget.q
    params = ConflictParams(
        h=h, color_space_size=len(color_space), m=graph.m, g=0, scale_override=config.scale_override
    )
    tau, tau_prime = params.tau, params.tau_prime
    space_size = len(color_space)
    outdeg = list(map(len, graph.out_neighbors))
    beta_max = max(1, max(outdeg, default=1))

    nodes = {v: _TwoPhaseNode() for v in machinery}
    beta_within: dict[int, dict[int, int]] = {}
    for v in machinery:
        node = nodes[v]
        node.colors = lists[v]
        node.defect = budget.defects[v]
        node.gamma = budget.classes[v]
        per_class: dict[int, int] = {}
        for u in graph.out_neighbors[v]:
            if u in budget.classes:
                j = budget.classes[u]
                per_class[j] = per_class.get(j, 0) + 1
        beta_within[v] = per_class
        beta_v = max(1, outdeg[v])
        b_same = per_class.get(node.gamma, 0)
        if 4 * max(b_same * q, beta_v) > (node.defect + 1) * (1 << node.gamma) * q:
            raise NodeFailure(
                f"class budget invariant fails: beta_same={b_same} beta={beta_v} "
                f"q={q} d={node.defect} class={node.gamma}",
                node=v,
            )
        log_q = q.bit_length() - 1
        tail = sum(
            per_class.get(j, 0) * (1 << j)
            for j in range(max(1, node.gamma - log_q), node.gamma)
        )
        need = (config.alpha * 4**node.gamma + 4 * tail / (node.defect + 1)) * tau
        if len(lists[v]) < need:
            raise ListTooSmall(
                f"node {v}: |L|={len(lists[v])} < {need:.1f} under the two-phase condition"
            )

    traces: list[RoundTrace] = []

    # decided colors go out first so every budget sees them
    decided_msgs = {
        v: {"decided": ColorListField((c,), space_size)} for v, c in predecided.items()
    }
    tr, delivered = _broadcast_segment(graph, decided_msgs)
    traces.append(tr)
    for v in machinery:
        for u, msg in delivered[v].items():
            nodes[v].known_colors[u] = msg["decided"].colors[0]

    by_class: dict[int, list[int]] = {}
    for v in machinery:
        by_class.setdefault(nodes[v].gamma, []).append(v)

    # Phase I, ascending classes
    pruned: dict[int, tuple[int, ...]] = {}
    for i in range(1, h + 1):
        members = by_class.get(i, [])
        if not members:
            continue
        for v in members:
            node = nodes[v]
            lower = [
                m_u
                for u, m_u in node.known_csets.items()
                if u in graph.out_neighbors[v] and budget.classes[u] < i
            ]
            d_total = sum(m_u.bit_count() for m_u in lower)
            # a color is bad when over d/4 lower-class candidate sets claim it
            keep = tuple(
                x for x in node.colors if 4 * sum(m_u >> x & 1 for m_u in lower) <= node.defect
            )
            n_bad = len(node.colors) - len(keep)
            if n_bad * (node.defect + 1) > 4 * d_total:
                raise NodeFailure(f"bad-color bound violated: |B|={n_bad} D={d_total}", node=v)
            k_i = (1 << i) * tau
            if len(keep) < k_i:
                raise ListTooSmall(
                    f"node {v}: pruned list of {len(keep)} cannot host sets of size {k_i}"
                )
            pruned[v] = keep

        # in-class P2: broadcast types, then assign via a fresh table
        type_msgs = {
            v: {
                "init": IndexField(graph.init_colors[v], graph.m),
                "list": ColorListField(pruned[v], space_size),
                "defect": Pow2DefectField(nodes[v].defect, beta_max),
                "class": RawField(i, max(1, h.bit_length())),
            }
            for v in members
        }
        tr, delivered = _broadcast_segment(graph, type_msgs)
        traces.append(tr)
        for v in machinery:
            for u, msg in delivered[v].items():
                nodes[v].known_types[u] = (msg["class"].value, msg["list"].colors, msg["init"].index)

        class_types = {v: NodeType(graph.init_colors[v], pruned[v], i) for v in members}
        table = build_type_table(
            params, list(class_types.values()), {i: (1 << i) * tau}, (1 << i) * tau_prime
        )
        masks_of = {t: tuple(map(color_mask, f)) for t, f in zip(table.types, table.families)}
        cset_msgs = {}
        for v in members:
            node = nodes[v]
            fam = table.family_of(class_types[v])
            peer_masks = [
                masks_of[NodeType(init, lst, i)]
                for cls, lst, init in (
                    node.known_types.get(u, (None,) * 3) for u in graph.out_neighbors[v]
                )
                if cls == i
            ]
            best_idx, best_d = least_conflicting(masks_of[class_types[v]], peer_masks, tau, 0)
            b_same = beta_within[v].get(i, 0)
            if best_d * len(fam) > b_same * (tau_prime - 1):
                raise NodeFailure(
                    f"phase-I pigeonhole failed: {best_d} over family of {len(fam)}", node=v
                )
            if 4 * b_same * (tau_prime - 1) >= (node.defect + 1) * len(fam):
                raise NodeFailure(
                    f"phase-I average bound fails: beta_same={b_same} |K|={len(fam)}", node=v
                )
            if 4 * best_d > node.defect:
                raise NodeFailure(f"phase-I selection exceeds d/4: {best_d}", node=v)
            node.cset = fam[best_idx]
            cset_msgs[v] = {"cset": IndexField(best_idx, len(fam))}
        tr, delivered = _broadcast_segment(graph, cset_msgs)
        traces.append(tr)
        for v in machinery:
            for u, msg in delivered[v].items():
                cls, lst, init = nodes[v].known_types[u]
                nodes[v].known_csets[u] = masks_of[NodeType(init, lst, cls)][msg["cset"].index]

    # Phase II, descending classes
    colors: dict[int, int] = dict(predecided)
    for i in range(h, 0, -1):
        members = by_class.get(i, [])
        if not members:
            continue
        color_msgs = {}
        for v in members:
            node = nodes[v]
            c_v = (color_mask(node.cset),)
            # same-class out-neighbors: C_u overlaps C_v in under tau colors
            # (star, counted in the multiset) or in tau or more (ignored)
            overlap = {
                u: proximity_count(c_v, node.known_csets[u])
                for u in graph.out_neighbors[v]
                if budget.classes.get(u) == i
            }
            star = [u for u, o in overlap.items() if o < tau]
            ignored = len(overlap) - len(star)
            decided_hits = {
                u: c for u, c in node.known_colors.items() if u in graph.out_neighbors[v]
            }
            multiset = len(decided_hits) + sum(overlap[u] for u in star)
            if 2 * multiset >= (1 << i) * (node.defect + 1) * tau:
                raise NodeFailure(f"phase-II multiset bound fails: {multiset}", node=v)
            best_x, best_f = None, None
            for x in node.cset:
                f_x = sum(1 for c in decided_hits.values() if c == x)
                f_x += sum(node.known_csets[u] >> x & 1 for u in star)
                if best_f is None or f_x < best_f:
                    best_x, best_f = x, f_x
            if 2 * best_f > node.defect:
                raise NodeFailure(f"phase-II frequency bound fails: {best_f} > d/2", node=v)
            lower_hits = sum(
                node.known_csets[u] >> best_x & 1
                for u in graph.out_neighbors[v]
                if budget.classes.get(u, h + 1) < i
            )
            if 4 * lower_hits > node.defect:
                raise NodeFailure(f"lower-class budget exceeded: {lower_hits}", node=v)
            node.audit = (lower_hits, ignored, best_f)
            colors[v] = best_x
            color_msgs[v] = {"color": ColorListField((best_x,), space_size)}
        tr, delivered = _broadcast_segment(graph, color_msgs)
        traces.append(tr)
        for v in machinery:
            for u, msg in delivered[v].items():
                nodes[v].known_colors[u] = msg["color"].colors[0]

    output = ColoringOutput(tuple(colors[v] for v in range(n)))
    trace = concat_traces(traces, output.colors)
    trace.audit = [(v, *nodes[v].audit) if v in nodes else (v, 0, 0, 0) for v in range(n)]
    inst = _single_defect_instance(outdeg, color_space, lists, budget.defects, predecided, 0)
    require_valid(graph, inst, output, "two-phase output invalid at")
    return output, trace
