"""Frozen reference: the single-defect OLDC run as a node program on the engine.

Here each node runs ``_SingleDefectProgram`` through ``run``, reading its
out-neighbors' family masks from the shared per-node ``_NodeStatics``.
Tests run the library's ``oldc_basic._run_single_defect``, which runs
broadcast rounds over sent records, and this copy on the same inputs:
equal colors, per-round bits and message records, or the same exception
with the same message, node, round, edge and size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from listdefect.conflict import (
    ConflictParams,
    NodeType,
    build_type_table,
    color_mask,
    least_conflicting,
    masks_conflict,
    proximity_count,
    residue_restrict,
    shifted_masks,
)
from listdefect.errors import ListTooSmall, NodeFailure
from listdefect.graphs import ColoredGraph, ColoringOutput, require_valid
from listdefect.oldc_basic import OldcConfig, _single_defect_instance, gamma_class_of
from listdefect.runtime import (
    ColorListField,
    IndexField,
    Pow2DefectField,
    RawField,
    RoundTrace,
    run,
)


@dataclass
class _NodeStatics:
    """Read-only per-node data closed over by the node program."""

    skip_color: Optional[int] = None
    defect: int = 0
    gamma: int = 0
    family: tuple[tuple[int, ...], ...] = ()
    masks: tuple[int, ...] = ()  # color_mask of each family member
    restricted: tuple[int, ...] = ()


@dataclass
class _SingleDefectProgram:
    """Node program for the single-defect pipeline; shares the type table."""

    statics: list[_NodeStatics]
    space_size: int
    h: int
    tau: int
    tau_prime: int
    g: int
    beta_max: int

    def init(self, view):
        state = {
            "view": view,
            "decided": {},     # out-neighbor -> color
            "cset_masks": {},  # out-neighbor -> color_mask(C_u)
            "classes": {},     # out-neighbor -> gamma class
            "cset": None,
        }
        return state, None

    def step(self, state, inbox, round_no: int):
        view = state["view"]
        st = self.statics[view.node]

        for u, msg in inbox.items():
            if "decided" in msg:
                state["decided"][u] = msg["decided"].colors[0]
            if "color" in msg:
                state["decided"][u] = msg["color"].colors[0]
            if "class" in msg:
                state["classes"][u] = msg["class"].value
            if "cset" in msg:
                state["cset_masks"][u] = self.statics[u].masks[msg["cset"].index]

        if round_no == 1:
            if st.skip_color is not None:
                msg = {"decided": ColorListField((st.skip_color,), self.space_size)}
                return state, msg, st.skip_color
            msg = {
                "init": IndexField(view.init_color, view.m),
                "list": ColorListField(st.restricted, self.space_size),
                "defect": Pow2DefectField(st.defect, self.beta_max),
                "class": RawField(st.gamma, max(1, self.h.bit_length())),
            }
            return state, msg, None

        if round_no == 2:
            fam = st.family
            peers = [
                u
                for u in view.out_neighbors
                if u in state["classes"] and state["classes"][u] <= st.gamma
            ]
            peer_masks = [self.statics[u].masks for u in peers]
            best_idx, best_d = least_conflicting(st.masks, peer_masks, self.tau, self.g)
            beta_v = max(1, len(view.out_neighbors))
            # pigeonhole over the family: best <= beta (tau'-1)/|K| < (d+1)/2
            if best_d * len(fam) > beta_v * (self.tau_prime - 1):
                raise NodeFailure(
                    f"P1 pigeonhole failed: {best_d} conflicts over family of {len(fam)}"
                )
            if 2 * beta_v * (self.tau_prime - 1) >= (st.defect + 1) * len(fam):
                raise NodeFailure(
                    "family too small for the defect budget: "
                    f"beta={beta_v} tau'={self.tau_prime} |K|={len(fam)} d={st.defect}"
                )
            state["cset"] = st.family[best_idx]
            state["cset_mask"] = st.masks[best_idx]
            return state, {"cset": IndexField(best_idx, len(fam))}, None

        if round_no == 3:
            out_set = set(view.out_neighbors)
            shifted = shifted_masks(state["cset_mask"], self.g)
            conflicts = sum(
                1
                for u, m_u in state["cset_masks"].items()
                if u in out_set
                and state["classes"][u] <= st.gamma
                and masks_conflict(shifted, m_u, self.tau)
            )
            if 2 * conflicts > st.defect:
                raise NodeFailure(
                    f"P1 violated: {conflicts} conflicting same-or-lower out-neighbors"
                )

        if round_no == 3 + self.h - st.gamma:  # classes decide in descending order
            undecided = [
                state["cset_masks"][u]
                for u in view.out_neighbors
                if u in state["cset_masks"] and state["classes"][u] <= st.gamma
            ]
            best_x, best_f = None, None
            for x in state["cset"]:
                near_x = shifted_masks(1 << x, self.g)
                f = sum(proximity_count(near_x, m_u) for m_u in undecided)
                f += sum(
                    1
                    for u in view.out_neighbors
                    if u in state["decided"] and abs(state["decided"][u] - x) <= self.g
                )
                if best_f is None or f < best_f:
                    best_x, best_f = x, f
            if best_f is None or best_f > st.defect:
                raise NodeFailure(
                    f"frequency bound failed: min frequency {best_f}, defect {st.defect}"
                )
            return state, {"color": ColorListField((best_x,), self.space_size)}, best_x

        return state, None, None


def single_defect_program(
    graph: ColoredGraph,
    color_space: Sequence[int],
    lists: Sequence[Sequence[int]],
    defects: Sequence[int],
    g: int,
    config: OldcConfig,
    h_arg: Optional[int] = None,
    predecided: Optional[dict[int, int]] = None,
) -> _SingleDefectProgram:
    """The node program of a single-defect run on canonical lists and
    nonnegative defects, after the checks and the type table that come
    before its first round (these raise as the run would)."""
    n = graph.n
    predecided = dict(predecided or {})
    statics = [_NodeStatics() for _ in range(n)]
    space_size = len(color_space)
    outdeg = list(map(len, graph.out_neighbors))
    beta_max = max(1, max(outdeg, default=1))

    classed: list[int] = []
    for v in range(n):
        if v in predecided:
            statics[v].skip_color = predecided[v]
            continue
        if not lists[v]:
            raise ListTooSmall(f"node {v} has an empty color list")
        if outdeg[v] <= defects[v]:
            statics[v].skip_color = lists[v][0]
            continue
        statics[v].defect = defects[v]
        statics[v].gamma = gamma_class_of(max(1, outdeg[v]), defects[v])
        classed.append(v)

    # h may be given but must cover every realized class
    h = max(h_arg or 1, max((statics[v].gamma for v in classed), default=1))
    params = ConflictParams(
        h=h, color_space_size=space_size, m=graph.m, g=g, scale_override=config.scale_override
    )
    tau, tau_prime = params.tau, params.tau_prime

    types: list[NodeType] = []
    for v in classed:
        beta_v = max(1, outdeg[v])
        need = config.alpha * (beta_v / (defects[v] + 1)) ** 2 * tau * (2 * g + 1)
        if len(lists[v]) < need:
            raise ListTooSmall(
                f"node {v}: |L|={len(lists[v])} < {need:.1f} required at alpha={config.alpha}"
            )
        _, restricted = residue_restrict(lists[v], g)
        k_i = (1 << statics[v].gamma) * tau
        if len(restricted) < k_i:
            raise ListTooSmall(
                f"node {v}: residue-restricted list of {len(restricted)} "
                f"cannot host candidate sets of size {k_i}"
            )
        statics[v].restricted = restricted
        types.append(NodeType(graph.init_colors[v], restricted, statics[v].gamma))

    k_by_class = {i: (1 << i) * tau for i in range(1, h + 1)}
    k_prime = (1 << h) * tau_prime
    table = build_type_table(params, types, k_by_class, k_prime)
    # one mask tuple per family
    masks_of = {t: tuple(map(color_mask, f)) for t, f in zip(table.types, table.families)}
    for v, t in zip(classed, types):
        statics[v].family = table.family_of(t)
        statics[v].masks = masks_of[t]

    return _SingleDefectProgram(
        statics=statics, space_size=space_size, h=h, tau=tau, tau_prime=tau_prime, g=g,
        beta_max=beta_max,
    )


def run_single_defect(
    graph: ColoredGraph,
    color_space: Sequence[int],
    lists: Sequence[Sequence[int]],
    defects: Sequence[int],
    g: int,
    config: OldcConfig,
    h_arg: Optional[int] = None,
    predecided: Optional[dict[int, int]] = None,
) -> tuple[ColoringOutput, RoundTrace]:
    """The single-defect pipeline on canonical lists and nonnegative
    defects, with the signature of ``oldc_basic._run_single_defect``."""
    program = single_defect_program(
        graph, color_space, lists, defects, g, config, h_arg, predecided
    )
    outdeg = list(map(len, graph.out_neighbors))
    inst = _single_defect_instance(
        outdeg, color_space, lists, defects, dict(predecided or {}), g
    )
    trace = run(graph, program)
    output = ColoringOutput(tuple(trace.outputs))
    require_valid(graph, inst, output, "output failed validation at nodes")
    return output, trace
