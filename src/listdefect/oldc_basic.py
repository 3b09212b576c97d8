"""Basic generalized oriented list defective coloring.

Single-defect pipeline (each node carries one defect value d_v):

  0.  Nodes whose defect already covers their outdegree skip the
      machinery and take their first list color.
  1.  Every other node restricts its list to the largest residue class
      modulo 2g+1, forms its type (initial color, restricted list,
      gamma class) and reads its family K_v from the shared type table
      (problem P2, solved without communication).
  2.  Round 1 broadcasts the type descriptor (skippers broadcast their
      color instead); round 2 picks C_v in K_v minimizing the number of
      same-or-lower-class out-neighbors whose family could conflict
      (problem P1) and broadcasts its index.
  3.  Gamma classes then decide in descending order: each node takes the
      frequency-minimizing color of C_v, where the frequency counts
      proximity-g occurrences in undecided same-or-lower-class
      out-neighbors' C_u plus decided out-neighbors' colors.

The gamma class of a node is the smallest i with 2**i >= 2*beta_v/(d_v+1)
and candidate sizes are k_i = 2**i * tau, k' = 2**h * tau'.  Every
pigeonhole step of the analysis is asserted numerically at run time and
aborts the run (NodeFailure) when the configured, possibly down-scaled,
parameters cannot support it; a run never emits an unvalidated coloring.

The multi-defect reduction rounds beta_v up and each d_v(x)+1 down to
powers of two, buckets colors by the resulting ratio and hands the
highest-energy bucket to the single-defect pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .conflict import (
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
from .errors import InvalidInstance, ListTooSmall, MissingOrientation, NodeFailure
from .graphs import (
    FLAVOR_ORIENTED,
    ColoredGraph,
    ColoringOutput,
    LdcInstance,
    require_valid,
)
from .runtime import (
    ColorListField,
    IndexField,
    Pow2DefectField,
    RawField,
    RoundTrace,
    run,
)


@dataclass
class OldcConfig:
    """Run configuration shared by the OLDC algorithms.

    alpha scales every list-size requirement; scale_override replaces the
    derived (tau, tau') pair for down-scaled runs.
    """

    alpha: float = 6.0
    scale_override: Optional[tuple[int, int]] = None


def gamma_class_of(beta_v: int, d_v: int) -> int:
    """Smallest i >= 1 with 2**i >= 2*beta_v/(d_v+1); d_v must be nonnegative."""
    if d_v < 0:
        raise InvalidInstance(f"negative defect {d_v}")
    i = 1
    while (1 << i) * (d_v + 1) < 2 * beta_v:
        i += 1
    return i


def _first_cover(inst: LdcInstance, v: int, outdeg: int) -> Optional[int]:
    """The first color whose defect covers v's outdegree, or None; a node
    with such a color takes it and skips the machinery."""
    if not inst.lists[v]:
        raise ListTooSmall(f"node {v} has an empty color list")
    return next((x for x in inst.lists[v] if inst.defects[v][x] >= outdeg), None)


def _pow2_floor(x: int) -> int:
    return 1 << (x.bit_length() - 1)


def _pow2_ceil(x: int) -> int:
    return 1 << (x - 1).bit_length()


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


def _run_single_defect(
    graph: ColoredGraph,
    color_space: Sequence[int],
    lists: Sequence[Sequence[int]],
    defects: Sequence[int],
    g: int,
    config: OldcConfig,
    h_arg: Optional[int] = None,
    predecided: Optional[dict[int, int]] = None,
) -> tuple[ColoringOutput, RoundTrace]:
    """The single-defect pipeline on canonical lists and nonnegative defects."""
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

    program = _SingleDefectProgram(
        statics=statics, space_size=space_size, h=h, tau=tau, tau_prime=tau_prime, g=g,
        beta_max=beta_max,
    )
    inst = _single_defect_instance(outdeg, color_space, lists, defects, predecided, g)
    trace = run(graph, program)
    output = ColoringOutput(tuple(trace.outputs))
    require_valid(graph, inst, output, "output failed validation at nodes")
    return output, trace


def _single_defect_instance(
    outdeg: list[int], color_space: Sequence[int], lists: Sequence[Sequence[int]],
    defects: Sequence[int] | dict[int, int], predecided: dict[int, int], g: int,
) -> LdcInstance:
    """The instance a single-defect run is checked against: each node's
    list at its one defect ``defects[v]``, and a predecided node's color
    at its outdegree ``outdeg[v]``.  Built on trust: the lists are sorted,
    free of repeats and in the space, the defects and colors nonnegative,
    as ``_checked_lists`` or the caller's own instance made sure."""
    nodes = range(len(outdeg))
    return LdcInstance._trusted(
        tuple(sorted(set(color_space))),
        tuple([(predecided[v],) if v in predecided else lists[v] for v in nodes]),
        tuple([{predecided[v]: outdeg[v]} if v in predecided
               else dict.fromkeys(lists[v], defects[v]) for v in nodes]),
        FLAVOR_ORIENTED, g,
    )


def _checked_lists(n: int, color_space: Sequence[int], lists: Sequence[Sequence[int]],
                   defects: Sequence[int]) -> list[tuple[int, ...]]:
    """The lists sorted and free of repeats, after the checks that the
    instance constructor would make on them and on the defects; the first
    fault raises InvalidInstance, before any round."""
    space = set(color_space)
    if min(space, default=0) < 0:
        raise InvalidInstance("colors must be nonnegative integers")
    if len(lists) != n or len(defects) != n:
        raise InvalidInstance(f"{len(lists)} lists and {len(defects)} defects for {n} nodes")
    lists = [tuple(sorted(set(l))) for l in lists]
    for v, (lst, d) in enumerate(zip(lists, defects)):
        if not space.issuperset(lst):
            raise InvalidInstance(f"list of node {v} leaves the color space")
        if d < 0:
            raise InvalidInstance(f"negative defect at node {v}")
    return lists


def single_defect_oldc(
    graph: ColoredGraph,
    color_space: Sequence[int],
    lists: Sequence[Sequence[int]],
    defects: Sequence[int],
    g: int,
    config: Optional[OldcConfig] = None,
) -> tuple[ColoringOutput, RoundTrace]:
    """Generalized OLDC with one defect value per node.

    Every node ends with at most d_v out-neighbors whose color is within
    distance g of its own, or the run aborts fail-fast.  Faulty lists or
    defects raise InvalidInstance before any round.
    """
    if graph.out_neighbors is None:
        raise MissingOrientation("oriented coloring needs an orientation")
    lists = _checked_lists(graph.n, color_space, lists, defects)
    return _run_single_defect(graph, color_space, lists, defects, g, config or OldcConfig())


def multi_defect_oldc(
    graph: ColoredGraph,
    inst: LdcInstance,
    h: Optional[int] = None,
    config: Optional[OldcConfig] = None,
) -> tuple[ColoringOutput, RoundTrace]:
    """Full OLDC with per-color defects, by reduction to the single-defect case.

    Rounds beta_v up and d_v(x)+1 down to powers of two, partitions each
    list into same-ratio buckets and keeps the bucket maximizing
    |L_{v,i}| * (d+1)^2 (at least a 1/h fraction of the total); nodes
    with a color whose defect covers their outdegree skip the machinery
    and take the first such color.
    """
    config = config or OldcConfig()
    if graph.out_neighbors is None:
        raise MissingOrientation("oriented coloring needs an orientation")
    if inst.flavor != FLAVOR_ORIENTED:
        raise InvalidInstance("multi_defect_oldc expects an oriented instance")
    n = graph.n
    g = inst.g

    predecided: dict[int, int] = {}
    reduced_lists: list[tuple[int, ...]] = [()] * n
    reduced_defect: list[int] = [0] * n
    max_class = 1
    machinery: list[tuple[int, int, int]] = []  # (node, beta_hat, energy total)
    outdeg = list(map(len, graph.out_neighbors))
    for v in range(n):
        first_cover = _first_cover(inst, v, outdeg[v])
        if first_cover is not None:
            predecided[v] = first_cover
            continue
        beta_hat = _pow2_ceil(max(1, outdeg[v]))
        buckets: dict[int, list[int]] = {}
        for x in inst.lists[v]:
            dhat1 = _pow2_floor(inst.defects[v][x] + 1)
            cls = gamma_class_of(beta_hat, dhat1 - 1)
            buckets.setdefault(cls, []).append(x)
        energy = {
            cls: len(xs) * (_pow2_floor(inst.defects[v][xs[0]] + 1)) ** 2
            for cls, xs in buckets.items()
        }
        total = sum(
            _pow2_floor(inst.defects[v][x] + 1) ** 2 for x in inst.lists[v]
        )
        star = min(energy, key=lambda c: (-energy[c], c))
        assert energy[star] * len(buckets) >= total, "best bucket must carry >= 1/h of the energy"
        xs = buckets[star]
        reduced_lists[v] = tuple(xs)  # in list order, so sorted
        reduced_defect[v] = _pow2_floor(inst.defects[v][xs[0]] + 1) - 1
        max_class = max(max_class, star)
        machinery.append((v, beta_hat, total))

    h_used = max(h or 1, max_class)
    params = ConflictParams(
        h=h_used, color_space_size=len(inst.color_space), m=graph.m, g=g,
        scale_override=config.scale_override,
    )
    tau = params.tau
    for v, beta_hat, total in machinery:
        need = config.alpha * beta_hat**2 * tau * h_used * (2 * g + 1)
        if total < need:
            raise ListTooSmall(
                f"node {v}: defect energy {total} < {need:.1f} "
                f"(alpha={config.alpha}, tau={tau}, h={h_used}, g={g})"
            )

    out, trace = _run_single_defect(
        graph, inst.color_space, reduced_lists, reduced_defect, g, config,
        h_arg=h_used, predecided=predecided,
    )
    require_valid(graph, inst, out, "output failed validation at nodes")
    return out, trace
