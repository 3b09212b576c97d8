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
  3.  Gamma classes then decide in descending order, one round each: each
      node takes the frequency-minimizing color of C_v, where the
      frequency counts proximity-g occurrences in undecided
      same-or-lower-class out-neighbors' C_u plus decided out-neighbors'
      colors.

The schedule is fixed and public, so the run is a sequence of rounds
over sent records, driven by ``runtime.Rounds``, with local work between
them.  A node reads only what its out-neighbors sent: a family
K_u from u's sent type through the shared table, C_u from its sent index.

The gamma class of a node is the smallest i with 2**i >= 2*beta_v/(d_v+1)
and candidate sizes are k_i = 2**i * tau, k' = 2**h * tau'.  The bounds
that depend on the configured, possibly down-scaled, parameters are
checked at run time and abort the run (ListTooSmall, NodeFailure): the
list sizes, round 2's pigeonhole best |K| <= beta (tau' - 1) and family
size 2 beta (tau' - 1) < (d + 1) |K|, and the frequency bound.  P1 is not
checked again: a u whose C_u conflicts with C_v was counted in best, as
C_u is in K_u, so 2 conflicts <= 2 best < d + 1.  No coloring leaves a run
unvalidated.

The multi-defect reduction rounds beta_v up and each d_v(x)+1 down to
powers of two, buckets colors by the resulting ratio and hands the
highest-energy bucket to the single-defect pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .conflict import (
    ConflictParams, NodeType, build_type_table, color_mask, least_conflicting, least_frequent,
    residue_restrict,
)
from .errors import InvalidInstance, ListTooSmall, MissingOrientation, NodeFailure
from .graphs import (
    FLAVOR_ORIENTED,
    ColoredGraph,
    ColoringOutput,
    LdcInstance,
    require_valid,
)
from .runtime import ColorListField, IndexField, Pow2DefectField, RawField, Rounds, RoundTrace


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
    """The single-defect pipeline on canonical lists and nonnegative defects.

    Round 1 sends the types and the skippers' colors; the scheduled
    rounds after it send the candidate-set indices (round 2) and the
    colors of gamma class i (round 3 + h - i).  Between rounds a node
    reads only what its out-neighbors sent, their families through the
    shared type table.
    """
    n = graph.n
    predecided = predecided or {}
    space_size = len(color_space)
    outs = graph.out_neighbors
    outdeg = list(map(len, outs))
    beta_max = max(1, max(outdeg, default=1))

    decided: dict[int, int] = {}  # node -> its color; a skipper's is known up front
    gamma: dict[int, int] = {}  # every other node -> its gamma class, in id order
    for v in range(n):
        if v in predecided:
            decided[v] = predecided[v]
        elif not lists[v]:
            raise ListTooSmall(f"node {v} has an empty color list")
        elif outdeg[v] <= defects[v]:
            decided[v] = lists[v][0]
        else:
            gamma[v] = gamma_class_of(outdeg[v], defects[v])

    # h may be given but must cover every realized class
    h = max(h_arg or 1, max(gamma.values(), default=1))
    params = ConflictParams(
        h=h, color_space_size=space_size, m=graph.m, g=g, scale_override=config.scale_override
    )
    tau, tau_prime = params.tau, params.tau_prime

    sent: dict[int, dict] = {
        v: {"decided": ColorListField((c,), space_size)} for v, c in decided.items()
    }
    for v, i in gamma.items():
        need = config.alpha * (outdeg[v] / (defects[v] + 1)) ** 2 * tau * (2 * g + 1)
        if len(lists[v]) < need:
            raise ListTooSmall(
                f"node {v}: |L|={len(lists[v])} < {need:.1f} required at alpha={config.alpha}"
            )
        _, restricted = residue_restrict(lists[v], g)
        k_i = (1 << i) * tau
        if len(restricted) < k_i:
            raise ListTooSmall(
                f"node {v}: residue-restricted list of {len(restricted)} "
                f"cannot host candidate sets of size {k_i}"
            )
        sent[v] = _type_message(graph, params, beta_max, v, restricted, defects[v], i)
    # P2 takes no communication: the table of all types precedes round 1
    class_of, families, fam_masks = _read_types({u: sent[u] for u in gamma}, params, h)

    rounds = Rounds(graph)
    rounds.send(sent)
    csets: dict[int, tuple[int, ...]] = {}

    def select(v):  # P1: the member of K_v conflicting with fewest same-or-lower families
        fam = families[v]
        peers = [fam_masks[u] for u in outs[v] if class_of.get(u, h + 1) <= class_of[v]]
        best_idx, best_d = least_conflicting(fam_masks[v], peers, tau, g)
        # pigeonhole over the family: best <= beta (tau'-1)/|K| < (d+1)/2
        if best_d * len(fam) > outdeg[v] * (tau_prime - 1):
            raise NodeFailure(
                f"P1 pigeonhole failed: {best_d} conflicts over family of {len(fam)}"
            )
        if 2 * outdeg[v] * (tau_prime - 1) >= (defects[v] + 1) * len(fam):
            raise NodeFailure(
                "family too small for the defect budget: "
                f"beta={outdeg[v]} tau'={tau_prime} |K|={len(fam)} d={defects[v]}"
            )
        csets[v] = fam[best_idx]
        return {"cset": IndexField(best_idx, len(fam))}

    sent_csets = {
        u: fam_masks[u][msg["cset"].index] for u, msg in rounds.round(gamma, select).items()
    }

    def decide(v):  # v's step in the color round of its class
        same_or_lower = [sent_csets[u] for u in outs[v] if class_of.get(u, h + 1) <= class_of[v]]
        near = [decided[u] for u in outs[v] if u in decided]
        best_x, best_f = least_frequent(csets[v], same_or_lower, near, g)
        if best_f is None or best_f > defects[v]:
            raise NodeFailure(
                f"frequency bound failed: min frequency {best_f}, defect {defects[v]}"
            )
        return {"color": ColorListField((best_x,), space_size)}

    for i in range(h, min(class_of.values(), default=h + 1) - 1, -1):
        colors = rounds.round([v for v, c in class_of.items() if c == i], decide)
        decided.update((u, msg["color"].colors[0]) for u, msg in colors.items())

    output = ColoringOutput(tuple(decided[v] for v in range(n)))
    inst = _single_defect_instance(outdeg, color_space, lists, defects, predecided, g)
    require_valid(graph, inst, output, "output failed validation at nodes")
    return output, rounds.trace(output.colors)


def _type_message(graph: ColoredGraph, params: ConflictParams, beta_max: int, v: int,
                  colors: Sequence[int], defect: int, gamma_class: int) -> dict:
    """The type message of node v, as ``_read_types`` reads it."""
    return {
        "init": IndexField(graph.init_colors[v], graph.m),
        "list": ColorListField(colors, params.color_space_size),
        "defect": Pow2DefectField(defect, beta_max),
        "class": RawField(gamma_class, max(1, params.h.bit_length())),
    }


def _read_types(msgs: dict[int, dict], params: ConflictParams, top_class: int):
    """Each sender's class read from ``msgs``, and its family K_u from the
    table of the types sent, as candidate sets and as color masks: class i
    sets have 2**i * tau colors, families 2**top_class * tau' members."""
    types = {u: NodeType(m["init"].index, m["list"].colors, m["class"].value)
             for u, m in msgs.items()}
    k_by_class = {t.gamma_class: (1 << t.gamma_class) * params.tau for t in types.values()}
    table = build_type_table(
        params, list(types.values()), k_by_class, (1 << top_class) * params.tau_prime
    )
    masks_of = {t: tuple(map(color_mask, f)) for t, f in zip(table.types, table.families)}
    return ({u: t.gamma_class for u, t in types.items()},
            {u: table.family_of(t) for u, t in types.items()},
            {u: masks_of[t] for u, t in types.items()})


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
        if energy[star] * len(buckets) < total:
            raise NodeFailure("best bucket must carry >= 1/h of the energy", node=v)
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
