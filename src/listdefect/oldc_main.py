"""Two-phase OLDC and the full algorithm with lambda-based class selection.

The two-phase algorithm assumes gamma classes are already assigned.
Phase I walks the classes in ascending order: a node first drops its bad
colors (those already claimed by more than d/4 lower-class candidate
sets), solves the standard in-class P2 via a per-class type table and
picks a candidate set C_v conflicting with at most d/4 same-class
out-neighbors.  Phase II walks the classes in descending order and picks
the color of C_v least claimed by decided out-neighbors and compatible
same-class candidate sets, adding at most d/2.  The budget decomposition
(d/4 lower + d/4 ignored same-class + d/2 higher/star) is recorded per
node in the trace audit.

The bounds that depend on the configured parameters are checked at run
time: the class-budget invariant and list need, the phase-I pigeonhole
best * |K| <= beta_same (tau' - 1) with the average bound
4 beta_same (tau' - 1) < (d + 1) |K|, and the phase-II multiset bound
2 * multiset < 2**i (d + 1) tau.  (That last one follows from the class
budget when q <= tau, as in ``main_oldc``, but ``two_phase_oldc`` takes
any q.)  What follows from them by arithmetic is not checked again:
  - the bad colors: each lies in floor(d/4) + 1 or more lower-class sets,
    and 4 (floor(d/4) + 1) >= d + 1, so |B| (d + 1) <= 4 sum |C_u|
    (Markov);
  - the phase-I selection: 4 best |K| <= 4 beta_same (tau' - 1) <
    (d + 1) |K|, so 4 best <= d;
  - the phase-II frequency: f summed over C_v is at most the multiset and
    |C_v| = 2**i tau, so 2 min f < d + 1;
  - the lower-class hits: the chosen color lies in C_v, so in v's pruned
    list, where no color lies in over d/4 lower-class sets; these are the
    sets counted, since the lower classes send before class i.

The full algorithm first rounds everything to powers of four, splits
every list into same-defect buckets mu with energies D_{v,mu}, converts
the energy profile into a class-assignment OLDC instance (colors are
candidate classes, defects are the delta budgets) solved by the basic
algorithm with proximity g = floor(log2 h), and then runs the two-phase
algorithm on the buckets the assignment selected.

Both routines are phased: each communication step is one round over a
sent record, priced by ``runtime.broadcast``, so every message is sized
and held to the bit budget.  Between rounds a node reads only what its
out-neighbors sent; per-class type tables are built from the types the
class sent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .conflict import (
    ConflictParams, color_mask, least_conflicting, least_frequent, proximity_count, tau_of,
)
from .errors import (
    InvalidInstance,
    ListTooSmall,
    MissingOrientation,
    NodeFailure,
)
from .graphs import (
    FLAVOR_ORIENTED,
    ColoredGraph,
    ColoringOutput,
    LdcInstance,
    require_valid,
)
from .oldc_basic import (
    OldcConfig, _checked_lists, _first_cover, _pow2_ceil, _pow2_floor, _read_types,
    _single_defect_instance, _type_message, multi_defect_oldc,
)
from .runtime import ColorListField, IndexField, RoundTrace, broadcast, concat_traces


# -- two-phase algorithm ---------------------------------------------------------


@dataclass(frozen=True)
class ClassBudget:
    """Gamma classes plus the parameters of the per-class defect budgets."""

    classes: dict[int, int]  # machinery node -> class in [1..h]
    defects: dict[int, int]  # machinery node -> single defect
    h: int
    q: int

    def __post_init__(self):
        if self.q < 1 or self.h < 1:
            raise InvalidInstance("ClassBudget needs h, q >= 1")
        if any(not (1 <= i <= self.h) for i in self.classes.values()):
            raise InvalidInstance("class outside [1..h]")


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
    classes, defects = budget.classes, budget.defects
    machinery = sorted(classes)
    if set(machinery) | set(predecided) != set(range(n)) or set(machinery) & set(predecided):
        raise InvalidInstance("every node needs exactly one of: class or predecided color")
    # a predecided node is checked at its one color
    rows = [(predecided[v],) if v in predecided else l for v, l in enumerate(lists)]
    lists = _checked_lists(n, color_space, rows, [defects.get(v, 0) for v in range(n)])

    h, q = budget.h, budget.q
    log_q = q.bit_length() - 1
    params = ConflictParams(
        h=h, color_space_size=len(color_space), m=graph.m, g=0, scale_override=config.scale_override
    )
    tau, tau_prime = params.tau, params.tau_prime
    space_size = len(color_space)
    outdeg = list(map(len, graph.out_neighbors))
    beta_max = max(1, max(outdeg, default=1))

    same_class: dict[int, int] = {}  # v -> out-neighbors in v's class
    by_class: dict[int, list[int]] = {}
    for v in machinery:
        i, d = classes[v], defects[v]
        by_class.setdefault(i, []).append(v)
        per_class: dict[int, int] = {}
        for u in graph.out_neighbors[v]:
            if u in classes:
                per_class[classes[u]] = per_class.get(classes[u], 0) + 1
        b_same = same_class[v] = per_class.get(i, 0)
        beta_v = max(1, outdeg[v])
        if 4 * max(b_same * q, beta_v) > (d + 1) * (1 << i) * q:
            raise NodeFailure(
                f"class budget invariant fails: beta_same={b_same} beta={beta_v} "
                f"q={q} d={d} class={i}",
                node=v,
            )
        tail = sum(per_class.get(j, 0) * (1 << j) for j in range(max(1, i - log_q), i))
        need = (config.alpha * 4**i + 4 * tail / (d + 1)) * tau
        if len(lists[v]) < need:
            raise ListTooSmall(
                f"node {v}: |L|={len(lists[v])} < {need:.1f} under the two-phase condition"
            )

    # Each step is one broadcast round.  Broadcast reaches every
    # neighbor, so what v received from an out-neighbor u is what u sent:
    # between rounds v reads only its out-neighbors' entries of these.
    # Decided colors go out first so every budget sees them.
    traces: list[RoundTrace] = []

    def send(sent):  # a BudgetViolation names the round of the composed run
        traces.append(broadcast(graph, sent, 1 + sum(t.rounds_elapsed for t in traces)))

    decided_msgs = {
        v: {"decided": ColorListField((c,), space_size)} for v, c in predecided.items()
    }
    send(decided_msgs)
    sent_colors = {u: msg["decided"].colors[0] for u, msg in decided_msgs.items()}
    sent_csets: dict[int, int] = {}  # u -> color_mask(C_u)

    # Phase I, ascending classes
    csets: dict[int, tuple[int, ...]] = {}
    for i, members in sorted(by_class.items()):
        type_msgs = {}
        for v in members:
            d = defects[v]
            # so far only the lower classes have sent their sets
            lower = [sent_csets[u] for u in graph.out_neighbors[v] if u in sent_csets]
            # a color is bad when over d/4 lower-class candidate sets claim it
            keep = tuple(x for x in lists[v] if 4 * sum(m_u >> x & 1 for m_u in lower) <= d)
            k_i = (1 << i) * tau
            if len(keep) < k_i:
                raise ListTooSmall(
                    f"node {v}: pruned list of {len(keep)} cannot host sets of size {k_i}"
                )
            # in-class P2: broadcast types, then assign via a fresh table
            type_msgs[v] = _type_message(graph, params, beta_max, v, keep, d, i)
        send(type_msgs)
        _, families, fam_masks = _read_types(type_msgs, params, i)
        cset_msgs = {}
        for v in members:
            d, b_same = defects[v], same_class[v]
            fam = families[v]
            peer_masks = [fam_masks[u] for u in graph.out_neighbors[v] if u in fam_masks]
            best_idx, best_d = least_conflicting(fam_masks[v], peer_masks, tau, 0)
            if best_d * len(fam) > b_same * (tau_prime - 1):
                raise NodeFailure(
                    f"phase-I pigeonhole failed: {best_d} over family of {len(fam)}", node=v
                )
            if 4 * b_same * (tau_prime - 1) >= (d + 1) * len(fam):
                raise NodeFailure(
                    f"phase-I average bound fails: beta_same={b_same} |K|={len(fam)}", node=v
                )
            csets[v] = fam[best_idx]
            cset_msgs[v] = {"cset": IndexField(best_idx, len(fam))}
        send(cset_msgs)
        sent_csets.update((u, fam_masks[u][msg["cset"].index]) for u, msg in cset_msgs.items())

    # Phase II, descending classes
    audit: dict[int, tuple[int, int, int]] = {}  # v -> (lower hits, ignored, star frequency)
    for i, members in sorted(by_class.items(), reverse=True):
        color_msgs = {}
        for v in members:
            d, outs = defects[v], graph.out_neighbors[v]
            c_v = (color_mask(csets[v]),)
            # same-class out-neighbors: C_u overlaps C_v in under tau colors
            # (star, counted in the multiset) or in tau or more (ignored)
            overlap = {
                u: proximity_count(c_v, sent_csets[u]) for u in outs if classes.get(u) == i
            }
            star = [u for u, o in overlap.items() if o < tau]
            ignored = len(overlap) - len(star)
            decided_hits = [sent_colors[u] for u in outs if u in sent_colors]
            multiset = len(decided_hits) + sum(overlap[u] for u in star)
            if 2 * multiset >= (1 << i) * (d + 1) * tau:
                raise NodeFailure(f"phase-II multiset bound fails: {multiset}", node=v)
            best_x, best_f = least_frequent(
                csets[v], [sent_csets[u] for u in star], decided_hits, 0
            )
            lower_hits = sum(
                sent_csets[u] >> best_x & 1 for u in outs if classes.get(u, h + 1) < i
            )
            audit[v] = (lower_hits, ignored, best_f)
            color_msgs[v] = {"color": ColorListField((best_x,), space_size)}
        send(color_msgs)
        sent_colors.update((u, msg["color"].colors[0]) for u, msg in color_msgs.items())

    output = ColoringOutput(tuple(sent_colors[v] for v in range(n)))
    trace = concat_traces(traces, output.colors)
    trace.audit = [(v, *audit.get(v, (0, 0, 0))) for v in range(n)]
    inst = _single_defect_instance(outdeg, color_space, lists, defects, predecided, 0)
    require_valid(graph, inst, output, "two-phase output invalid at")
    return output, trace

# -- lambda profiles and the full algorithm -------------------------------------


def _pow4_ceil(x: float) -> int:
    p = 1
    while p < x:
        p *= 4
    return p


@dataclass(frozen=True)
class LambdaProfile:
    """Per-node energy profile steering the class assignment.

    Buckets are keyed by mu with R_v / (rounded defect + 1)^2 = 4**mu;
    lam[mu] is 0 when the bucket holds under a 1/(2h) fraction of the
    energy and the power of four 4**floor(log4 share) otherwise.  The
    class candidates are the deduplicated values f(mu) = mu - r + 2
    within [1..h]; in Case II (some lam >= 1/4) a single bucket wins.
    """

    r_big: int                      # R_v, a power of four
    buckets: dict[int, tuple[int, ...]]
    energy: dict[int, int]
    total_energy: int
    lam: dict[int, Fraction]
    class_of_mu: dict[int, Optional[int]]
    case2: bool
    class_list: tuple[int, ...]
    deltas: dict[int, int]          # class -> delta budget
    mu_of_class: dict[int, int]

    def kept_lambda_sum(self) -> Fraction:
        return sum(
            (self.lam[mu] for mu, c in self.class_of_mu.items() if c is not None),
            Fraction(0),
        )


def lambda_profile(
    defects_by_color: Mapping[int, int],
    beta_v: int,
    h: int,
    alpha: int,
    taubar: int,
    hprime: int,
) -> LambdaProfile:
    """Build the energy profile of one node.

    ``alpha``, ``taubar`` and ``hprime`` must already be powers of four
    (beta_v is rounded up here), so R_v and every delta come out exact.
    """
    if not defects_by_color:
        raise InvalidInstance("empty list")
    beta_hat = _pow2_ceil(max(1, beta_v))
    r_big = alpha * beta_hat**2 * taubar * hprime**2
    s = r_big.bit_length() - 1  # r_big = 2**s, s even
    if r_big != 1 << s or s % 2:
        raise InvalidInstance("R_v must be a power of four")

    buckets: dict[int, list[int]] = {}
    for x, d in sorted(defects_by_color.items()):
        dhat1 = _pow2_floor(d + 1)
        mu = s // 2 - (dhat1.bit_length() - 1)
        buckets.setdefault(mu, []).append(x)
    energy = {
        mu: len(xs) * (r_big >> (2 * mu)) for mu, xs in buckets.items()
    }
    total = sum(energy.values())

    lam: dict[int, Fraction] = {}
    for mu, e in energy.items():
        if 2 * h * e < total:
            lam[mu] = Fraction(0)
        else:
            r = 0
            while e << (2 * r) < total:
                r += 1
            lam[mu] = Fraction(1, 1 << (2 * r))

    case2_mu = next((mu for mu in sorted(lam) if lam[mu] >= Fraction(1, 4)), None)
    class_of_mu: dict[int, Optional[int]] = {}
    deltas: dict[int, int] = {}
    mu_of_class: dict[int, int] = {}
    if case2_mu is not None:
        # classes start at 1; raising the class only weakens the budget bound
        cls = max(1, case2_mu)
        for mu in buckets:
            class_of_mu[mu] = cls if mu == case2_mu else None
        deltas[cls] = math.isqrt(r_big) // 4
        mu_of_class[cls] = case2_mu
    else:
        for mu in sorted(buckets):
            class_of_mu[mu] = None
            if lam[mu] == 0:
                continue
            r = (lam[mu].denominator.bit_length() - 1) // 2
            f = mu - r + 2
            if 1 <= f <= h and f not in deltas:
                class_of_mu[mu] = f
                deltas[f] = math.isqrt(r_big >> (2 * r))
                mu_of_class[f] = mu
    return LambdaProfile(
        r_big, {m: tuple(xs) for m, xs in buckets.items()}, energy, total,
        lam, class_of_mu, case2_mu is not None, tuple(sorted(deltas)), deltas, mu_of_class,
    )


@dataclass
class MainConfig:
    """Configuration of the full algorithm (powers of four enforced)."""

    alpha: float = 16.0
    tau_override: Optional[int] = None
    taubar_override: Optional[int] = None
    stage1_scale: Optional[tuple[int, int]] = None  # (tau, tau') of the class assignment
    stage2_scale: Optional[tuple[int, int]] = None  # (tau, tau') of the two-phase run


def main_oldc(
    graph: ColoredGraph,
    inst: LdcInstance,
    config: Optional[MainConfig] = None,
) -> tuple[ColoringOutput, RoundTrace]:
    """Full OLDC: lambda-profile class assignment, then the two-phase run.

    Requires per node sum (d_v(x)+1)^2 >= alpha^2 * beta_hat^2 * tau *
    taubar * h'^2 after rounding (checked as energy >= alpha * tau * R_v).
    Stage 1 solves the class-assignment OLDC (colors 1..h, proximity
    floor(log2 h)) with the basic algorithm; stage 2 hands the selected
    buckets to the two-phase algorithm.  Every stage is fail-fast.
    """
    config = config or MainConfig()
    # an override is unset only when None; 0 is a value, and out of range
    for name in ("tau_override", "taubar_override"):
        value = getattr(config, name)
        if value is not None and value < 1:
            raise InvalidInstance(f"{name} must be at least 1, got {value}")
    if graph.out_neighbors is None:
        raise MissingOrientation("main OLDC needs an orientation")
    if inst.flavor != FLAVOR_ORIENTED or inst.g != 0:
        raise InvalidInstance("main OLDC expects an oriented g=0 instance")
    n = graph.n

    outdeg = list(map(len, graph.out_neighbors))
    beta_hat_all = _pow2_ceil(max(1, max(outdeg, default=1)))
    h = max(1, beta_hat_all.bit_length() - 1)
    hprime = _pow4_ceil(max(1.0, math.log2(8 * h)))
    alpha = _pow4_ceil(config.alpha)
    tau, taubar = config.tau_override, config.taubar_override
    tau = _pow4_ceil(tau_of(h, len(inst.color_space), graph.m) if tau is None else tau)
    taubar = _pow4_ceil(tau_of(hprime, h, graph.m) if taubar is None else taubar)
    q = min(h, tau)
    g1 = max(0, h.bit_length() - 1)

    predecided: dict[int, int] = {}
    profiles: dict[int, LambdaProfile] = {}
    for v in range(n):
        first_cover = _first_cover(inst, v, outdeg[v])
        if first_cover is not None:
            predecided[v] = first_cover
            continue
        prof = lambda_profile(inst.defects[v], max(1, outdeg[v]), h, alpha, taubar, hprime)
        # solvability condition, in the exact form energy >= alpha * tau * R
        if prof.total_energy < alpha * tau * prof.r_big:
            raise ListTooSmall(
                f"node {v}: defect energy {prof.total_energy} below "
                f"alpha*tau*R = {alpha * tau * prof.r_big}"
            )
        if not prof.case2 and 20 * prof.kept_lambda_sum() < 1:
            raise NodeFailure(
                f"kept lambda mass {prof.kept_lambda_sum()} below 1/20", node=v
            )
        if not prof.class_list:
            raise NodeFailure("no admissible class for node", node=v)
        profiles[v] = prof

    machinery = sorted(profiles)
    h_eff = max([h] + [max(p.class_list) for p in profiles.values()])

    traces: list[RoundTrace] = []
    classes: dict[int, int] = {}
    if machinery:
        # stage 1: assign classes by solving an OLDC over the class space
        sub, keep = graph.subgraph(machinery)
        stage1_inst = LdcInstance.build(
            list(range(1, h_eff + 1)),
            [profiles[v].class_list for v in machinery],
            [
                {i: profiles[v].deltas[i] for i in profiles[v].class_list}
                for v in machinery
            ],
            flavor=FLAVOR_ORIENTED,
            g=g1,
        )
        stage1_cfg = OldcConfig(alpha=1.0, scale_override=config.stage1_scale)
        out1, tr1 = multi_defect_oldc(sub, stage1_inst, h=hprime, config=stage1_cfg)
        traces.append(tr1)
        classes = {keep[i]: out1.colors[i] for i in range(len(keep))}

    # stage 2: two-phase on the buckets picked by the class assignment
    lists2: list[tuple[int, ...]] = [()] * n
    defects2: dict[int, int] = {}
    for v in machinery:
        prof = profiles[v]
        mu_v = prof.mu_of_class[classes[v]]
        lists2[v] = prof.buckets[mu_v]
        defects2[v] = math.isqrt(prof.r_big >> (2 * mu_v)) - 1
    for v, c in predecided.items():
        lists2[v] = (c,)

    budget = ClassBudget(
        classes=classes,
        defects=defects2,
        h=h_eff,
        q=q,
    )
    cfg2 = OldcConfig(alpha=config.alpha / 16, scale_override=config.stage2_scale)
    out2, tr2 = two_phase_oldc(
        graph, inst.color_space, lists2, budget, cfg2, predecided=predecided
    )
    traces.append(tr2)

    require_valid(graph, inst, out2, "main OLDC output invalid at")
    return out2, concat_traces(traces, out2.colors)
