"""Conflict predicates, residue restriction and the greedy type table.

This is the zero-communication core: two candidate color sets conflict
when enough of their colors are within distance g of each other, a family
K_1 conflicts with a family K_2 when enough members of K_1 individually
conflict, and the type table greedily assigns a conflict-free family to
every node type (initial color, restricted list, class).

Threshold parameters follow

    tau(h, C, m)  = ceil(8h + 2 log2 log2 |C| + 2 log2 log2 m + 16)
    tau'(h, C, m) = 2 ** (tau - ceil(2h + log2(2e)))

which are astronomically large even for tiny inputs (h=1, |C|=16, m=16
already gives tau=32 and tau'=2**27), so a scale_override pair is a
first-class configuration and GreedyExhausted is a legitimate outcome of
down-scaled runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CapExceeded, GreedyExhausted, InvalidInstance


def _loglog2(x: int) -> float:
    # log2 log2 x, clamped at 0 for degenerate palettes
    if x < 2:
        return 0.0
    inner = math.log2(x)
    return max(0.0, math.log2(inner)) if inner >= 1 else 0.0


def tau_of(h: int, space_size: int, m: int) -> int:
    return math.ceil(8 * h + 2 * _loglog2(space_size) + 2 * _loglog2(m) + 16)


def tau_prime_of(h: int, space_size: int, m: int) -> int:
    t = tau_of(h, space_size, m)
    return 2 ** (t - math.ceil(2 * h + math.log2(2 * math.e)))


@dataclass(frozen=True)
class ConflictParams:
    """tau/tau' and the shared dimensions they are computed from.

    ``scale_override`` replaces the derived pair by an explicit (tau, tau')
    for down-scaled runs; both must be >= 1 and tau' <= 2**tau.
    """

    h: int
    color_space_size: int
    m: int
    g: int = 0
    scale_override: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.h < 1 or self.m < 1 or self.color_space_size < 1 or self.g < 0:
            raise InvalidInstance("bad conflict parameters")
        if self.scale_override is not None:
            t, tp = self.scale_override
            if t < 1 or tp < 1 or tp > 2**t:
                raise InvalidInstance("override must satisfy 1 <= tau' <= 2**tau")

    @property
    def tau(self) -> int:
        if self.scale_override is not None:
            return self.scale_override[0]
        return tau_of(self.h, self.color_space_size, self.m)

    @property
    def tau_prime(self) -> int:
        if self.scale_override is not None:
            return self.scale_override[1]
        return tau_prime_of(self.h, self.color_space_size, self.m)


# -- conflict predicates -----------------------------------------------------


def color_mask(colors: Iterable[int]) -> int:
    """Bitmask of a color set: bit c set for every color c."""
    mask = 0
    try:
        for c in colors:
            mask |= 1 << c
    except ValueError:  # a negative shift count
        raise InvalidInstance("colors must be nonnegative integers") from None
    return mask


def shifted_masks(mask: int, g: int) -> list[int]:
    """shift(mask, d) for d = 0..g, then d = -1..-g."""
    return [mask << d for d in range(g + 1)] + [mask >> d for d in range(1, g + 1)]


def proximity_count(shifted: Sequence[int], mask2: int) -> int:
    """Pairs (x, y) in c1 x c2 with |x - y| <= g, from shifted_masks(mask
    of c1, g) and the mask of c2: sum_{d=-g..g} popcount(shift(c1, d) & c2).

    This is the one conflict kernel; a single color x is the set {x}.
    """
    return sum((s & mask2).bit_count() for s in shifted)


def masks_conflict(shifted: Sequence[int], mask2: int, tau: int) -> bool:
    """Whether the color sets behind the two masks tau&g-conflict."""
    return proximity_count(shifted, mask2) >= tau


def tau_g_conflict(c1: Iterable[int], c2: Iterable[int], tau: int, g: int) -> bool:
    """Whether at least tau pairs of colors (x in c1, y in c2) have
    |x - y| <= g.  Symmetric in (c1, c2)."""
    return masks_conflict(shifted_masks(color_mask(c1), g), color_mask(c2), tau)


def least_conflicting(
    masks: Sequence[int], peer_families: Sequence[Sequence[int]], tau: int, g: int
) -> tuple[int, int]:
    """The P1 choice: the candidate set, by mask, that tau&g-conflicts
    with the fewest peer families, a peer counting once when any of its
    members conflicts.  Returns (index, count) of the first minimum."""
    best_idx, best_count = 0, None
    for idx, mask in enumerate(masks):
        shifted = shifted_masks(mask, g)
        count = sum(
            1 for fam in peer_families if any(masks_conflict(shifted, m2, tau) for m2 in fam)
        )
        if best_count is None or count < best_count:
            best_idx, best_count = idx, count
            if count == 0:
                break
    return best_idx, best_count


def least_frequent(
    colors: Sequence[int], masks: Sequence[int], decided: Sequence[int], g: int
) -> tuple[Optional[int], Optional[int]]:
    """The frequency choice: the color x of ``colors`` with the fewest
    colors within distance g of it, counted over the sets behind
    ``masks`` and the ``decided`` colors.  Returns (color, count) of the
    first minimum, or (None, None) when ``colors`` is empty."""
    best_x, best_f = None, None
    for x in colors:
        near_x = shifted_masks(1 << x, g)
        f = sum(proximity_count(near_x, m) for m in masks)
        f += sum(1 for c in decided if abs(c - x) <= g)
        if best_f is None or f < best_f:
            best_x, best_f = x, f
    return best_x, best_f


def residue_restrict(colors: Sequence[int], g: int) -> tuple[int, tuple[int, ...]]:
    """Largest residue class of the list modulo 2g+1.

    Returns (a*, restricted list) where a* maximizes |L^a| with ties going
    to the smallest residue.  The restricted list keeps at least
    |L|/(2g+1) colors, and any two of its colors are more than 2g apart.
    """
    if g == 0:  # modulo 1 is one class: the sorted list
        return 0, tuple(sorted(colors))
    mod = 2 * g + 1
    buckets: dict[int, list[int]] = {}
    for c in sorted(colors):
        buckets.setdefault(c % mod, []).append(c)
    if not buckets:
        return 0, ()
    best = max(buckets, key=lambda a: (len(buckets[a]), -a))
    return best, tuple(buckets[best])


# -- node types and the greedy table ------------------------------------------


@dataclass(frozen=True)
class NodeType:
    """(initial color, residue-restricted list, gamma class).

    All colors of the restricted list are congruent modulo 2g+1; the class
    determines the candidate-set size k_i.
    """

    init_color: int
    restricted_list: tuple[int, ...]
    gamma_class: int

    def sort_key(self) -> tuple:
        return (len(self.restricted_list), self.init_color, self.restricted_list, self.gamma_class)


def colex_combinations(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Index k-subsets of range(n) in colexicographic order, lazily.

    Iterative, so k is not bounded by the recursion limit: the successor
    of a subset raises its lowest member that has room below the next
    member (or below n) and resets the members under it to 0, 1, ...
    """
    if k > n:
        return
    c = list(range(k)) + [n]
    while True:
        yield tuple(c[:k])
        i = 0
        while i < k and c[i] + 1 == c[i + 1]:
            i += 1
        if i == k:
            return
        c[i] += 1
        c[:i] = range(i)


@dataclass(frozen=True)
class TypeTable:
    """Zero-round P2: a conflict-free family K_i per node type.

    Invariant: for every pair of assigned types with
    gamma_class(j) <= gamma_class(i), (K_i, K_j) is not in Psi_g(tau', tau),
    that is, fewer than tau' members of K_i each tau&g-conflict with some
    member of K_j.
    """

    params: ConflictParams
    types: tuple[NodeType, ...]
    families: tuple[tuple[tuple[int, ...], ...], ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[NodeType, int] = {}
        for i, t in enumerate(self.types):
            index.setdefault(t, i)
        object.__setattr__(self, "_index", index)

    def family_of(self, t: NodeType) -> tuple[tuple[int, ...], ...]:
        i = self._index.get(t)
        if i is None:
            raise ValueError(f"{t} is not in the type table")
        return self.families[i]

    def to_bytes(self) -> bytes:
        doc = {
            "params": {
                "h": self.params.h,
                "space": self.params.color_space_size,
                "m": self.params.m,
                "g": self.params.g,
                "tau": self.params.tau,
                "tau_prime": self.params.tau_prime,
            },
            "types": [
                [t.init_color, list(t.restricted_list), t.gamma_class] for t in self.types
            ],
            "families": [[list(c) for c in fam] for fam in self.families],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _first_free_family(
    candidates: Iterator[tuple[tuple[int, ...], list[tuple[int, int]]]],
    fam_size: int,
    n_members: int,
    cap: int,
    fwd_limit: list[float],
    rev_limit: list[float],
) -> Optional[list[tuple[int, ...]]]:
    """The members of the colex-first family of rank < cap that stays below
    every limit, in family order; None when there is none.

    ``candidates`` yields each member with its (j, bitmask) hits, in member
    order; they are drawn only as far as the search reaches.  A prefix
    dies, with its whole subtree, once it hits family j with fwd_limit[j]
    members or its union of hit bitmasks reaches rev_limit[j] bits.
    """
    members: list[tuple[int, ...]] = []
    hits: list[Optional[list[tuple[int, int]]]] = []  # None: no free family holds it
    count = [0] * len(fwd_limit)
    union = [0] * len(rev_limit)
    comb = math.comb
    chosen: list[int] = []
    # per chosen member: the colex rank base of its level and its undo log
    frames: list[tuple[int, list[tuple[int, int, int]]]] = []
    # pick k more members from [lo, hi); the families under member `top`
    # start at colex rank base + C(top, k)
    k, lo, hi, base = fam_size, fam_size - 1, n_members, 0
    while True:
        found = False
        for top in range(lo, hi):
            start = base + comb(top, k)
            if start >= cap:
                break
            while top >= len(hits):
                member, rows = next(candidates)
                members.append(member)
                # a member that reaches a limit on its own is in no free family
                alone = any(fwd_limit[j] <= 1 or m.bit_count() >= rev_limit[j] for j, m in rows)
                hits.append(None if alone else rows)
            rows = hits[top]
            if rows is None:
                continue
            undo = [] if rows else ()
            for j, mask in rows:
                c, u = count[j], union[j]
                undo.append((j, c, u))
                count[j] = c + 1
                union[j] = u | mask
                if c + 1 >= fwd_limit[j] or (u | mask).bit_count() >= rev_limit[j]:
                    break
            else:
                found = True
                break
            for j, c, u in undo:
                count[j] = c
                union[j] = u
        if found:
            chosen.append(top)
            if k == 1:
                return [members[i] for i in reversed(chosen)]
            frames.append((base, undo))
            k, lo, hi, base = k - 1, k - 2, top, start
            continue
        # nothing fits at this level: drop the last member, try its successors
        if not chosen:
            return None
        top = chosen.pop()
        base, undo = frames.pop()
        for j, c, u in undo:
            count[j] = c
            union[j] = u
        k, lo, hi = k + 1, top + 1, chosen[-1] if chosen else n_members


def _add_columns(planes: list[int], cols: Iterable[int]) -> list[int]:
    """Add each column, a set of members, to a bit-sliced binary counter
    (planes[i] holds bit i of every count); carries ripple up the planes."""
    for c in cols:
        for i, p in enumerate(planes):
            planes[i] = p ^ c
            c &= p
            if not c:
                break
        else:
            planes.append(c)
    return planes


class _MemberIndex:
    """Every member of every assigned family, one bit each in a flat index
    (families in assignment order, members in family order), and a column
    per color: the bits of the members that hold it."""

    def __init__(self):
        self.columns: dict[int, int] = {}
        self.owner: list[tuple[int, int, int]] = []  # bit -> (family, first bit, all-members mask)

    def add_family(self, j: int, family: Sequence[Sequence[int]]) -> None:
        first = len(self.owner)
        self.owner += [(j, first, (1 << len(family)) - 1)] * len(family)
        held: dict[int, int] = {}  # color -> the family's members holding it
        for b, member in enumerate(family):
            for c in member:
                held[c] = held.get(c, 0) | 1 << b
        for c, bits in held.items():
            self.columns[c] = self.columns.get(c, 0) | bits << first

    def candidate_rows(
        self, lst: Sequence[int], k: int, g: int, tau: int
    ) -> Iterator[tuple[tuple[int, ...], list[tuple[int, int]]]]:
        """Each k-subset of ``lst`` (list positions, colex order) with the
        members it tau&g-conflicts with, as (j, bitmask over family j's
        members) rows ascending in j.  A member's count is the number of
        columns within g of the set's colors that hold it.  A set that
        leaves out fewer than half as many colors as it holds takes their
        columns from the whole list's count instead: ~(~n + 1) == n - 1."""
        columns = self.columns
        near = [[columns[y] for y in range(c - g, c + g + 1) if y in columns] for c in lst]
        complement = 3 * k > 2 * len(lst)
        if complement:
            every = set(range(len(lst)))
            whole = [~p for p in _add_columns([], [c for cols in near for c in cols])]
        for idx in colex_combinations(len(lst), k):
            if complement:
                out = [c for x in every.difference(idx) for c in near[x]]
                planes = [~p for p in _add_columns(whole.copy(), out)]
            else:
                planes = _add_columns([], [c for x in idx for c in near[x]])
            # a count is >= tau iff it holds every 1-bit of tau, or a bit i
            # where tau has a 0 and every 1-bit of tau above i
            planes += [0] * (tau.bit_length() - len(planes))
            ones, hit = -1, 0  # ones: the counts holding tau's 1-bits so far
            for i in range(len(planes) - 1, -1, -1):
                if tau >> i & 1:
                    ones &= planes[i]
                else:
                    hit |= ones & planes[i]
            hit |= ones
            rows = []
            while hit:
                j, first, full = self.owner[(hit & -hit).bit_length() - 1]
                r = hit >> first & full
                rows.append((j, r))
                hit ^= r << first
            yield idx, rows


def build_type_table(
    params: ConflictParams,
    types: Sequence[NodeType],
    k_by_class: dict[int, int],
    k_prime: int,
    candidate_cap: int = 200_000,
) -> TypeTable:
    """Greedy conflict-free family assignment over the given types.

    Types are processed in nondecreasing restricted-list size (ties by
    initial color, then list).  For each type the candidate families are
    the k'-subsets of the k_i-subsets of its restricted list, ranked in
    colexicographic order, and the first family with no Psi_g conflict
    against any previously assigned type of comparable class is taken.
    The family size is capped at the number of available candidate sets,
    so degenerate scaled runs (e.g. k = |list|) still produce the single
    possible family.

    Every member of every assigned family owns one bit of a flat index,
    and a column index maps each color to the bitset of the members that
    hold it.  A candidate set's conflicts with all assigned members are
    computed once, by adding the columns of its colors' g-neighbors into
    a bit-sliced binary counter and keeping the members whose count
    reaches tau, as a bitmask over each family's members.  A family K
    conflicts with an earlier family F iff at least tau' members of K hit
    F (forward direction, checked when F's class is at most K's) or K hits
    at least tau' distinct members of F (reverse direction, checked when
    K's class is at most F's).

    The families are searched depth first in colex order: the largest
    member index is fixed first, then the next largest, and so on.  Both
    counts only grow as members are added, so a prefix that reaches tau'
    against some F is pruned with its whole subtree without skipping the
    first valid family.  The families under a prefix whose next member is
    ``top`` with k members still to pick start at colex rank
    base + C(top, k), so the search stops at rank ``candidate_cap``
    exactly where a flat scan of the first ``candidate_cap`` families
    would: the chosen family and the exception class are the same.

    Raises GreedyExhausted when no conflict-free family exists at the
    configured parameters and CapExceeded when a type has more than
    ``candidate_cap`` candidate sets, or more than ``candidate_cap``
    candidate families none of the first ``candidate_cap`` of which is
    conflict-free.  Raises InvalidInstance for a type whose class has no
    size in ``k_by_class`` and for a restricted list that repeats a color
    or holds a negative one.
    """
    tau, tp, g = params.tau, params.tau_prime, params.g
    order = sorted(set(types), key=NodeType.sort_key)
    for t in order:
        if t.gamma_class not in k_by_class:
            raise InvalidInstance(f"type {t} has a class with no candidate-set size")
        if len(set(t.restricted_list)) != len(t.restricted_list):
            raise InvalidInstance(f"restricted list of type {t} repeats a color")
        if t.restricted_list and min(t.restricted_list) < 0:
            raise InvalidInstance(f"restricted list of type {t} has a negative color")
    assigned: list[tuple[NodeType, tuple[tuple[int, ...], ...]]] = []
    index = _MemberIndex()
    for t in order:
        k_i = k_by_class[t.gamma_class]
        lst = t.restricted_list
        if k_i < 1 or k_i > len(lst):
            raise GreedyExhausted(f"type {t} cannot host candidate sets of size {k_i}")
        n_members = math.comb(len(lst), k_i)
        if n_members > candidate_cap:
            raise CapExceeded(f"{n_members} candidate sets for one type")
        fam_size = min(k_prime, n_members)
        if fam_size < 1:
            raise GreedyExhausted(f"type {t} admits no family")
        fwd_limit = [tp if prev.gamma_class <= t.gamma_class else math.inf for prev, _ in assigned]
        rev_limit = [tp if t.gamma_class <= prev.gamma_class else math.inf for prev, _ in assigned]
        chosen = _first_free_family(index.candidate_rows(lst, k_i, g, tau), fam_size,
                                    n_members, candidate_cap, fwd_limit, rev_limit)
        if chosen is None:
            if math.comb(n_members, fam_size) > candidate_cap:
                raise CapExceeded(
                    f"type-table enumeration exceeded {candidate_cap} candidates for one type"
                )
            raise GreedyExhausted(
                f"no conflict-free family for type {t} at tau={tau}, tau'={tp}"
            )
        family = tuple(tuple(lst[x] for x in member) for member in chosen)
        index.add_family(len(assigned), family)
        assigned.append((t, family))
    return TypeTable(
        params=params,
        types=tuple(t for t, _ in assigned),
        families=tuple(f for _, f in assigned),
    )


# bench/tracer.py's SPANNED table is this name's only reader; it goes in the
# first src/ change after the benchmark drops that span.
def build_or_load_type_table(params, types, k_by_class, k_prime) -> TypeTable:
    return build_type_table(params, types, k_by_class, k_prime)
