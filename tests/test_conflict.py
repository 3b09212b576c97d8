import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listdefect import (
    CapExceeded,
    ConflictParams,
    GreedyExhausted,
    InvalidInstance,
    NodeType,
    build_type_table,
    residue_restrict,
    tau_g_conflict,
)
from listdefect.conflict import (
    TypeTable,
    _MemberIndex,
    color_mask,
    colex_combinations,
    masks_conflict,
    proximity_count,
    shifted_masks,
    tau_of,
    tau_prime_of,
)

from conftest import psi_g_member, verify_table


# -- pairwise references for the mask kernel --------------------------------------


def mu_g_ref(x, colors, g):
    """Number of colors in the set within distance g of x."""
    return sum(1 for c in colors if abs(x - c) <= g)


def tau_g_ref(c1, c2, tau, g):
    """The pairwise tau&g conflict: sum over x in c1 of mu_g(x, c2) >= tau."""
    return sum(mu_g_ref(x, c2, g) for x in c1) >= tau


def _near(x, colors, g):
    """mu_g(x, colors) through the mask kernel."""
    return proximity_count(shifted_masks(1 << x, g), color_mask(colors))


def test_mu_examples():
    for x, colors, g, want in [(5, {1, 4, 7, 10}, 2, 2), (9, {9}, 0, 1), (9, {8}, 0, 0), (9, (), 3, 0)]:
        assert mu_g_ref(x, colors, g) == want
        assert _near(x, colors, g) == want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 60), st.frozensets(st.integers(0, 60), max_size=10), st.integers(0, 4))
def test_single_color_kernel_matches_mu_g_ref(x, colors, g):
    assert _near(x, colors, g) == mu_g_ref(x, colors, g)


def test_tau_conflict_examples():
    assert tau_g_conflict((1, 4), (2, 8), tau=1, g=1)
    assert not tau_g_conflict((1, 2), (100, 200), tau=1, g=3)
    s = (4, 9, 16)
    assert tau_g_conflict(s, s, tau=len(s), g=0)


@settings(max_examples=200, deadline=None)
@given(
    st.frozensets(st.integers(0, 30), max_size=6),
    st.frozensets(st.integers(0, 30), max_size=6),
    st.integers(1, 5),
    st.integers(0, 3),
)
def test_tau_conflict_symmetric(c1, c2, tau, g):
    assert tau_g_conflict(tuple(c1), tuple(c2), tau, g) == tau_g_conflict(
        tuple(c2), tuple(c1), tau, g
    )


@settings(max_examples=400, deadline=None)
@given(
    st.frozensets(st.integers(0, 60), max_size=10),
    st.frozensets(st.integers(0, 60), max_size=10),
    st.integers(1, 12),
    st.integers(0, 4),
)
def test_mask_kernel_matches_tau_g_conflict(c1, c2, tau, g):
    """The shifted-AND popcount kernel and the public predicate decide
    exactly what the pairwise mu_g sum does."""
    m1, m2 = color_mask(c1), color_mask(c2)
    expected = tau_g_ref(c1, c2, tau, g)
    assert masks_conflict(shifted_masks(m1, g), m2, tau) == expected
    assert masks_conflict(shifted_masks(m2, g), m1, tau) == expected
    assert tau_g_conflict(tuple(c1), tuple(c2), tau, g) == expected
    assert tau_g_conflict(tuple(c2), tuple(c1), tau, g) == expected


def test_negative_color_is_an_invalid_instance():
    with pytest.raises(InvalidInstance):
        color_mask((3, -1))
    with pytest.raises(InvalidInstance):
        tau_g_conflict((1, 2), (-2, 5), tau=1, g=1)
    with pytest.raises(InvalidInstance):
        tau_g_conflict((-1,), (5,), tau=1, g=0)
    with pytest.raises(InvalidInstance):
        psi_g_member(((0, 1),), ((2, -3),), tau_prime=1, tau=1, g=0)
    with pytest.raises(InvalidInstance):
        psi_g_member(((-4, 1),), ((2, 3),), tau_prime=1, tau=1, g=0)


def test_psi_examples():
    k1 = ((1, 2), (3, 4))
    k2 = ((1, 5), (2, 6))
    assert not psi_g_member(k1, k2, tau_prime=2, tau=1, g=0)
    assert psi_g_member(k1, k2, tau_prime=1, tau=1, g=0)
    assert not psi_g_member(k1, (), tau_prime=1, tau=1, g=0)


def test_psi_with_intersections_for_g0():
    # within one residue class and g=0, conflict is just |C1 cap C2| >= tau
    k1 = ((0, 3), (3, 6), (6, 9))
    k2 = ((3, 9), (0, 6))
    for tau in (1, 2):
        expected_members = sum(
            1
            for c1 in k1
            if any(len(set(c1) & set(c2)) >= tau for c2 in k2)
        )
        for tp in (1, 2, 3):
            assert psi_g_member(k1, k2, tp, tau, 0) == (expected_members >= tp)


@settings(max_examples=120, deadline=None)
@given(
    st.frozensets(st.integers(0, 40), min_size=1, max_size=6),
    st.frozensets(st.integers(0, 40), min_size=1, max_size=6),
    st.integers(1, 4),
    st.integers(0, 2),
)
def test_same_residue_g_conflict_is_intersection(c1, c2, tau, g):
    """Within one residue class mod 2g+1, the g-conflict is an intersection test."""
    mod = 2 * g + 1
    a = mod * 3  # spread colors so distinct ones are > 2g apart
    r1 = tuple(sorted(x * a for x in c1))
    r2 = tuple(sorted(x * a for x in c2))
    assert tau_g_conflict(r1, r2, tau, g) == (len(set(r1) & set(r2)) >= tau)


def test_residue_restrict_examples():
    assert residue_restrict([3, 5, 8, 10, 13], 1) == (1, (10, 13))
    assert residue_restrict([4, 7, 9], 0) == (0, (4, 7, 9))
    assert residue_restrict([11], 2) == (1, (11,))
    a, kept = residue_restrict(list(range(17)), 2)
    assert len(kept) >= 17 // 5


def _comb0(n, k):
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def bound_d1_d2(k, ell, k_prime, tau, tau_prime):
    """Exact conflict-degree bounds d1 and d2 as big integers.

        d1 = C(k, tau) * C(ell - tau, k - tau)
        d2 = 4 * C(k' * d1, tau') * C(C(ell, k) - tau', k' - tau')

    Binomials with out-of-range arguments count as 0.
    """
    d1 = _comb0(k, tau) * _comb0(ell - tau, k - tau)
    d2 = 4 * _comb0(k_prime * d1, tau_prime) * _comb0(_comb0(ell, k) - tau_prime, k_prime - tau_prime)
    return d1, d2


def test_bound_d1_d2_examples():
    assert bound_d1_d2(k=2, ell=4, k_prime=1, tau=1, tau_prime=1) == (6, 24)
    assert bound_d1_d2(k=2, ell=4, k_prime=1, tau=3, tau_prime=1)[0] == 0
    d1, d2 = bound_d1_d2(k=3, ell=9, k_prime=2, tau=2, tau_prime=1)
    assert d1 == 3 * 7  # C(3,2) * C(7,1)
    assert d2 == 4 * (2 * d1) * (len(list(itertools.combinations(range(9), 3))) - 1)


def test_tau_formula_values():
    assert tau_of(1, 16, 16) == 32
    assert tau_prime_of(1, 16, 16) == 2**27
    p = ConflictParams(h=1, color_space_size=16, m=16)
    assert (p.tau, p.tau_prime) == (32, 2**27)
    q = ConflictParams(h=2, color_space_size=4, m=4, scale_override=(3, 5))
    assert (q.tau, q.tau_prime) == (3, 5)
    with pytest.raises(Exception):
        ConflictParams(h=1, color_space_size=4, m=4, scale_override=(2, 100))


def test_colex_order():
    got = list(colex_combinations(4, 2))
    assert got == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert list(colex_combinations(3, 0)) == [()]
    assert list(colex_combinations(2, 3)) == []


def _recursive_colex(n, k):
    """Reference: the recursive colex generator, one level per member."""
    if k == 0:
        yield ()
        return
    if k > n:
        return
    for top in range(k - 1, n):
        for rest in _recursive_colex(top, k - 1):
            yield rest + (top,)


def test_colex_order_matches_the_recursive_generator():
    for n in range(10):
        for k in range(n + 2):
            got = list(colex_combinations(n, k))
            assert got == list(_recursive_colex(n, k)), (n, k)
            assert len(got) == math.comb(n, k)


def test_candidate_sets_larger_than_the_recursion_limit():
    # C(1025, 1024) = 1025 candidate sets of 1024 members each
    params = ConflictParams(h=1, color_space_size=2048, m=2, scale_override=(2, 2))
    table = build_type_table(params, [NodeType(0, tuple(range(1025)), 1)], {1: 1024}, 2)
    assert table.families[0][0] == tuple(range(1024))
    assert all(len(c) == 1024 for c in table.families[0])
    assert verify_table(table)


def _table_params(g=0):
    return ConflictParams(h=1, color_space_size=10, m=4, g=g, scale_override=(2, 2))


def test_single_type_gets_first_family():
    params = _table_params()
    t = NodeType(0, (1, 3, 5, 7), 1)
    table = build_type_table(params, [t], {1: 2}, 2)
    # colex: members (1,3),(1,5),(3,5),... first 2-member family is the
    # first colex pair of members
    assert table.families[0] == ((1, 3), (1, 5))
    assert verify_table(table)


def test_family_larger_than_the_recursion_limit():
    # unscaled tau' admits the family of all C(66, 64) = 2145 candidate sets,
    # one search level per member
    params = ConflictParams(h=1, color_space_size=80, m=2)
    table = build_type_table(
        params, [NodeType(0, tuple(range(66)), 1)], {1: 64}, tau_prime_of(1, 80, 2)
    )
    assert table.families == (tuple(colex_combinations(66, 64)),)


def test_disjoint_types_never_conflict():
    params = _table_params()
    t1 = NodeType(0, (0, 2, 4, 6), 1)
    t2 = NodeType(1, (1, 3, 5, 7), 1)
    table = build_type_table(params, [t1, t2], {1: 2}, 2)
    assert verify_table(table)
    assert not psi_g_member(table.families[0], table.families[1], 2, 2, 0)


def test_two_element_lists_single_member_families():
    # k = |list| leaves one candidate set; the family is capped there
    params = _table_params()
    types = [NodeType(c, (a, a + 2), 1) for c, a in [(0, 0), (1, 4), (0, 6), (1, 1)]]
    table = build_type_table(params, types, {1: 2}, 2)
    assert all(len(f) == 1 for f in table.families)
    assert verify_table(table)


def test_greedy_exhausts_when_family_impossible():
    params = _table_params()
    with pytest.raises(GreedyExhausted):
        build_type_table(params, [NodeType(0, (1, 2), 1)], {1: 3}, 2)


def test_cap_exceeded():
    params = ConflictParams(h=1, color_space_size=40, m=2, g=0, scale_override=(2, 2))
    t = NodeType(0, tuple(range(30)), 1)
    with pytest.raises(CapExceeded):
        build_type_table(params, [t], {1: 10}, 4, candidate_cap=1000)


def test_table_determinism_and_order_independence():
    params = ConflictParams(h=1, color_space_size=15, m=2, g=1, scale_override=(2, 2))
    types = []
    for c in range(2):
        for base in (0, 3, 6):
            types.append(NodeType(c, tuple(range(base, base + 9, 3)), 1))
    table = build_type_table(params, types, {1: 2}, 2)
    rng = random.Random(0)
    for _ in range(3):
        shuffled = types[:]
        rng.shuffle(shuffled)
        again = build_type_table(params, shuffled, {1: 2}, 2)
        assert again.to_bytes() == table.to_bytes()
    assert verify_table(table)


def test_family_of_lookup():
    params = _table_params()
    t1 = NodeType(0, (0, 2, 4, 6), 1)
    t2 = NodeType(1, (1, 3, 5, 7), 1)
    table = build_type_table(params, [t2, t1], {1: 2}, 2)
    for t, fam in zip(table.types, table.families):
        assert table.family_of(NodeType(t.init_color, tuple(t.restricted_list), t.gamma_class)) == fam
    with pytest.raises(ValueError):
        table.family_of(NodeType(2, (0, 2, 4, 6), 1))
    again = TypeTable(params, table.types, table.families)
    assert again == table and hash(again) == hash(table)
    with pytest.raises(AttributeError):
        table.types = ()


# -- the pruned search against the flat colex scan ------------------------------


def _flat_scan_table(params, types, k_by_class, k_prime, candidate_cap=200_000):
    """Reference: scan every candidate family in colex order and test it
    against every assigned family with psi_g_member.  Returns the table and
    the colex rank of each chosen family."""
    tau, tp, g = params.tau, params.tau_prime, params.g
    assigned, ranks = [], []
    for t in sorted(set(types), key=NodeType.sort_key):
        k_i = k_by_class[t.gamma_class]
        if k_i < 1 or k_i > len(t.restricted_list):
            raise GreedyExhausted("no candidate sets")
        members = [
            tuple(t.restricted_list[i] for i in idx)
            for idx in colex_combinations(len(t.restricted_list), k_i)
        ]
        if len(members) > candidate_cap:
            raise CapExceeded("too many candidate sets")
        fam_size = min(k_prime, len(members))
        if fam_size < 1:
            raise GreedyExhausted("no family")
        for rank, idx in enumerate(colex_combinations(len(members), fam_size)):
            if rank >= candidate_cap:
                raise CapExceeded("too many candidate families")
            fam = tuple(members[i] for i in idx)
            if not any(
                (prev.gamma_class <= t.gamma_class and psi_g_member(fam, pf, tp, tau, g))
                or (t.gamma_class <= prev.gamma_class and psi_g_member(pf, fam, tp, tau, g))
                for prev, pf in assigned
            ):
                break
        else:
            raise GreedyExhausted("no conflict-free family")
        assigned.append((t, fam))
        ranks.append(rank)
    table = TypeTable(params, tuple(t for t, _ in assigned), tuple(f for _, f in assigned))
    return table, ranks


def _outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except (CapExceeded, GreedyExhausted) as exc:
        return type(exc)


@st.composite
def _table_inputs(draw):
    g = draw(st.integers(0, 2))
    tau = draw(st.integers(1, 3))
    tp = draw(st.integers(1, 3 if tau > 1 else 2))
    classes = draw(st.sampled_from([(1,), (1, 2)]))
    k_by_class = {c: draw(st.integers(1, 3)) for c in classes}
    k_prime = draw(st.integers(1, 4))
    types = draw(
        st.lists(
            st.builds(
                NodeType,
                st.integers(0, 2),
                st.lists(st.integers(0, 15), min_size=1, max_size=6, unique=True).map(
                    lambda l: tuple(sorted(l))
                ),
                st.sampled_from(classes),
            ),
            min_size=1,
            max_size=5,
        )
    )
    cap = draw(st.one_of(st.integers(1, 60), st.just(10_000)))
    params = ConflictParams(h=1, color_space_size=16, m=3, g=g, scale_override=(tau, tp))
    return params, types, k_by_class, k_prime, cap


@settings(max_examples=400, deadline=None)
@given(_table_inputs())
def test_pruned_search_matches_flat_scan(case):
    params, types, k_by_class, k_prime, cap = case
    got = _outcome(build_type_table, params, types, k_by_class, k_prime, candidate_cap=cap)
    want = _outcome(_flat_scan_table, params, types, k_by_class, k_prime, candidate_cap=cap)
    if isinstance(want, tuple):
        assert isinstance(got, TypeTable)
        assert got.to_bytes() == want[0].to_bytes()
        assert verify_table(got)
    else:
        assert got is want


def test_cap_boundary_is_the_colex_rank():
    # with tau' = 1 no later family may share a candidate set with an
    # earlier one, so the third type's first valid family sits at rank 14,
    # beyond its 10 candidate sets
    params = ConflictParams(h=1, color_space_size=10, m=4, g=0, scale_override=(2, 1))
    types = [NodeType(c, (0, 1, 2, 3, 4), 1) for c in range(3)]
    want, ranks = _flat_scan_table(params, types, {1: 2}, 2)
    rank = max(ranks)
    assert rank == 14 and rank > math.comb(5, 2)
    with pytest.raises(CapExceeded):
        build_type_table(params, types, {1: 2}, 2, candidate_cap=rank)
    got = build_type_table(params, types, {1: 2}, 2, candidate_cap=rank + 1)
    assert got.to_bytes() == want.to_bytes()


def test_repeated_color_in_restricted_list_rejected():
    with pytest.raises(InvalidInstance):
        build_type_table(_table_params(g=1), [NodeType(0, (1, 1, 4), 1)], {1: 2}, 2)


def test_class_without_a_candidate_set_size_rejected():
    params = ConflictParams(h=1, color_space_size=16, m=2, scale_override=(2, 2))
    with pytest.raises(InvalidInstance):
        build_type_table(params, [NodeType(0, (1, 2, 3), 2)], {1: 2}, 2)


def test_negative_color_in_restricted_list_rejected():
    with pytest.raises(InvalidInstance):
        build_type_table(_table_params(), [NodeType(0, (-1, 2, 3), 1)], {1: 2}, 2)


# -- the column-index kernel against the per-member loop ------------------------


def _member_hits(mask, assigned_masks, tau, g):
    """Reference: the per-member loop the column index replaced.  Tests one
    candidate set, by color mask, against every member of every assigned
    family and returns (j, bitmask over family j's members) for every
    family j with a hit."""
    shifted = shifted_masks(mask, g)
    hits = []
    for j, fam_masks in enumerate(assigned_masks):
        r = 0
        for b, m2 in enumerate(fam_masks):
            if proximity_count(shifted, m2) >= tau:
                r |= 1 << b
        if r:
            hits.append((j, r))
    return hits


@st.composite
def _kernel_inputs(draw):
    """Colors up to 300 above a smallest color far from 0, a flat index of
    70 to 120 members, and candidate sets whose colors lie within g of the
    smallest one, among the assigned colors or beyond all of them."""
    g = draw(st.integers(0, 2))
    low = draw(st.integers(150, 200))
    rng = random.Random(draw(st.integers(0, 2**32)))
    sizes = [rng.randint(7, 12) for _ in range(10)]
    while sum(sizes) > 120:
        sizes.pop()
    families = [
        [sorted(rng.sample(range(low, low + 51), rng.randint(1, 6))) for _ in range(size)]
        for size in sizes
    ]
    colors = st.one_of(
        st.integers(low - g, low + g), st.integers(low, low + 50), st.integers(low + 51, 300)
    )
    lst = draw(st.lists(colors, min_size=1, max_size=7, unique=True).map(sorted))
    k = draw(st.integers(1, len(lst)))
    top = k * (2 * g + 1)
    tau = draw(st.one_of(st.integers(1, min(top, 4)), st.integers(top + 1, top + 8)))
    return families, lst, k, g, tau


@settings(max_examples=300, deadline=None)
@given(_kernel_inputs())
def test_column_index_rows_match_the_member_loop(case):
    families, lst, k, g, tau = case
    index = _MemberIndex()
    for j, fam in enumerate(families):
        index.add_family(j, fam)
    assert len(index.owner) > 64
    assigned_masks = [tuple(color_mask(m) for m in fam) for fam in families]
    got = index.candidate_rows(lst, k, g, tau)
    for want_idx, (idx, rows) in zip(colex_combinations(len(lst), k), itertools.islice(got, 40)):
        assert idx == want_idx
        mask = color_mask(lst[x] for x in idx)
        assert rows == _member_hits(mask, assigned_masks, tau, g)
        if tau > k * (2 * g + 1):
            assert rows == []
