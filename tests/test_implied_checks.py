"""Bounds the OLDC routines do not check at run time, shown implied.

Each inequality below once had its own NodeFailure in ``oldc_basic`` or
``oldc_main``.  Each follows by arithmetic from a check the routine still
makes, so it could never fire.  A test draws the quantities, assumes the
kept checks pass, and asserts the inequality that is no longer checked.
"""

from hypothesis import assume, given
from hypothesis import strategies as st

from listdefect.conflict import (
    color_mask, least_conflicting, least_frequent, masks_conflict, proximity_count, shifted_masks,
)

SETS = st.frozensets(st.integers(0, 15), min_size=1, max_size=4).map(color_mask)
H = 4  # the top class of the two-phase draws


@given(st.data())
def test_a_sent_set_that_conflicts_was_counted_by_the_p1_choice(data):
    # round 2 counts u once when any member of K_u conflicts with C_v,
    # and the C_u that u sends is a member of K_u
    g, tau = data.draw(st.integers(0, 1)), data.draw(st.integers(1, 3))
    own = data.draw(st.lists(SETS, min_size=1, max_size=4))
    peers = data.draw(st.lists(st.lists(SETS, min_size=1, max_size=4), max_size=6))
    idx, best = least_conflicting(own, peers, tau, g)
    sent = [data.draw(st.sampled_from(family)) for family in peers]
    shifted = shifted_masks(own[idx], g)
    assert sum(masks_conflict(shifted, m_u, tau) for m_u in sent) <= best


@given(st.integers(1, 16), st.integers(1, 16), st.integers(1, 16), st.integers(0, 128),
       st.data())
def test_round_two_checks_imply_p1(family, beta, tau_prime, d, data):
    # was "P1 violated" in oldc_basic's first color round
    # P1 pigeonhole, as drawn: best * |K| <= beta (tau' - 1)
    best = data.draw(st.integers(0, beta * (tau_prime - 1) // family))
    conflicts = data.draw(st.integers(0, best))  # by the test above
    assume(2 * beta * (tau_prime - 1) < (d + 1) * family)  # family size
    assert 2 * conflicts <= d


@given(st.lists(SETS, max_size=8), st.frozensets(st.integers(0, 15)), st.integers(0, 40))
def test_bad_colors_obey_markov(lower, colors, d):
    # was "bad-color bound violated" in oldc_main's phase I: no check
    # is assumed, each bad color lies in floor(d/4) + 1 or more sets
    bad = [x for x in colors if 4 * sum(m_u >> x & 1 for m_u in lower) > d]
    assert len(bad) * (d + 1) <= 4 * sum(m_u.bit_count() for m_u in lower)


@given(st.integers(1, 16), st.integers(0, 16), st.integers(1, 16), st.integers(0, 128),
       st.data())
def test_phase_one_checks_imply_the_selection_bound(family, b_same, tau_prime, d, data):
    # was "phase-I selection exceeds d/4"
    # phase-I pigeonhole, as drawn: best * |K| <= beta_same (tau' - 1)
    best = data.draw(st.integers(0, b_same * (tau_prime - 1) // family))
    assume(4 * b_same * (tau_prime - 1) < (d + 1) * family)  # average bound
    assert 4 * best <= d


@given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 15), st.data())
def test_phase_two_multiset_bound_implies_the_frequency_bound(i, tau, d, data):
    # was "phase-II frequency bound fails": f summed over C_v is at most
    # the multiset, and |C_v| = 2**i * tau
    c_v = data.draw(st.lists(st.integers(0, 15), min_size=(1 << i) * tau,
                             max_size=(1 << i) * tau, unique=True))
    near = st.sampled_from(c_v) | st.integers(0, 15)  # colors that often hit C_v
    star = data.draw(st.lists(st.frozensets(near, min_size=1).map(color_mask), max_size=8))
    decided = data.draw(st.lists(near, max_size=12))
    multiset = len(decided) + sum(proximity_count((color_mask(c_v),), m_u) for m_u in star)
    assume(2 * multiset < (1 << i) * (d + 1) * tau)  # phase-II multiset bound
    _, best_f = least_frequent(c_v, star, decided, 0)
    assert 2 * best_f <= d


@given(st.integers(1, H), st.lists(st.tuples(st.none() | st.integers(1, H), SETS), max_size=8),
       st.frozensets(st.integers(0, 15), min_size=1), st.integers(0, 15), st.data())
def test_a_pruned_color_meets_the_lower_class_budget(i, outs, colors, d, data):
    # was "lower-class budget exceeded": phase I prunes v's list against
    # the sets sent before class i, in ascending class order; phase II
    # counts the out-neighbors of class below i (None is predecided)
    sent = []
    for j in sorted({j for j, _ in outs if j is not None} | {i}):
        if j == i:
            keep = [x for x in colors if 4 * sum(m_u >> x & 1 for m_u in sent) <= d]
        sent += [m_u for k, m_u in outs if k == j]
    assume(keep)
    best_x = data.draw(st.sampled_from(keep))  # in C_v, inside the pruned list
    lower_hits = sum(m_u >> best_x & 1 for k, m_u in outs if (k or H + 1) < i)
    assert 4 * lower_hits <= d
