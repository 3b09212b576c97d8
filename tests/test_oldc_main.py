import random
from fractions import Fraction

import pytest

from listdefect import (
    BudgetViolation,
    ClassBudget,
    ColoredGraph,
    FailFast,
    LdcInstance,
    MainConfig,
    OldcConfig,
    RawField,
    lambda_profile,
    main_oldc,
    network,
    two_phase_oldc,
    validate_ldc,
)
from listdefect.errors import InvalidInstance, ListTooSmall, NodeFailure
from listdefect.runtime import broadcast

from conftest import random_dag

MAIN_SCALED = MainConfig(
    alpha=1, tau_override=1, taubar_override=1, stage1_scale=(2, 2), stage2_scale=(2, 2)
)


def test_lambda_single_bucket_case2():
    p = lambda_profile({0: 1, 1: 1, 2: 1}, beta_v=2, h=2, alpha=16, taubar=4, hprime=4)
    assert p.case2
    (lam,) = p.lam.values()
    assert lam == 1


def test_lambda_threshold_zero():
    # energies 4 and 13: 4/17 < 1/2 at h=1, so that bucket drops to zero
    defs = {0: 1} | {c: 0 for c in range(1, 14)}
    p = lambda_profile(defs, beta_v=2, h=1, alpha=16, taubar=4, hprime=4)
    shares = {mu: Fraction(e, p.total_energy) for mu, e in p.energy.items()}
    for mu, share in shares.items():
        if share < Fraction(1, 2):
            assert p.lam[mu] == 0


def test_lambda_point_six_floors_to_quarter():
    # energies 12 (three colors with rounded defect 2) vs 8 (eight with 1)
    defs = {c: 1 for c in range(3)} | {c: 0 for c in range(3, 11)}
    p = lambda_profile(defs, beta_v=2, h=2, alpha=16, taubar=4, hprime=4)
    shares = {mu: Fraction(e, p.total_energy) for mu, e in p.energy.items()}
    heavy = next(mu for mu, s in shares.items() if s == Fraction(3, 5))
    assert p.lam[heavy] == Fraction(1, 4)
    assert p.case2  # lambda >= 1/4 is the Case II boundary


def test_lambda_exact_powers():
    defs = {c: 3 for c in range(16)}
    p = lambda_profile(defs, beta_v=4, h=2, alpha=1, taubar=1, hprime=4)
    assert p.r_big == 1 * 16 * 1 * 16
    for cls, delta in p.deltas.items():
        lam = p.lam[p.mu_of_class[cls]]
        if not p.case2:
            assert delta * delta <= lam * p.r_big


def test_lambda_case1_gives_the_middle_buckets_their_classes():
    # five buckets of equal energy 256 at R_v = 256: each holds a fifth,
    # so every lambda is 1/16, below Case II's 1/4, and f(mu) = mu keeps
    # the buckets mu = 1..3 as classes 1..3
    sizes = [(256, 0), (64, 1), (16, 3), (4, 7), (1, 15)]
    defs, color = {}, 0
    for count, defect in sizes:
        for _ in range(count):
            defs[color] = defect
            color += 1
    p = lambda_profile(defs, beta_v=16, h=3, alpha=1, taubar=1, hprime=1)
    assert not p.case2
    assert p.class_list == (1, 2, 3)
    assert p.deltas == {1: 4, 2: 4, 3: 4}
    assert p.mu_of_class == {1: 1, 2: 2, 3: 3}
    assert p.kept_lambda_sum() == Fraction(3, 16)


def test_lambda_profile_rejects_an_odd_power_of_two():
    # alpha = 2 gives R_v = 2 * beta_hat**2 = 8, a power of two but not of four
    with pytest.raises(InvalidInstance, match="R_v must be a power of four"):
        lambda_profile({0: 1, 1: 0}, 2, 1, alpha=2, taubar=1, hprime=1)


def test_lambda_empty_list_rejected():
    with pytest.raises(InvalidInstance):
        lambda_profile({}, 1, 1, 1, 1, 1)


def _blocky_graph_and_lists(seed, n=12):
    """DAG with outdegree <= 2 and sparse 16-color lists over 256 colors."""
    g = random_dag(n, 2, 0.3, seed)
    rng = random.Random(seed)
    lists = [sorted(16 * b + rng.randrange(16) for b in range(16)) for _ in range(n)]
    return g, lists


def test_broadcast_segment_costs_one_round():
    path = ColoredGraph.build(3, [(0, 1), (1, 2)], init_colors=[0, 1, 0], m=2)
    msg = {"p": RawField(0, 5)}
    trace = broadcast(path, {1: msg})
    assert trace.max_message_bits == [5] and trace.rounds_elapsed == 1


def test_two_phase_budget_violation_names_the_round_of_the_run():
    # node 0 is predecided and sends its color in round 1 (5 bits); the
    # others send their types in round 2 (29 bits): round 2 is named, not
    # the first round of the type step
    graph = random_dag(6, 2, 0.6, 3)
    rng = random.Random(1)
    lists = [sorted(rng.sample(range(24), 12)) for _ in range(6)]
    budget = ClassBudget(
        classes={v: 1 for v in range(1, 6)}, defects={v: 3 for v in range(1, 6)}, h=1, q=1
    )
    config = OldcConfig(alpha=0.125, scale_override=(2, 2))
    predecided = {0: lists[0][0]}
    _, trace = two_phase_oldc(graph, range(24), lists, budget, config, predecided=predecided)
    assert trace.max_message_bits == [5, 29, 2, 5]
    with network(bits_per_message=10), pytest.raises(BudgetViolation) as exc:
        two_phase_oldc(graph, range(24), lists, budget, config, predecided=predecided)
    assert str(exc.value) == "message on edge (1, 0) in round 2 needs 29 bits, budget 10"
    assert exc.value.round_no == 2


def test_two_phase_single_class():
    g, lists = _blocky_graph_and_lists(seed=2)
    budget = ClassBudget(
        classes={v: 1 for v in range(g.n)},
        defects={v: 3 for v in range(g.n)},
        h=1,
        q=1,
    )
    cfg = OldcConfig(alpha=1.0, scale_override=(2, 2))
    out, trace = two_phase_oldc(g, list(range(256)), lists, budget, cfg)
    inst = LdcInstance.build(
        list(range(256)), lists, [{x: 3 for x in l} for l in lists], flavor="oriented"
    )
    assert validate_ldc(g, inst, out).valid
    assert trace.audit is not None
    for v, lower, ignored, star in trace.audit:
        d = 3
        assert 4 * lower <= d and 4 * ignored <= d and 2 * star <= d


def test_two_phase_empty_bad_colors_with_disjoint_lower():
    # lower class uses colors 0..15, upper class colors 128..255: B_v empty
    g = random_dag(8, 1, 0.5, seed=7)
    rng = random.Random(7)
    lists = []
    classes = {}
    for v in range(g.n):
        if v % 2 == 0:
            lists.append(sorted(rng.sample(range(8 * v, 8 * v + 8), 4)))
            classes[v] = 1
        else:
            lists.append(sorted(rng.sample(range(128 + 16 * v, 144 + 16 * v), 12)))
            classes[v] = 2
    budget = ClassBudget(classes=classes, defects={v: 3 for v in range(g.n)}, h=2, q=1)
    cfg = OldcConfig(alpha=0.5, scale_override=(1, 2))
    out, trace = two_phase_oldc(g, list(range(256)), lists, budget, cfg)
    for (v, lower, ignored, star) in trace.audit:
        if classes.get(v) == 2:
            assert lower == 0  # disjoint colors: no bad-color pressure


def _claimed_star(d):
    """Center 0 (class 2, defect d) points at four class-1 sinks; sink j's
    list starts with 2j, 2j+1, so its candidate set claims those colors of
    the center's list 0..15 once each."""
    edges = [(0, u) for u in range(1, 5)]
    g = ColoredGraph.build(5, edges, orientation=edges)
    lists = [list(range(16))] + [
        [2 * j, 2 * j + 1, *range(100 + 10 * j, 110 + 10 * j)] for j in range(4)
    ]
    budget = ClassBudget(
        classes={0: 2, 1: 1, 2: 1, 3: 1, 4: 1}, defects={0: d, 1: 3, 2: 3, 3: 3, 4: 3}, h=2, q=1
    )
    return two_phase_oldc(g, range(150), lists, budget, OldcConfig(alpha=0.25, scale_override=(1, 2)))


def test_two_phase_lower_class_claims_by_hand():
    # d = 3: one claim is over d/4, so colors 0..7 are bad (|B| = 8, D = 8,
    # 8 * 4 <= 4 * 8) and the center takes 8 from what is left
    out, trace = _claimed_star(3)
    assert out.colors == (8, 0, 2, 4, 6)
    assert trace.audit[0] == (0, 0, 0, 0)
    # d = 4: one claim is exactly d/4 and keeps the color; the center takes
    # 0, which the lower-class candidate set {0, 1} of sink 1 claims
    out, trace = _claimed_star(4)
    assert out.colors == (0, 0, 2, 4, 6)
    assert trace.audit[0] == (0, 1, 0, 0)


def test_two_phase_same_class_overlap_is_ignored_by_hand():
    # single-member families {0, 1} and {1, 5} overlap in tau = 1 color, so
    # the center ignores its same-class out-neighbor; the phase-I average
    # bound 4 * beta_same * (tau' - 1) < (d + 1) * |K| needs d >= 4
    g = ColoredGraph.build(2, [(0, 1)], orientation=[(0, 1)])
    cfg = OldcConfig(alpha=0.25, scale_override=(1, 2))
    for d, want in [(3, None), (4, (0, 1))]:
        budget = ClassBudget(classes={0: 1, 1: 1}, defects={0: d, 1: d}, h=1, q=1)
        if want is None:
            with pytest.raises(NodeFailure, match="average bound"):
                two_phase_oldc(g, range(8), [[0, 1], [1, 5]], budget, cfg)
            continue
        out, trace = two_phase_oldc(g, range(8), [[0, 1], [1, 5]], budget, cfg)
        assert out.colors == want
        assert trace.audit == [(0, 0, 1, 0), (1, 0, 0, 0)]


def test_two_phase_list_too_small_by_hand():
    # node 0 (class 2, defect 0) points at node 1 (class 1, defect 1); at
    # tau = 2 and alpha = 1/4, class 2 needs |L| >= 4**2 * tau / 4 = 8
    g = ColoredGraph.build(2, [(0, 1)], orientation=[(0, 1)])
    budget = ClassBudget(classes={0: 2, 1: 1}, defects={0: 0, 1: 1}, h=2, q=1)
    cfg = OldcConfig(alpha=0.25, scale_override=(2, 2))
    with pytest.raises(ListTooSmall) as short:
        two_phase_oldc(g, range(8), [range(3), range(3)], budget, cfg)
    assert str(short.value) == "node 0: |L|=3 < 8.0 under the two-phase condition"
    # with full lists node 1 picks a candidate set of 2 * tau = 4 colors;
    # each claims a color over d/4 = 0 of node 0, which keeps 4 colors and
    # cannot host a class-2 set of 4 * tau = 8
    with pytest.raises(ListTooSmall) as pruned:
        two_phase_oldc(g, range(8), [range(8), range(8)], budget, cfg)
    assert str(pruned.value) == "node 0: pruned list of 4 cannot host sets of size 8"


def test_two_phase_inputs_are_checked_up_front():
    # the first budget alone fails its class invariant (NodeFailure); the
    # predecided color outside the space, or a negative defect, is named first
    g = ColoredGraph.build(2, [(0, 1)], orientation=[(0, 1)])
    cfg = OldcConfig(alpha=0.25, scale_override=(1, 2))
    tight = ClassBudget(classes={0: 1}, defects={0: 0}, h=1, q=1)
    with pytest.raises(NodeFailure, match="class budget invariant"):
        two_phase_oldc(g, range(8), [[0, 1], [2]], tight, cfg, predecided={1: 2})
    with pytest.raises(InvalidInstance, match="list of node 1 leaves the color space"):
        two_phase_oldc(g, range(8), [[0, 1], [2]], tight, cfg, predecided={1: 9})
    negative = ClassBudget(classes={0: 1}, defects={0: -1}, h=1, q=1)
    with pytest.raises(InvalidInstance, match="negative defect at node 0"):
        two_phase_oldc(g, range(8), [[0, 1], [2]], negative, cfg, predecided={1: 2})


def test_main_case2_trivial_stage1():
    g, lists = _blocky_graph_and_lists(seed=4)
    inst = LdcInstance.build(
        list(range(256)), lists, [{x: 3 for x in l} for l in lists], flavor="oriented"
    )
    out, trace = main_oldc(g, inst, MAIN_SCALED)
    assert validate_ldc(g, inst, out).valid


def test_main_fail_safe_randomized():
    rng = random.Random(21)
    ok = fail = 0
    for trial in range(60):
        n = rng.randrange(8, 24)
        g = random_dag(n, rng.choice([2, 3]), 0.25, seed=trial)
        space = list(range(64))
        lists = [sorted(rng.sample(space, rng.choice([8, 12]))) for _ in range(n)]
        inst = LdcInstance.build(
            space, lists,
            [{x: rng.choice([0, 1, 2, 3]) for x in l} for l in lists],
            flavor="oriented",
        )
        try:
            out, _ = main_oldc(g, inst, MAIN_SCALED)
        except FailFast:
            fail += 1
            continue
        ok += 1
        assert validate_ldc(g, inst, out).valid
    assert ok > 0 and ok + fail == 60


def test_main_paper_scale_rejects_small_lists():
    g, lists = _blocky_graph_and_lists(seed=5)
    inst = LdcInstance.build(
        list(range(256)), lists, [{x: 1 for x in l} for l in lists], flavor="oriented"
    )
    with pytest.raises(FailFast):
        main_oldc(g, inst, MainConfig())


def test_main_determinism():
    g, lists = _blocky_graph_and_lists(seed=8)
    inst = LdcInstance.build(
        list(range(256)), lists, [{x: 3 for x in l} for l in lists], flavor="oriented"
    )
    a = main_oldc(g, inst, MAIN_SCALED)
    b = main_oldc(g, inst, MAIN_SCALED)
    assert a[0] == b[0]
    assert a[1].to_json(verbose=True) == b[1].to_json(verbose=True)


@pytest.mark.parametrize(
    "override", [{"tau_override": 0}, {"taubar_override": 0}, {"tau_override": -4}],
    ids=["tau-0", "taubar-0", "tau-negative"],
)
def test_main_rejects_an_override_below_one(override):
    # only None means "use the paper's value"; 0 is an out-of-range value,
    # not a request for the derived one
    g, lists = _blocky_graph_and_lists(seed=4)
    inst = LdcInstance.build(
        list(range(256)), lists, [{x: 3 for x in l} for l in lists], flavor="oriented"
    )
    config = MainConfig(**{**vars(MAIN_SCALED), **override})
    with pytest.raises(InvalidInstance, match="must be at least 1"):
        main_oldc(g, inst, config)
