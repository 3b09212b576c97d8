import random

import pytest

from listdefect import (
    ColoredGraph,
    FailFast,
    LdcInstance,
    ListTooSmall,
    OldcConfig,
    gamma_class_of,
    multi_defect_oldc,
    single_defect_oldc,
    validate_ldc,
)
from listdefect import oldc_basic
from listdefect.errors import InvalidInstance, NodeFailure

from conftest import random_dag, uniform_instance
from test_conflict import mu_g_ref, tau_g_ref

SCALED = OldcConfig(alpha=1.0, scale_override=(2, 2))


def test_gamma_class_formula():
    # smallest i with 2**i >= 2*beta/(d+1)
    assert gamma_class_of(4, 1) == 2
    assert gamma_class_of(1, 0) == 1
    assert gamma_class_of(8, 0) == 4
    assert gamma_class_of(8, 7) == 1


def test_isolated_node_takes_first_color():
    g = ColoredGraph.build(1, [], orientation=[], init_colors=[0], m=1)
    out, trace = single_defect_oldc(g, [4, 5], [[5, 4]], [0], 0, SCALED)
    assert out.colors == (4,)


def test_star_center_skips_on_dominating_defect():
    star = ColoredGraph.build(
        5,
        [(0, i) for i in range(1, 5)],
        orientation=[(0, i) for i in range(1, 5)],
        init_colors=[0, 1, 1, 1, 1],
        m=2,
    )
    out, trace = single_defect_oldc(
        star, list(range(6)), [[0, 1]] + [[2, 3]] * 4, [4, 0, 0, 0, 0], 0, SCALED
    )
    assert out.colors[0] == 0
    inst = LdcInstance.build(
        list(range(6)), [[0, 1]] + [[2, 3]] * 4,
        [{0: 4, 1: 4}] + [{2: 0, 3: 0}] * 4, flavor="oriented",
    )
    assert validate_ldc(star, inst, out).valid


def test_scaled_runs_fail_safe():
    """Scaled runs either validate or abort; nothing invalid leaks out."""
    rng = random.Random(11)
    ok = fail = 0
    for trial in range(120):
        g = random_dag(12, 2, 0.25, seed=1000 + trial)
        space = list(range(48))
        lists = [sorted(rng.sample(space, 8)) for _ in range(g.n)]
        try:
            out, _ = single_defect_oldc(g, space, lists, [1] * g.n, 0, SCALED)
        except FailFast:
            fail += 1
            continue
        ok += 1
        for v in range(g.n):
            same = sum(1 for u in g.out_neighbors[v] if out.colors[u] == out.colors[v])
            assert same <= 1
    assert ok > 0
    assert ok + fail == 120


def test_proximity_g_respected():
    rng = random.Random(3)
    ok = 0
    for trial in range(40):
        g = random_dag(10, 2, 0.3, seed=trial)
        # lists within one residue class mod 3 keep g=1 conflicts meaningful
        space = list(range(60))
        lists = [sorted(rng.sample(range(0, 60, 3), 8)) for _ in range(g.n)]
        try:
            out, _ = single_defect_oldc(g, space, lists, [1] * g.n, 1, SCALED)
        except FailFast:
            continue
        ok += 1
        for v in range(g.n):
            close = sum(
                1 for u in g.out_neighbors[v] if abs(out.colors[u] - out.colors[v]) <= 1
            )
            assert close <= 1
    assert ok > 0


def test_multi_defect_equal_defects_reduce_to_single():
    g = random_dag(12, 2, 0.3, seed=5)
    inst = uniform_instance(g, 48, 8, defect=1, seed=5)
    try:
        out, _ = multi_defect_oldc(g, inst, config=SCALED)
    except FailFast:
        pytest.skip("scaled parameters rejected this draw")
    assert validate_ldc(g, inst, out).valid


def test_multi_defect_bucket_selection():
    """Colors split 90/10 in energy: the heavy bucket is selected."""
    g = ColoredGraph.build(
        3, [(0, 1), (0, 2)], orientation=[(0, 1), (0, 2)], init_colors=[0, 1, 1], m=2
    )
    space = list(range(40))
    # node 0: outdeg 2; colors 0..8 with defect 3 (bucket energy 9*16=144),
    # color 30 with defect 0 (energy 1); leaves skip via defect >= outdeg
    lists = [list(range(9)) + [30], [20, 21], [22, 23]]
    defects = [{**{x: 3 for x in range(9)}, 30: 0}, {20: 9, 21: 9}, {22: 9, 23: 9}]
    inst = LdcInstance.build(space, lists, defects, flavor="oriented")
    out, _ = multi_defect_oldc(g, inst, config=OldcConfig(alpha=1.0, scale_override=(1, 2)))
    assert out.colors[0] in set(range(9))  # the 90% bucket
    assert validate_ldc(g, inst, out).valid


def test_tiny_lists_rejected_before_communication():
    g = random_dag(12, 2, 0.3, seed=6)
    inst = uniform_instance(g, 48, 2, defect=0, seed=6)
    with pytest.raises(ListTooSmall):
        multi_defect_oldc(g, inst, config=OldcConfig(alpha=6.0, scale_override=(2, 2)))


def test_paper_scale_parameters_overflow_gracefully():
    """Without overrides tau is >= 32 and enumeration cannot fit: fail-fast."""
    g = random_dag(8, 2, 0.4, seed=2)
    inst = uniform_instance(g, 32, 8, defect=1, seed=2)
    with pytest.raises(FailFast):
        multi_defect_oldc(g, inst, config=OldcConfig(alpha=6.0))


def test_empty_lists_fail_fast():
    g = ColoredGraph.build(2, [(0, 1)], orientation=[(0, 1)], init_colors=[0, 1], m=2)
    with pytest.raises(ListTooSmall):
        single_defect_oldc(g, [0, 1], [[0], []], [0, 0], 0, SCALED)
    inst = LdcInstance.build([0, 1], [[0], []], [{0: 0}, {}], flavor="oriented")
    with pytest.raises(ListTooSmall):
        multi_defect_oldc(g, inst, config=SCALED)


def test_multi_defect_rejects_a_non_oriented_flavor():
    # the graph is oriented; only the instance's flavor is wrong
    g = ColoredGraph.build(2, [(0, 1)], orientation=[(0, 1)], init_colors=[0, 1], m=2)
    inst = LdcInstance.build([0, 1, 2], [[0, 1], [1, 2]], [{0: 0, 1: 0}, {1: 0, 2: 0}])
    with pytest.raises(InvalidInstance, match="expects an oriented instance"):
        multi_defect_oldc(g, inst, config=SCALED)


def test_determinism():
    g = random_dag(12, 2, 0.25, seed=3)
    space = list(range(48))
    rng = random.Random(0)
    lists = [sorted(rng.sample(space, 8)) for _ in range(g.n)]
    runs = []
    for _ in range(2):
        try:
            out, trace = single_defect_oldc(g, space, lists, [1] * g.n, 0, SCALED)
            runs.append((out.colors, trace.to_json(verbose=True)))
        except FailFast as exc:
            runs.append(("fail", str(exc)))
    assert runs[0] == runs[1]


class _PairwiseCheckedProgram(oldc_basic._SingleDefectProgram):
    """The library program, with its P1 selection (round 2) and P1 check
    (round 3) and its color choice (decision round) recomputed with the
    pairwise references over the color tuples.  A received C_u is read as
    statics[u].family[index]."""

    checked: list = []  # one row per recomputed selection or check

    def step(self, state, inbox, round_no):
        view = state["view"]
        st = self.statics[view.node]
        ref = state.setdefault("ref_csets", {})  # out-neighbor -> C_u
        for u, msg in inbox.items():
            if "cset" in msg:
                ref[u] = self.statics[u].family[msg["cset"].index]
        try:
            state, msg, out = super().step(state, inbox, round_no)
        except NodeFailure as exc:
            if "P1 violated" in str(exc):
                assert 2 * self._pairwise_conflicts(state, st) > st.defect
            raise
        if round_no == 2 and st.skip_color is None:
            peers = [
                u
                for u in view.out_neighbors
                if u in state["classes"] and state["classes"][u] <= st.gamma
            ]
            counts = [
                sum(
                    1
                    for u in peers
                    if any(tau_g_ref(cand, c2, self.tau, self.g) for c2 in self.statics[u].family)
                )
                for cand in st.family
            ]
            assert state["cset"] == st.family[counts.index(min(counts))]
            self.checked.append(("P1 selection", min(counts), max(counts)))
        if round_no == 3 and st.skip_color is None:
            assert 2 * self._pairwise_conflicts(state, st) <= st.defect
            self.checked.append(("P1 check",))
        if out is not None and st.skip_color is None:
            undecided = [
                c_u for u, c_u in ref.items()
                if u in view.out_neighbors and state["classes"][u] <= st.gamma
            ]
            decided = [c for u, c in state["decided"].items() if u in view.out_neighbors]
            freq = [
                sum(mu_g_ref(x, c_u, self.g) for c_u in undecided) + mu_g_ref(x, decided, self.g)
                for x in state["cset"]
            ]
            assert out == state["cset"][freq.index(min(freq))]
            self.checked.append(("frequency",))
        return state, msg, out

    def _pairwise_conflicts(self, state, st):
        return sum(
            1
            for u, c_u in state["ref_csets"].items()
            if u in state["view"].out_neighbors
            and state["classes"][u] <= st.gamma
            and tau_g_ref(c_u, state["cset"], self.tau, self.g)
        )


def test_p1_bitset_kernel_matches_pairwise_conflicts(monkeypatch):
    """Lists mixing residue classes make g matter across restricted lists."""
    monkeypatch.setattr(oldc_basic, "_SingleDefectProgram", _PairwiseCheckedProgram)
    monkeypatch.setattr(_PairwiseCheckedProgram, "checked", [])
    rng = random.Random(5)
    ok = 0
    for trial in range(60):
        g = rng.choice([1, 2])
        graph = random_dag(14, 5, 0.5, seed=2000 + trial)
        space = list(range(120))
        lists = [sorted(rng.sample(space, 40)) for _ in range(graph.n)]
        config = OldcConfig(alpha=0.1, scale_override=(rng.choice([1, 2]), 2))
        try:
            single_defect_oldc(graph, space, lists, [4] * graph.n, g, config)
            ok += 1
        except FailFast:
            continue
    selections = [c for c in _PairwiseCheckedProgram.checked if c[0] == "P1 selection"]
    assert ok > 0
    # some selections had a real choice: candidate sets with different conflict counts
    assert any(low < high for _, low, high in selections)
    assert any(c[0] == "P1 check" for c in _PairwiseCheckedProgram.checked)
    assert any(c[0] == "frequency" for c in _PairwiseCheckedProgram.checked)
