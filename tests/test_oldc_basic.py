import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listdefect import (
    ColoredGraph,
    ColoringOutput,
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
from listdefect.conflict import NodeType
from listdefect.errors import InvalidInstance, NodeFailure

from conftest import random_dag, uniform_instance
from test_conflict import mu_g_ref, tau_g_ref
from test_engine_reference import graphs

SRC = Path(__file__).resolve().parent.parent / "src"
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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.lists(st.integers(0, 11), min_size=1, max_size=24))
def test_the_heaviest_bucket_carries_the_mean_energy(beta, raw_defects):
    # with beta_hat and each d+1 rounded to powers of two, dhat1 <= beta_hat
    # names one class each, so a bucket holds one dhat1 and its energy is
    # the sum over its colors: the heaviest is at least the mean
    beta_hat = 1 << (beta - 1).bit_length()
    powers = [1 << j for j in range(beta_hat.bit_length())]
    assert len({gamma_class_of(beta_hat, p - 1) for p in powers}) == len(powers)
    # node 0 points at beta leaves and every defect of its list is below
    # beta, so it is bucketed; a leaf takes its one color
    edges = [(0, u) for u in range(1, beta + 1)]
    star = ColoredGraph.build(beta + 1, edges, orientation=edges)
    lists = [list(range(len(raw_defects)))] + [[0]] * beta
    defects = [{x: d % beta for x, d in enumerate(raw_defects)}] + [{0: 0}] * beta
    inst = LdcInstance.build(range(len(raw_defects)), lists, defects, flavor="oriented")
    try:
        multi_defect_oldc(star, inst, config=SCALED)
    except NodeFailure as exc:
        assert "best bucket" not in str(exc)
    except FailFast:
        pass


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


PATH3 = ColoredGraph.build(3, [(0, 1), (1, 2)], orientation=[(0, 1), (1, 2)])


@pytest.mark.parametrize("space, lists, defects, message", [
    (range(8), [[0, 1, 9]] * 3, [0] * 3, "list of node 0 leaves the color space"),
    ([-1, 0, 1, 2], [[0, 1, 2]] * 3, [0] * 3, "colors must be nonnegative integers"),
    (range(8), [[0, 1, 2]] * 2, [0] * 3, "2 lists and 3 defects for 3 nodes"),
    (range(8), [[0, 1, 2]] * 3, [0] * 2, "3 lists and 2 defects for 3 nodes"),
    (range(8), [[0, 1, 2]] * 4, [0] * 4, "4 lists and 4 defects for 3 nodes"),
], ids=["outside-space", "negative-space-color", "short-lists", "short-defects", "extra-lists"])
def test_single_defect_inputs_are_checked_up_front(space, lists, defects, message):
    with pytest.raises(InvalidInstance, match=message):
        single_defect_oldc(PATH3, space, lists, defects, 0, SCALED)


def test_input_checks_fire_before_a_run_that_fails_fast():
    # node 0's empty list alone fails fast with ListTooSmall; node 2's
    # color outside the space is named first, before any round
    with pytest.raises(ListTooSmall):
        single_defect_oldc(PATH3, range(8), [[], [0, 1], [1, 2]], [0] * 3, 0, SCALED)
    with pytest.raises(InvalidInstance, match="list of node 2 leaves the color space"):
        single_defect_oldc(PATH3, range(8), [[], [0, 1], [1, 9]], [0] * 3, 0, SCALED)


def test_negative_defect_is_rejected_not_looped_on():
    # run apart with a timeout: the gamma class search never ended on d < 0
    script = (
        "from listdefect import ColoredGraph, InvalidInstance, OldcConfig, gamma_class_of, single_defect_oldc\n"
        "g = ColoredGraph.build(3, [(0, 1), (1, 2)], orientation=[(0, 1), (1, 2)])\n"
        "for call in (lambda: gamma_class_of(2, -1), lambda: single_defect_oldc(\n"
        "        g, range(8), [[0, 1, 2]] * 3, [-1, 0, 0], 0, OldcConfig(1.0, (2, 2)))):\n"
        "    try:\n"
        "        call()\n"
        "    except InvalidInstance as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout.splitlines() == ["negative defect -1", "negative defect at node 0"]


@st.composite
def single_defect_inputs(draw):
    """An oriented graph, a color space with gaps and repeats, raw nonempty
    lists in it, nonnegative defects, g, and maybe some predecided nodes."""
    graph = draw(graphs(oriented=True))
    space = draw(st.lists(st.integers(0, 40), min_size=1, max_size=20))
    lists = [draw(st.lists(st.sampled_from(space), min_size=1, max_size=8)) for _ in range(graph.n)]
    defects = draw(st.lists(st.integers(0, 4), min_size=graph.n, max_size=graph.n))
    predecided = {}
    if draw(st.booleans()):
        predecided = draw(st.dictionaries(st.integers(0, max(0, graph.n - 1)), st.sampled_from(space)))
        predecided = {v: c for v, c in predecided.items() if v < graph.n}
    return graph, space, lists, defects, draw(st.integers(0, 2)), predecided


@settings(max_examples=150, deadline=None)
@given(single_defect_inputs(), st.randoms(use_true_random=False))
def test_trusted_check_instance_is_the_validated_one(inputs, rng):
    graph, space, raw, defects, g, predecided = inputs
    lists = oldc_basic._checked_lists(graph.n, space, raw, defects)
    outdeg = list(map(len, graph.out_neighbors))
    trusted = oldc_basic._single_defect_instance(outdeg, space, lists, defects, predecided, g)
    # the validating constructor, on the raw lists as LdcInstance.build normalises them
    built = LdcInstance.build(
        space,
        [[predecided[v]] if v in predecided else raw[v] for v in range(graph.n)],
        [{predecided[v]: outdeg[v]} if v in predecided else dict.fromkeys(raw[v], defects[v])
         for v in range(graph.n)],
        flavor="oriented", g=g,
    )
    for name in ("color_space", "lists", "flavor", "g"):
        assert getattr(trusted, name) == getattr(built, name)
    assert [list(dv.items()) for dv in trusted.defects] == [list(dv.items()) for dv in built.defects]
    # any coloring from the lists gets one report from both
    out = ColoringOutput(tuple(map(rng.choice, built.lists)))
    assert validate_ldc(graph, trusted, out) == validate_ldc(graph, built, out)


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


def _recheck_from_sent(graph, defects, sent, table, checked):
    """Recompute a single-defect run's P1 selections (round 2), the P1
    bound its round-2 checks imply and its color choices (round 3 + h - i
    for class i) with the pairwise references over color tuples, from what
    the nodes sent: a type read through the run's table gives K_u, a sent
    index C_u."""
    tau, g, h = table.params.tau, table.params.g, table.params.h
    family, klass, color = {}, {}, {}
    for u, msg in sent[0].items():
        if "decided" in msg:
            color[u] = msg["decided"].colors[0]
        else:
            t = NodeType(msg["init"].index, msg["list"].colors, msg["class"].value)
            family[u], klass[u] = table.family_of(t), t.gamma_class
    csets = {u: family[u][msg["cset"].index] for u, msg in (sent[1:2] or [{}])[0].items()}

    def same_or_lower(v):
        return [u for u in graph.out_neighbors[v] if u in klass and klass[u] <= klass[v]]

    for v, c_v in csets.items():
        counts = [
            sum(1 for u in same_or_lower(v)
                if any(tau_g_ref(cand, c2, tau, g) for c2 in family[u]))
            for cand in family[v]
        ]
        assert c_v == family[v][counts.index(min(counts))]
        checked.append(("P1 selection", min(counts), max(counts)))
    if len(sent) > 2:  # round 2's checks passed at every node, so P1 holds at each
        for v in csets:
            conflicts = sum(1 for u in same_or_lower(v) if tau_g_ref(csets[u], csets[v], tau, g))
            assert 2 * conflicts <= defects[v]
            checked.append(("P1 check",))
    for k, colors in enumerate(sent[2:]):
        i = h - k
        for v, msg in colors.items():
            assert klass[v] == i
            decided = [color[u] for u in graph.out_neighbors[v] if u in color]
            freq = [
                sum(mu_g_ref(x, csets[u], g) for u in same_or_lower(v)) + mu_g_ref(x, decided, g)
                for x in csets[v]
            ]
            assert msg["color"].colors[0] == csets[v][freq.index(min(freq))]
            checked.append(("frequency",))
        color.update((u, msg["color"].colors[0]) for u, msg in colors.items())


def test_p1_bitset_kernel_matches_pairwise_conflicts(monkeypatch):
    """Lists mixing residue classes make g matter across restricted lists."""
    sent, tables = [], []
    broadcast, build = oldc_basic.broadcast, oldc_basic.build_type_table

    def recording_broadcast(graph, record, *args):
        sent.append(record)
        return broadcast(graph, record, *args)

    def recording_build(*args):
        tables.append(build(*args))
        return tables[-1]

    monkeypatch.setattr(oldc_basic, "broadcast", recording_broadcast)
    monkeypatch.setattr(oldc_basic, "build_type_table", recording_build)
    checked = []  # one row per recomputed selection, check or color choice
    rng = random.Random(5)
    ok = 0
    for trial in range(60):
        g = rng.choice([1, 2])
        graph = random_dag(14, 5, 0.5, seed=2000 + trial)
        space = list(range(120))
        lists = [sorted(rng.sample(space, 40)) for _ in range(graph.n)]
        config = OldcConfig(alpha=0.1, scale_override=(rng.choice([1, 2]), 2))
        sent.clear()
        tables.clear()
        try:
            single_defect_oldc(graph, space, lists, [4] * graph.n, g, config)
            ok += 1
        except FailFast:
            pass
        if tables and sent:
            _recheck_from_sent(graph, [4] * graph.n, sent, tables[0], checked)
    selections = [c for c in checked if c[0] == "P1 selection"]
    assert ok > 0
    # some selections had a real choice: candidate sets with different conflict counts
    assert any(low < high for _, low, high in selections)
    assert any(c[0] == "P1 check" for c in checked)
    assert any(c[0] == "frequency" for c in checked)
