import heapq
import itertools
import random
import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listdefect import (
    CapExceeded,
    ColoredGraph,
    ColoringOutput,
    ConditionViolated,
    InvalidInstance,
    LdcInstance,
    NodeFailure,
    check_existence_condition,
    exhaustive_solve,
    sequential_arbdefective,
    sequential_ldc,
    validate_ldc,
)
from listdefect import oracle
from listdefect.generate import make_graph, make_instance

import reference_orientation
from conftest import complete_graph, count_validations


@dataclass
class PotentialState:
    """Snapshot of the recoloring walk, for auditing the potential."""

    colors: list[int]
    monochromatic_edges: int
    potential: int
    unhappy: list[int]

    @staticmethod
    def recompute(graph: ColoredGraph, inst: LdcInstance, colors: list[int]) -> "PotentialState":
        mono = sum(
            1 for u, v in graph.edges() if colors[u] == colors[v]
        )
        pot = mono + sum(
            graph.degree(v) - inst.defects[v][colors[v]] for v in range(graph.n)
        )
        unhappy = [
            v
            for v in range(graph.n)
            if sum(1 for u in graph.adjacency[v] if colors[u] == colors[v])
            > inst.defects[v][colors[v]]
        ]
        return PotentialState(list(colors), mono, pot, unhappy)


def test_single_edge_defect_absorbs():
    g = ColoredGraph.build(2, [(0, 1)], init_colors=[0, 1], m=2)
    inst = LdcInstance.build([5], [[5], [5]], [{5: 1}, {5: 1}])
    out, stats = sequential_ldc(g, inst)
    assert out.colors == (5, 5)
    assert stats.recolorings == 0


def test_triangle_two_colors_defect_one():
    k3 = complete_graph(3)
    inst = LdcInstance.build([0, 1], [[0, 1]] * 3, [{0: 1, 1: 1}] * 3)
    # exhaustive check of all 8 assignments confirms a valid one exists
    any_valid = False
    for combo in itertools.product([0, 1], repeat=3):
        counts = [sum(1 for u in range(3) if u != v and combo[u] == combo[v]) for v in range(3)]
        any_valid |= all(c <= 1 for c in counts)
    assert any_valid
    out, _ = sequential_ldc(k3, inst)
    assert validate_ldc(k3, inst, out).valid


def test_condition_refusal_at_boundary():
    star = ColoredGraph.build(4, [(0, 1), (0, 2), (0, 3)])
    inst = LdcInstance.build(
        [0, 1], [[0, 1], [0], [0], [0]],
        [{0: 0, 1: 0}, {0: 0}, {0: 0}, {0: 0}],
    )
    # leaves have deg 1 and sum(d+1) = 1, not > 1
    with pytest.raises(ConditionViolated):
        sequential_ldc(star, inst)


def test_potential_strictly_decreases():
    rng = random.Random(9)
    for trial in range(30):
        n = rng.randrange(3, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = ColoredGraph.build(n, edges)
        space = list(range(5))
        lists, defects = [], []
        for v in range(n):
            lst = sorted(rng.sample(space, rng.randrange(1, 5)))
            dv = {x: rng.randrange(0, 3) for x in lst}
            while sum(d + 1 for d in dv.values()) <= g.degree(v):
                dv[lst[rng.randrange(len(lst))]] += 1
            lists.append(lst)
            defects.append(dv)
        inst = LdcInstance.build(space, lists, defects)
        out, stats = sequential_ldc(g, inst)
        assert validate_ldc(g, inst, out).valid
        assert stats.recolorings <= 3 * g.edge_count()
        assert all(b < a for a, b in zip(stats.phi_history, stats.phi_history[1:]))
        # the incremental potential agrees with a from-scratch recompute
        final = PotentialState.recompute(g, inst, list(out.colors))
        assert final.potential == stats.phi_history[-1]
        assert not final.unhappy
        initial = PotentialState.recompute(
            g, inst, [inst.lists[v][0] for v in range(n)]
        )
        assert initial.potential == stats.phi_history[0]
        assert initial.potential <= 3 * g.edge_count()


def test_arbdefective_triangle_cyclic():
    k3 = complete_graph(3)
    inst = LdcInstance.build([9], [[9]] * 3, [{9: 1}] * 3, flavor="arbdefective")
    out, _ = sequential_arbdefective(k3, inst)
    assert validate_ldc(k3, inst, out).valid
    outdeg = {v: 0 for v in range(3)}
    for a, b in out.orientation_out:
        outdeg[a] += 1
    assert sorted(outdeg.values()) == [1, 1, 1]


def test_arbdefective_edge_and_path():
    e = ColoredGraph.build(2, [(0, 1)], init_colors=[0, 1], m=2)
    ie = LdcInstance.build([9], [[9]] * 2, [{9: 1}] * 2, flavor="arbdefective")
    out, _ = sequential_arbdefective(e, ie)
    assert validate_ldc(e, ie, out).valid
    p3 = ColoredGraph.build(3, [(0, 1), (1, 2)], init_colors=[0, 1, 0], m=2)
    ip = LdcInstance.build([9], [[9]] * 3, [{9: 1}] * 3, flavor="arbdefective")
    out, _ = sequential_arbdefective(p3, ip)
    assert validate_ldc(p3, ip, out).valid
    for v in range(3):
        same = sum(1 for a, b in out.orientation_out if a == v)
        assert same <= 1


def test_arbdefective_condition_refusal():
    k3 = complete_graph(3)
    inst = LdcInstance.build([9], [[9]] * 3, [{9: 0}] * 3, flavor="arbdefective")
    with pytest.raises(ConditionViolated):
        sequential_arbdefective(k3, inst)


def test_exhaustive_tightness_and_sat():
    for delta in (2, 3, 4):
        kk = complete_graph(delta + 1)
        unsat = LdcInstance.build([0], [[0]] * (delta + 1), [{0: delta - 1}] * (delta + 1))
        assert exhaustive_solve(kk, unsat) is None
        sat = LdcInstance.build([0], [[0]] * (delta + 1), [{0: delta}] * (delta + 1))
        got = exhaustive_solve(kk, sat)
        assert got is not None and validate_ldc(kk, sat, got).valid


def test_exhaustive_empty_graph_trivially_sat():
    g = ColoredGraph.build(3, [])
    inst = LdcInstance.build([0, 1], [[0], [1], [0]], [{0: 0}, {1: 0}, {0: 0}])
    assert exhaustive_solve(g, inst) is not None


def test_exhaustive_cap():
    g = ColoredGraph.build(12, [])
    space = list(range(10))
    inst = LdcInstance.build(space, [space] * 12, [{x: 0 for x in space}] * 12)
    with pytest.raises(CapExceeded):
        exhaustive_solve(g, inst, cap=1000)


def test_exhaustive_arbdefective_orientation_search():
    k3 = complete_graph(3)
    zero = LdcInstance.build([9], [[9]] * 3, [{9: 0}] * 3, flavor="arbdefective")
    assert exhaustive_solve(k3, zero) is None  # triangle cannot orient to outdeg 0
    one = LdcInstance.build([9], [[9]] * 3, [{9: 1}] * 3, flavor="arbdefective")
    got = exhaustive_solve(k3, one)
    assert got is not None and validate_ldc(k3, one, got).valid


def test_exhaustive_agrees_with_condition_sufficiency():
    rng = random.Random(4)
    for trial in range(25):
        n = rng.randrange(2, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.7]
        g = ColoredGraph.build(n, edges)
        space = list(range(4))
        lists, defects = [], []
        for v in range(n):
            lst = sorted(rng.sample(space, rng.randrange(1, 4)))
            dv = {x: rng.randrange(0, 3) for x in lst}
            lists.append(lst)
            defects.append(dv)
        inst = LdcInstance.build(space, lists, defects)
        if all(check_existence_condition(g, inst)):
            assert exhaustive_solve(g, inst) is not None, trial


def test_sequential_matches_oracle_on_small_instances():
    rng = random.Random(13)
    for trial in range(40):
        n = rng.randrange(2, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = ColoredGraph.build(n, edges)
        space = list(range(4))
        lists, defects = [], []
        for v in range(n):
            lst = sorted(rng.sample(space, rng.randrange(1, 4)))
            dv = {x: rng.randrange(0, 2) for x in lst}
            while sum(d + 1 for d in dv.values()) <= g.degree(v):
                dv[lst[rng.randrange(len(lst))]] += 1
            lists.append(lst)
            defects.append(dv)
        inst = LdcInstance.build(space, lists, defects)
        out, _ = sequential_ldc(g, inst)
        assert validate_ldc(g, inst, out).valid
        assert exhaustive_solve(g, inst) is not None


# -- the single Euler pass against the per-class passes ---------------------------


def _per_class_arbdefective(graph: ColoredGraph, inst: LdcInstance):
    """Reference: the former solver, one Euler pass per color class over
    all n nodes, with the existence condition checked on a re-validated
    arbdefective copy of the instance."""
    if inst.g != 0:
        raise InvalidInstance("sequential solver requires g = 0")
    cond = check_existence_condition(
        graph,
        LdcInstance(inst.color_space, inst.lists, inst.defects, "arbdefective", 0),
    )
    if not all(cond):
        raise ConditionViolated(f"existence condition fails at node {cond.index(False)}")
    doubled = LdcInstance(
        inst.color_space,
        inst.lists,
        tuple({x: 2 * d for x, d in dv.items()} for dv in inst.defects),
        "defective",
        0,
    )
    out, stats = sequential_ldc(graph, doubled)
    colors = list(out.colors)
    oriented = []
    by_color: dict[int, list[int]] = {}
    for v in range(graph.n):
        by_color.setdefault(colors[v], []).append(v)
    for x, nodes in sorted(by_color.items()):
        class_edges = [(u, v) for u, v in graph.edges() if colors[u] == x and colors[v] == x]
        deg = {v: 0 for v in nodes}
        for u, v in class_edges:
            deg[u] += 1
            deg[v] += 1
        odd = sorted(v for v in nodes if deg[v] % 2 == 1)
        virtual = [(odd[i], odd[i + 1]) for i in range(0, len(odd), 2)]
        directed = oracle._euler_orient(graph.n, class_edges + virtual)
        oriented.extend(directed[: len(class_edges)])
    for u, v in graph.edges():
        if colors[u] != colors[v]:
            oriented.append((u, v))
    return ColoringOutput(tuple(colors), tuple(sorted(oriented))), stats


@st.composite
def _arbdefective_instances(draw):
    n = draw(st.integers(1, 14))
    p = draw(st.sampled_from([0.2, 0.4, 0.7, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    graph = ColoredGraph.build(n, edges)
    space = list(range(draw(st.integers(1, 8))))
    if draw(st.sampled_from([False] * 3 + [True])):
        # every defect 0 and lists of deg + 1 colors or more, sorted or in drawn order
        space = list(range(max(len(space), graph.max_degree() + 1)))
        lists = []
        for v in range(n):
            lst = rng.sample(space, rng.randrange(graph.degree(v) + 1, len(space) + 1))
            lists.append(tuple(sorted(lst) if draw(st.booleans()) else lst))
        defects = tuple(dict.fromkeys(lst, 0) for lst in lists)
        g = draw(st.sampled_from([0] * 7 + [1]))
        return graph, LdcInstance(tuple(space), tuple(lists), defects, "arbdefective", g)
    meet_condition = draw(st.booleans())
    lists, defects = [], []
    for v in range(n):
        lst = sorted(rng.sample(space, rng.randrange(1, len(space) + 1)))
        dv = {x: rng.randrange(0, 4) for x in lst}
        while meet_condition and sum(2 * d + 1 for d in dv.values()) <= graph.degree(v):
            dv[rng.choice(lst)] += 1
        lists.append(lst)
        defects.append(dv)
    g = draw(st.sampled_from([0] * 7 + [1]))
    return graph, LdcInstance.build(space, lists, defects, flavor="arbdefective", g=g)


def _outcome(solver, graph, inst):
    try:
        out, stats = solver(graph, inst)
    except Exception as exc:  # the exception class is the outcome
        return type(exc)
    return out, stats


def _first_fit_recolored(inst: LdcInstance, got) -> bool:
    """Did a run on an instance with every defect 0 recolor a node?"""
    zero = not any(d for dv in inst.defects for d in dv.values())
    return zero and not isinstance(got, type) and got[1].recolorings > 0


def test_single_euler_pass_matches_per_class_passes():
    first_fit = []

    @settings(max_examples=300, deadline=None)
    @given(_arbdefective_instances())
    def check(case):
        graph, inst = case
        got = _outcome(sequential_arbdefective, graph, inst)
        assert got == _outcome(_per_class_arbdefective, graph, inst)
        if not isinstance(got, type):
            assert validate_ldc(graph, inst, got[0]).valid
        first_fit.append(_first_fit_recolored(inst, got))

    check()
    # some zero-defect draws take the first-fit pass and move a node
    assert any(first_fit)


def test_one_euler_pass_per_call(monkeypatch):
    calls = []
    real = oracle._euler_orient

    def counting(n, multi_edges):
        calls.append(len(multi_edges))
        return real(n, multi_edges)

    monkeypatch.setattr(oracle, "_euler_orient", counting)
    made = make_graph("random-gnp", 400, 8, seed=3, oriented=False)
    graph = ColoredGraph.build(made.n, made.edges())
    inst = make_instance(graph, "degree-plus-one", seed=3, space_size=64, flavor="arbdefective")
    assert len(inst.color_space) == 64
    out, _ = sequential_arbdefective(graph, inst)
    assert len(set(out.colors)) > 32
    assert len(calls) == 1
    assert validate_ldc(graph, inst, out).valid


def test_sequential_arbdefective_builds_no_doubled_instance(monkeypatch):
    made = make_graph("random-gnp", 120, 6, seed=2, oriented=False)
    inst = make_instance(made, "degree-plus-one", seed=2, space_size=49, flavor="arbdefective")
    validated = count_validations(monkeypatch)
    out, stats = sequential_arbdefective(made, inst)
    assert validated == []
    assert stats.recolorings > 0
    assert validate_ldc(made, inst, out).valid


# -- the lean recoloring loop against the closure-based one -----------------------


def _closure_sequential_ldc(graph: ColoredGraph, inst: LdcInstance):
    """Reference: the former recoloring loop, which read every conflict
    count through a closure and counted M over the edge list."""
    if inst.g != 0:
        raise InvalidInstance("sequential solver requires g = 0")
    defects = inst.defects
    cond = [
        sum(defects[v].values()) + len(defects[v]) > graph.degree(v) for v in range(graph.n)
    ]
    if not all(cond):
        raise ConditionViolated(f"existence condition fails at node {cond.index(False)}")
    n = graph.n
    colors = [inst.lists[v][0] for v in range(n)]
    nbr_count: list[dict[int, int]] = [dict() for _ in range(n)]
    for v in range(n):
        for u in graph.adjacency[v]:
            nbr_count[v][colors[u]] = nbr_count[v].get(colors[u], 0) + 1

    def conflicts(v: int, x: int) -> int:
        return nbr_count[v].get(x, 0)

    mono = sum(1 for u, w in graph.edges() if colors[u] == colors[w])
    phi = mono + sum(graph.degree(v) - inst.defects[v][colors[v]] for v in range(n))
    phi_history = [phi]
    cap = 3 * graph.edge_count()
    heap = [v for v in range(n) if conflicts(v, colors[v]) > inst.defects[v][colors[v]]]
    heapq.heapify(heap)
    steps = 0
    while heap:
        v = heapq.heappop(heap)
        if conflicts(v, colors[v]) <= inst.defects[v][colors[v]]:
            continue
        old = colors[v]
        new = None
        for y in inst.lists[v]:
            if conflicts(v, y) <= inst.defects[v][y]:
                new = y
                break
        assert new is not None, "existence condition guarantees a fitting color"
        colors[v] = new
        phi_new = phi + (conflicts(v, new) - conflicts(v, old)) + (
            inst.defects[v][old] - inst.defects[v][new]
        )
        assert phi_new <= phi - 1, "potential must strictly decrease"
        phi = phi_new
        phi_history.append(phi)
        steps += 1
        assert steps <= cap, "recoloring count exceeded 3|E|"
        for u in graph.adjacency[v]:
            cnt = nbr_count[u]
            cnt[old] -= 1
            if not cnt[old]:
                del cnt[old]
            cnt[new] = cnt.get(new, 0) + 1
            if conflicts(u, colors[u]) > inst.defects[u][colors[u]]:
                heapq.heappush(heap, u)
        if conflicts(v, new) > inst.defects[v][new]:
            heapq.heappush(heap, v)
    return (
        ColoringOutput(tuple(colors)),
        oracle.RecoloringStats(steps, phi_history[0], tuple(phi_history)),
    )


@st.composite
def _ldc_instances(draw):
    n = draw(st.integers(0, 16))
    p = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    graph = ColoredGraph.build(n, edges)
    space = list(range(draw(st.integers(1, 10))))
    meet_condition = draw(st.sampled_from([True] * 4 + [False]))
    flavor = draw(st.sampled_from(["defective", "oriented", "arbdefective"]))
    # every defect 0 and lists of deg + 1 colors or more
    zero_defect = draw(st.sampled_from([False] * 3 + [True]))
    if zero_defect:
        space = list(range(max(len(space), graph.max_degree() + 1)))
    lists, defects = [], []
    for v in range(n):
        least = graph.degree(v) + 1 if zero_defect else 1
        lst = rng.sample(space, rng.randrange(least, len(space) + 1))
        if draw(st.booleans()):
            lst.sort()
        dv = {x: 0 if zero_defect else rng.randrange(0, 3) for x in lst}
        while meet_condition and sum(d + 1 for d in dv.values()) <= graph.degree(v):
            dv[rng.choice(lst)] += 1
        lists.append(tuple(lst))
        defects.append(dv)
    g = draw(st.sampled_from([0] * 7 + [1]))
    # lists keep their drawn order: the solver scans them as given
    return graph, LdcInstance(tuple(space), tuple(lists), tuple(defects), flavor, g)


def test_sequential_ldc_matches_the_closure_loop():
    first_fit = []

    @settings(max_examples=400, deadline=None)
    @given(_ldc_instances())
    def check(case):
        graph, inst = case
        got = _outcome(sequential_ldc, graph, inst)
        assert got == _outcome(_closure_sequential_ldc, graph, inst)
        if not isinstance(got, type):
            undirected = LdcInstance(inst.color_space, inst.lists, inst.defects, "defective", 0)
            assert validate_ldc(graph, undirected, got[0]).valid
        first_fit.append(_first_fit_recolored(inst, got))

    check()
    # some zero-defect draws take the first-fit pass and move a node
    assert any(first_fit)


@pytest.mark.parametrize("defects", [
    ({0: 0},) * 3,  # every defect 0: the first-fit pass
    ({0: 0}, {0: 0}, {0: 1}),  # a positive defect: the walk
], ids=["first-fit", "walk"])
def test_recolor_without_a_fitting_color_names_the_node(defects):
    # on a triangle of one-color lists node 0 breaks the existence
    # condition, which the callers of _recolor check first
    with pytest.raises(NodeFailure) as info:
        oracle._recolor(complete_graph(3), ((0,),) * 3, defects)
    assert info.value.node == 0
    assert str(info.value) == "existence condition guarantees a fitting color [node 0]"


def _recursive_exhaustive_solve(graph, inst, cap):
    """Reference: the exhaustive search as one recursive call per node,
    after the same guards as ``exhaustive_solve``."""
    space = 1
    for lst in inst.lists:
        space *= max(1, len(lst))
        if space > cap:
            raise CapExceeded(f"assignment space exceeds {cap}")
    if inst.flavor == "arbdefective" and inst.g != 0:
        raise InvalidInstance("arbdefective exhaustive search requires g = 0")
    if inst.flavor == "oriented" and graph.out_neighbors is None:
        raise InvalidInstance("oriented instance on an unoriented graph")
    n, g = graph.n, inst.g
    relevant = graph.out_neighbors if inst.flavor == "oriented" else graph.adjacency
    colors = [None] * n

    def count_at(v, x):
        return sum(1 for u in relevant[v] if colors[u] is not None and abs(colors[u] - x) <= g)

    def final_check():
        if inst.flavor != "arbdefective":
            return ColoringOutput(tuple(colors))
        oriented = [(u, v) for u, v in graph.edges() if colors[u] != colors[v]]
        for x in sorted(set(colors)):
            nodes = [v for v in range(n) if colors[v] == x]
            class_edges = [(u, v) for u, v in graph.edges() if colors[u] == colors[v] == x]
            res = reference_orientation.orient_class(
                nodes, class_edges, {v: inst.defects[v][x] for v in nodes})
            if res is None:
                return None
            oriented.extend(res)
        return ColoringOutput(tuple(colors), tuple(sorted(oriented)))

    def dfs(v):
        if v == n:
            return final_check()
        for x in inst.lists[v]:
            if inst.flavor != "arbdefective" and (
                count_at(v, x) > inst.defects[v][x]
                or any(
                    v in relevant[u]
                    and abs(colors[u] - x) <= g
                    and count_at(u, colors[u]) + 1 > inst.defects[u][colors[u]]
                    for u in range(v)
                )
            ):
                continue
            colors[v] = x
            res = dfs(v + 1)
            if res is not None:
                return res
            colors[v] = None
        return None

    return dfs(0)


def _solve_outcome(solver, graph, inst):
    """The colors found, None or the exception class.  The two searches
    orient arbdefective classes by different routines, which may choose
    different valid orientations, so an orientation is validated instead
    of compared."""
    try:
        out = solver(graph, inst, cap=20_000)
    except Exception as exc:  # the exception class is the outcome
        return type(exc)
    if out is None:
        return None
    assert validate_ldc(graph, inst, out).valid
    return out.colors


@settings(max_examples=300, deadline=None)
@given(_ldc_instances(), st.booleans())
def test_iterative_exhaustive_search_matches_the_recursive_one(case, reverse):
    graph, inst = case
    if inst.flavor == "oriented":
        # orient every edge one way, so the oriented search runs
        edges = graph.edges()
        orientation = [(v, u) for u, v in edges] if reverse else edges
        graph = ColoredGraph.build(graph.n, edges, orientation=orientation)
    got = _solve_outcome(exhaustive_solve, graph, inst)
    assert got == _solve_outcome(_recursive_exhaustive_solve, graph, inst)


def test_exhaustive_search_deeper_than_the_recursion_limit():
    # a path of alternating singleton lists, longer than the recursion
    # limit: one assignment, as deep as the graph is long
    n = sys.getrecursionlimit() + 100
    graph = ColoredGraph.build(n, [(v, v + 1) for v in range(n - 1)])
    inst = LdcInstance((0, 1), tuple((v % 2,) for v in range(n)),
                       tuple({v % 2: 0} for v in range(n)))
    assert exhaustive_solve(graph, inst) == ColoringOutput(tuple(v % 2 for v in range(n)))
    # the last node's only color clashes with its neighbor's: UNSAT after
    # backtracking through every node
    clash = LdcInstance((0, 1), inst.lists[:-1] + ((n % 2,),),
                        inst.defects[:-1] + ({n % 2: 0},))
    assert exhaustive_solve(graph, clash) is None


@st.composite
def _flavor_g_instances(draw):
    """Every flavor at g = 0 and g = 1; oriented instances get a drawn
    direction per edge, so in-neighbors and out-neighbors differ."""
    n = draw(st.integers(0, 12))
    p = draw(st.sampled_from([0.2, 0.4, 0.7]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    flavor = draw(st.sampled_from(["defective", "oriented", "arbdefective"]))
    orientation = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    graph = ColoredGraph.build(n, edges, orientation if flavor == "oriented" else None)
    space = list(range(draw(st.integers(1, 6))))
    lists, defects = [], []
    for v in range(n):
        lst = rng.sample(space, rng.randrange(1, len(space) + 1))
        lists.append(tuple(lst))
        defects.append({x: rng.randrange(0, 3) for x in lst})
    g = draw(st.sampled_from([0, 1]))
    return graph, LdcInstance(tuple(space), tuple(lists), tuple(defects), flavor, g)


@settings(max_examples=400, deadline=None)
@given(_flavor_g_instances())
def test_exhaustive_search_matches_the_per_pair_search(case):
    # the search checks only the earlier nodes that count the candidate;
    # the reference checks every earlier node in turn
    graph, inst = case
    got = _solve_outcome(exhaustive_solve, graph, inst)
    assert got == _solve_outcome(_recursive_exhaustive_solve, graph, inst)


def test_exhaustive_search_on_a_long_path_checks_only_neighbors():
    # a path with alternating singleton lists: the search never branches,
    # and each candidate is checked against its one earlier neighbor
    n = 4000
    graph = ColoredGraph.build(n, [(v, v + 1) for v in range(n - 1)])
    inst = LdcInstance((0, 1), tuple((v % 2,) for v in range(n)),
                       tuple({v % 2: 0} for v in range(n)))
    assert exhaustive_solve(graph, inst) == ColoringOutput(tuple(v % 2 for v in range(n)))


@st.composite
def _shared_map_instances(draw):
    """Arbdefective instances in which every node holds one of at most three
    defect maps (one list each), drawn in any order along the node ids."""
    n = draw(st.integers(1, 14))
    p = draw(st.sampled_from([0.2, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    graph = ColoredGraph.build(n, edges)
    space = tuple(range(draw(st.integers(1, 6))))
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        lst = tuple(sorted(rng.sample(space, rng.randrange(1, len(space) + 1))))
        maps.append((lst, {x: rng.randrange(0, 4) for x in lst}))
    picks = [rng.randrange(len(maps)) for _ in range(n)]
    return graph, space, [maps[i] for i in picks]


@settings(max_examples=300, deadline=None)
@given(_shared_map_instances())
def test_shared_defect_maps_solve_like_per_node_copies(case):
    graph, space, held = case
    shared = LdcInstance(space, tuple(lst for lst, _ in held), tuple(dv for _, dv in held),
                         "arbdefective", 0)
    copies = LdcInstance(space, shared.lists, tuple(dict(dv) for _, dv in held),
                         "arbdefective", 0)
    got = _outcome(sequential_arbdefective, graph, shared)
    assert got == _outcome(sequential_arbdefective, graph, copies)
    if isinstance(got, type):
        # the same first failing node and the same message
        with pytest.raises(got) as on_shared:
            sequential_arbdefective(graph, shared)
        with pytest.raises(got) as on_copies:
            sequential_arbdefective(graph, copies)
        assert str(on_shared.value) == str(on_copies.value)


# -- path reversal against the frozen flow and every orientation ------------------


@st.composite
def _orientation_cases(draw):
    """A graph on n <= 8 nodes with any edge subset, each edge written in
    a drawn direction and order, and a cap of 0-3 per node."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    ways = draw(st.lists(st.sampled_from([None, False, True]),
                         min_size=len(pairs), max_size=len(pairs)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, ways) if flip is not None]
    edges = draw(st.permutations(edges))
    caps = {v: draw(st.integers(0, 3)) for v in range(n)}
    return n, edges, caps


def _fits(n, directed, caps):
    outdeg = [0] * n
    for u, _ in directed:
        outdeg[u] += 1
    return all(outdeg[v] <= caps[v] for v in range(n))


@settings(max_examples=300, deadline=None)
@given(_orientation_cases())
def test_path_reversal_fits_exactly_when_the_flow_and_the_brute_force_do(case):
    n, edges, caps = case
    got = oracle._orient_class(list(range(n)), edges, caps)
    assert (got is None) == (reference_orientation.orient_class(list(range(n)), edges, caps) is None)
    if len(edges) <= 10:
        every = (
            [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
            for flips in itertools.product((False, True), repeat=len(edges))
        )
        assert (got is None) == (not any(_fits(n, directed, caps) for directed in every))
    if got is not None:
        # every edge once, in one direction, and every outdegree within its cap
        assert len(got) == len(edges)
        assert all(pair in ((u, v), (v, u)) for pair, (u, v) in zip(got, edges))
        assert _fits(n, got, caps)


@settings(max_examples=150, deadline=None)
@given(_orientation_cases(), st.integers(1, 3), st.randoms(use_true_random=False))
def test_one_call_orients_each_class_as_a_call_per_class_would(case, k, rng):
    n, edges, caps = case
    colors = [rng.randrange(k) for _ in range(n)]
    mono = [(u, v) for u, v in edges if colors[u] == colors[v]]
    joint = oracle._orient_class(range(n), mono, [caps[v] for v in range(n)])
    per_class = []
    for x in range(k):
        nodes = [v for v in range(n) if colors[v] == x]
        res = oracle._orient_class(nodes, [(u, v) for u, v in mono if colors[u] == x], caps)
        per_class.append(res)
    if any(res is None for res in per_class):
        assert joint is None
    else:
        assert sorted(joint) == sorted(itertools.chain.from_iterable(per_class))


def test_path_reversal_reverses_a_three_hop_path():
    # out of their first ends, the edges overload node 0; only reversing
    # the whole path to node 3, the one node with room, fixes it
    edges = [(0, 1), (1, 2), (2, 3)]
    got = oracle._orient_class([0, 1, 2, 3], edges, {0: 0, 1: 1, 2: 1, 3: 1})
    assert got == [(1, 0), (2, 1), (3, 2)]


def test_path_reversal_refuses_a_dense_part_despite_spare_caps_elsewhere():
    # K4 needs 6 out-edges from caps of 4; the edge (4, 5) leaves 9 of its
    # 10 caps spare but cannot lend them, although 14 caps exceed 7 edges
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    caps = {0: 1, 1: 1, 2: 1, 3: 1, 4: 5, 5: 5}
    assert oracle._orient_class(list(range(6)), k4 + [(4, 5)], caps) is None
    assert reference_orientation.orient_class(list(range(6)), k4 + [(4, 5)], caps) is None


def test_exhaustive_refuses_an_oriented_instance_on_an_unoriented_graph():
    graph = ColoredGraph.build(2, [(0, 1)])
    inst = LdcInstance.build([0], [[0], [0]], [{0: 1}, {0: 1}], flavor="oriented")
    with pytest.raises(InvalidInstance, match="^oriented instance on an unoriented graph$"):
        exhaustive_solve(graph, inst)


# -- arbdefective pruning in the exhaustive search ----------------------------------


@st.composite
def _tight_arbdefective_instances(draw):
    """Dense graphs with small lists and caps: the search backtracks
    through classes whose placed nodes exceed their caps."""
    n = draw(st.integers(2, 9))
    p = draw(st.sampled_from([0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    lists = [sorted(rng.sample(range(3), rng.randrange(1, 4))) for _ in range(n)]
    defects = [{x: rng.randrange(0, 3) for x in lst} for lst in lists]
    graph = ColoredGraph.build(n, edges)
    return graph, LdcInstance.build(range(3), lists, defects, flavor="arbdefective")


@settings(max_examples=400, deadline=None)
@given(_tight_arbdefective_instances())
def test_class_pruning_keeps_the_exhaustive_verdict(case):
    graph, inst = case
    got = _solve_outcome(exhaustive_solve, graph, inst)
    assert got == _solve_outcome(_recursive_exhaustive_solve, graph, inst)


def test_an_overfull_class_is_pruned_before_any_orientation(monkeypatch):
    # K7 at two colors with cap 1: a class of four spans 6 > 4 edges, so
    # every coloring is cut short and no orientation is ever searched
    calls = []
    real = oracle._orient_class
    monkeypatch.setattr(oracle, "_orient_class", lambda *a: calls.append(a) or real(*a))
    inst = LdcInstance.build([0, 1], [[0, 1]] * 7, [{0: 1, 1: 1}] * 7, flavor="arbdefective")
    assert exhaustive_solve(complete_graph(7), inst) is None
    assert calls == []
