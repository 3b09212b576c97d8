import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listdefect import (
    ColoredGraph,
    ColoringOutput,
    InvalidGraph,
    LdcInstance,
    MissingColor,
    MissingOrientation,
    check_existence_condition,
    instance_from_json,
    instance_to_json,
    validate_ldc,
)
from listdefect.errors import ColorNotInList, InvalidInstance

from conftest import complete_graph


def test_monochromatic_edge_zero_defect_invalid():
    g = ColoredGraph.build(2, [(0, 1)], init_colors=[0, 1], m=2)
    inst = LdcInstance.build([7], [[7], [7]], [{7: 0}, {7: 0}])
    rep = validate_ldc(g, inst, ColoringOutput((7, 7)))
    assert not rep.valid
    assert rep.conflicts == (1, 1)


def test_defect_one_absorbs_conflict():
    g = ColoredGraph.build(2, [(0, 1)], init_colors=[0, 1], m=2)
    inst = LdcInstance.build([7], [[7], [7]], [{7: 1}, {7: 1}])
    assert validate_ldc(g, inst, ColoringOutput((7, 7))).valid


def test_oriented_path_defect_one_valid():
    # u -> v -> w, all colored 3: each node has at most one out-neighbor of 3
    g = ColoredGraph.build(
        3, [(0, 1), (1, 2)], orientation=[(0, 1), (1, 2)], init_colors=[0, 1, 0], m=2
    )
    inst = LdcInstance.build([3], [[3]] * 3, [{3: 1}] * 3, flavor="oriented")
    rep = validate_ldc(g, inst, ColoringOutput((3, 3, 3)))
    assert rep.valid and rep.conflicts == (1, 1, 0)


def test_validate_errors():
    g = ColoredGraph.build(2, [(0, 1)], init_colors=[0, 1], m=2)
    inst = LdcInstance.build([1, 2], [[1], [2]], [{1: 0}, {2: 0}])
    with pytest.raises(MissingColor):
        validate_ldc(g, inst, ColoringOutput((1, None)))
    with pytest.raises(ColorNotInList):
        validate_ldc(g, inst, ColoringOutput((2, 2)))
    arb = LdcInstance.build([1, 2], [[1], [2]], [{1: 0}, {2: 0}], flavor="arbdefective")
    with pytest.raises(MissingOrientation):
        validate_ldc(g, arb, ColoringOutput((1, 2)))
    ori = LdcInstance.build([1, 2], [[1], [2]], [{1: 0}, {2: 0}], flavor="oriented")
    with pytest.raises(MissingOrientation):
        validate_ldc(g, ori, ColoringOutput((1, 2)))


def test_graph_construction_rejects_junk():
    with pytest.raises(InvalidGraph):
        ColoredGraph.build(2, [(0, 0)])
    with pytest.raises(InvalidGraph):
        ColoredGraph.build(2, [(0, 1), (1, 0)])
    with pytest.raises(InvalidGraph):
        ColoredGraph.build(2, [(0, 1)], init_colors=[1, 1], m=2)
    with pytest.raises(InvalidGraph):
        ColoredGraph.build(3, [(0, 1), (1, 2)], orientation=[(0, 1)])


# a path 0 - 1 - 2: broken orientations of it and their messages
_BAD_ORIENTATIONS = {
    "non-edge": ([(0, 1), (1, 2), (0, 2)], "not an edge"),
    "out-of-range": ([(0, 3), (0, 1), (1, 2)], "not an edge"),
    # adjacency[-1] is node 2's tuple, which holds 1
    "negative": ([(0, 1), (-1, 1), (1, 2)], "not an edge"),
    "twice": ([(0, 1), (1, 2), (2, 1)], "oriented twice"),
    "reversed-first": ([(1, 0), (0, 1), (1, 2)], r"edge \(0, 1\) oriented twice"),
    "same-twice": ([(1, 2), (1, 2), (0, 1)], r"edge \(1, 2\) oriented twice"),
    "incomplete": ([(0, 1)], "does not cover"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ORIENTATIONS))
def test_graph_build_rejects_a_bad_orientation(case):
    orientation, message = _BAD_ORIENTATIONS[case]
    with pytest.raises(InvalidGraph, match=message):
        ColoredGraph.build(3, [(0, 1), (1, 2)], orientation=orientation)


@pytest.mark.parametrize("case", sorted(_BAD_ORIENTATIONS))
def test_validate_rejects_a_bad_output_orientation(case):
    g = ColoredGraph.build(3, [(0, 1), (1, 2)], init_colors=[0, 1, 0], m=2)
    arb = LdcInstance.build([5], [[5]] * 3, [{5: 2}] * 3, flavor="arbdefective")
    good = ColoringOutput((5, 5, 5), ((1, 0), (1, 2)))
    assert validate_ldc(g, arb, good).valid
    orientation, message = _BAD_ORIENTATIONS[case]
    with pytest.raises(MissingOrientation, match=message):
        validate_ldc(g, arb, ColoringOutput((5, 5, 5), tuple(orientation)))


def _edge_set_out_lists(n, edge_set, orientation, error):
    """The orientation check as a scan against a set of (min, max) edges."""
    seen = set()
    outl = [[] for _ in range(n)]
    for u, v in orientation:
        key = (min(u, v), max(u, v))
        if key not in edge_set:
            raise error(f"oriented pair ({u},{v}) is not an edge")
        if key in seen:
            raise error(f"edge {key} oriented twice")
        seen.add(key)
        outl[u].append(v)
    if len(seen) != len(edge_set):
        raise error("orientation does not cover every edge")
    return tuple(tuple(sorted(x)) for x in outl)


def _outcome(fn, *args):
    """("ok", fn's result), or the class and message of what it raised."""
    try:
        return "ok", fn(*args)
    except (InvalidGraph, MissingOrientation) as exc:
        return type(exc), str(exc)


@st.composite
def faulty_orientations(draw):
    """A random graph and an orientation of it with random faults:
    pairs inserted (endpoints may leave the node range), pairs repeated
    as they are or reversed, pairs dropped."""
    n = draw(st.integers(1, 7))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
    pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    pairs = draw(st.permutations(pairs))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["insert", "repeat", "reverse", "drop"]))
        at = draw(st.integers(0, len(pairs)))
        if kind == "insert":
            end = st.integers(-2, n + 1)
            pairs.insert(at, (draw(end), draw(end)))
        elif pairs:
            i = draw(st.integers(0, len(pairs) - 1))
            u, v = pairs[i]
            if kind == "drop":
                del pairs[i]
            else:
                pairs.insert(at, (u, v) if kind == "repeat" else (v, u))
    return n, edges, pairs


@settings(max_examples=400, deadline=None)
@given(faulty_orientations())
def test_orientation_check_matches_the_edge_set_scan(case):
    n, edges, pairs = case
    expected = _outcome(_edge_set_out_lists, n, set(edges), pairs, InvalidGraph)
    built = _outcome(lambda: ColoredGraph.build(n, edges, pairs).out_neighbors)
    assert built == expected
    g = ColoredGraph.build(n, edges)
    arb = LdcInstance.build([0], [[0]] * n, [{0: n}] * n, flavor="arbdefective")
    out = ColoringOutput((0,) * n, tuple(pairs))
    checked = _outcome(lambda: validate_ldc(g, arb, out).valid)
    assert checked == (("ok", True) if expected[0] == "ok" else (MissingOrientation, expected[1]))


def test_instance_checks_each_run_of_a_shared_pair_once():
    shared, zero = (0, 1), {0: 0, 1: 0}
    assert LdcInstance((0, 1), (shared,) * 5, (zero,) * 5, "arbdefective").n() == 5
    with pytest.raises(InvalidInstance, match="list of node 0 leaves"):
        LdcInstance((0,), (shared,) * 3, (zero,) * 3)
    # the same list with another defect map is a new pair, checked again
    negative = {0: 0, 1: -1}
    with pytest.raises(InvalidInstance, match="negative defect at node 3"):
        LdcInstance((0, 1), (shared,) * 5, (zero,) * 3 + (negative, zero))
    with pytest.raises(InvalidInstance, match="defect domain of node 2"):
        LdcInstance((0, 1), (shared, shared, (0,)), (zero,) * 3)


def test_beta_floors_at_one():
    g = ColoredGraph.build(2, [(0, 1)], orientation=[(0, 1)])
    assert g.outdegree(1) == 0
    assert g.beta(1) == 1


def test_existence_condition_examples():
    k4 = complete_graph(4)
    two = LdcInstance.build([0, 1], [[0, 1]] * 4, [{0: 1, 1: 1}] * 4)
    assert check_existence_condition(k4, two) == [True] * 4
    three = LdcInstance.build([0, 1, 2], [[0, 1, 2]] * 4, [{0: 0, 1: 0, 2: 0}] * 4)
    assert check_existence_condition(k4, three) == [False] * 4  # boundary is strict
    k5 = complete_graph(5)
    arb = LdcInstance.build([0, 1], [[0, 1]] * 5, [{0: 1, 1: 1}] * 5, flavor="arbdefective")
    assert check_existence_condition(k5, arb) == [True] * 5


def test_json_round_trip_stable():
    g = ColoredGraph.build(
        3, [(0, 1), (1, 2)], orientation=[(0, 1), (2, 1)], init_colors=[0, 1, 0], m=2
    )
    inst = LdcInstance.build([0, 1, 5], [[0, 5], [1], [0, 1]],
                             [{0: 1, 5: 0}, {1: 2}, {0: 0, 1: 0}], flavor="oriented", g=1)
    text = instance_to_json(g, inst)
    g2, inst2 = instance_from_json(text)
    assert instance_to_json(g2, inst2) == text
    assert g2.out_neighbors == g.out_neighbors


@st.composite
def small_colored_case(draw):
    n = draw(st.integers(2, 6))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append((u, v))
    g = ColoredGraph.build(n, edges)
    space = list(range(6))
    lists, defects, colors = [], [], []
    for v in range(n):
        size = draw(st.integers(1, 4))
        lst = sorted(draw(st.permutations(space))[:size])
        lists.append(lst)
        defects.append({x: draw(st.integers(0, 3)) for x in lst})
        colors.append(draw(st.sampled_from(lst)))
    gg = draw(st.integers(0, 2))
    inst = LdcInstance.build(space, lists, defects, g=gg)
    return g, inst, ColoringOutput(tuple(colors))


@settings(max_examples=150, deadline=None)
@given(small_colored_case())
def test_validator_matches_bruteforce_recount(case):
    """Oracle equivalence: an independent neighbor scan agrees."""
    g, inst, out = case
    rep = validate_ldc(g, inst, out)
    for v in range(g.n):
        count = 0
        for u in range(g.n):
            if u != v and u in g.adjacency[v] and abs(out.colors[u] - out.colors[v]) <= inst.g:
                count += 1
        assert rep.conflicts[v] == count
        assert (count <= inst.defects[v][out.colors[v]]) == (v not in rep.violating_nodes())


@settings(max_examples=100, deadline=None)
@given(small_colored_case(), st.integers(0, 5))
def test_validator_monotone_in_defects(case, bump):
    g, inst, out = case
    before = validate_ldc(g, inst, out).valid
    raised = LdcInstance.build(
        inst.color_space,
        inst.lists,
        [{x: d + bump for x, d in dv.items()} for dv in inst.defects],
        flavor=inst.flavor,
        g=inst.g,
    )
    after = validate_ldc(g, raised, out).valid
    assert after or not before


def test_proper_coloring_valid_under_all_flavors():
    g = ColoredGraph.build(
        3, [(0, 1), (1, 2)], orientation=[(0, 1), (2, 1)], init_colors=[0, 1, 0], m=2
    )
    lists = [[0, 1], [0, 1, 2], [0, 2]]
    defects = [{x: 0 for x in l} for l in lists]
    out = ColoringOutput((0, 1, 2), ((0, 1), (2, 1)))
    for flavor in ("defective", "oriented", "arbdefective"):
        inst = LdcInstance.build([0, 1, 2], lists, defects, flavor=flavor)
        assert validate_ldc(g, inst, out).valid


def test_init_colors_length_is_checked_before_build(monkeypatch):
    g = ColoredGraph.build(3, [(0, 1), (1, 2)], init_colors=[0, 1, 0], m=2)
    inst = LdcInstance.build([0, 1], [[0, 1]] * 3, [{0: 0, 1: 0}] * 3)
    doc = json.loads(instance_to_json(g, inst))
    doc["n"] = 4

    def no_build(*args, **kwargs):
        raise AssertionError("build called before the length check")

    monkeypatch.setattr(ColoredGraph, "build", staticmethod(no_build))
    with pytest.raises(InvalidInstance, match="init_colors length"):
        instance_from_json(json.dumps(doc))


def test_missing_keys_are_named_up_front():
    g = ColoredGraph.build(3, [(0, 1), (1, 2)], orientation=[(0, 1), (1, 2)])
    inst = LdcInstance.build([0, 1], [[0, 1]] * 3, [{0: 0, 1: 0}] * 3, flavor="oriented")
    doc = json.loads(instance_to_json(g, inst))
    for key in ("flavor", "defects", "g"):
        del doc[key]
    with pytest.raises(InvalidInstance, match="lacks defects, flavor, g$"):
        instance_from_json(json.dumps(doc))
    # orientation is optional
    doc = json.loads(instance_to_json(g, inst))
    del doc["orientation"]
    assert instance_from_json(json.dumps(doc))[0].out_neighbors is None


def _rebuilt_subgraph(graph, nodes):
    """The induced subgraph as it was made before slicing: an edge list,
    an orientation list and the inherited colors through ``build``."""
    keep = sorted(set(nodes))
    index = {u: i for i, u in enumerate(keep)}
    edges = [
        (index[u], index[v]) for u in keep for v in graph.adjacency[u] if u < v and v in index
    ]
    ori = None
    if graph.out_neighbors is not None:
        ori = [(index[u], index[v]) for u in keep for v in graph.out_neighbors[u] if v in index]
    g = ColoredGraph.build(
        len(keep),
        edges,
        orientation=ori,
        init_colors=[graph.init_colors[u] for u in keep],
        m=graph.m,
    )
    return g, keep


@st.composite
def graphs_and_node_collections(draw):
    """A graph with or without an orientation, a shuffled proper initial
    coloring with an explicit, roomy m, and a node collection that may be
    unsorted, repeat nodes, be empty or be a set."""
    n = draw(st.integers(0, 9))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
    orientation = None
    if draw(st.booleans()):
        orientation = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    colors = [0] * n
    for v in draw(st.permutations(range(n))):
        used = {colors[u] for u in adjacency[v]}
        colors[v] = draw(st.sampled_from(sorted(set(range(n + 1)) - used)))
    m = max(colors, default=0) + 1 + draw(st.integers(0, 3))
    graph = ColoredGraph.build(n, edges, orientation=orientation, init_colors=colors, m=m)
    nodes = draw(st.lists(st.integers(0, n - 1), max_size=2 * n) if n else st.just([]))
    if draw(st.booleans()):
        nodes = set(nodes)
    return graph, nodes


@settings(max_examples=300, deadline=None)
@given(graphs_and_node_collections())
def test_subgraph_matches_the_rebuilt_subgraph(case):
    graph, nodes = case
    sub, keep = graph.subgraph(nodes)
    ref, ref_keep = _rebuilt_subgraph(graph, nodes)
    for f in fields(ColoredGraph):
        assert getattr(sub, f.name) == getattr(ref, f.name), f.name
    assert keep == ref_keep
