import json
import random
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from listdefect import (
    ColoredGraph,
    ColoringOutput,
    InvalidGraph,
    LdcInstance,
    ListDefectError,
    MissingColor,
    MissingOrientation,
    check_existence_condition,
    instance_from_json,
    instance_to_json,
    validate_ldc,
)
from listdefect.errors import ColorNotInList, InvalidInstance
from listdefect.graphs import FLAVORS, _out_lists

import reference_loader
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
    # the graph's own orientation reads on an unoriented graph with nodes
    for read in (lambda: g.outdegree(0), g.oriented_edges):
        with pytest.raises(MissingOrientation, match="^graph has no orientation$") as exc:
            read()
        assert type(exc.value) is MissingOrientation


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
    except ListDefectError as exc:
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


def test_lists_longer_than_the_graph_are_refused():
    g = ColoredGraph.build(2, [(0, 1)])
    inst = LdcInstance.build([0, 1], [[0, 1]] * 3, [{0: 0, 1: 0}] * 3)
    with pytest.raises(InvalidInstance, match="^lists length does not match node count$"):
        instance_from_json(instance_to_json(g, inst))


def test_build_refuses_init_colors_of_the_wrong_length():
    with pytest.raises(InvalidGraph, match="^init_colors length mismatch$"):
        ColoredGraph.build(3, [(0, 1)], init_colors=[0, 1])


def test_direct_construction_refuses_repeated_colors():
    with pytest.raises(InvalidInstance, match="^color space has duplicates$"):
        LdcInstance((0, 1, 0), ((0,),), ({0: 0},))
    with pytest.raises(InvalidInstance, match="^list of node 1 has duplicates$"):
        LdcInstance((0, 1), ((0,), (1, 1)), ({0: 0}, {1: 0}))


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


def test_subgraph_refuses_ids_outside_the_graph():
    g = ColoredGraph.build(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidGraph, match=r"^subgraph ids -1\.\.0 outside range\(3\)$"):
        g.subgraph([-1, 0])
    with pytest.raises(InvalidGraph, match=r"^subgraph ids 0\.\.5 outside range\(3\)$"):
        g.subgraph([5, 0])
    assert g.subgraph([2, 0, 1, 0]) == (g, [0, 1, 2])


# -- validate_ldc against the per-neighbor loop --------------------------------


def _loop_validate(graph, inst, out):
    """``validate_ldc`` as one loop over every node and relevant neighbor,
    testing |color(u) - color(v)| <= g per neighbor."""
    if len(out.colors) != graph.n:
        raise InvalidInstance("output length mismatch")
    for v, c in enumerate(out.colors):
        if c is None:
            raise MissingColor(f"node {v} is uncolored")
        if c not in inst.defects[v]:
            raise ColorNotInList(f"node {v} colored {c}, not in its list")
    relevant = _out_lists(graph, inst, out)
    conflicts = []
    over = []
    for v in range(graph.n):
        cv = out.colors[v]
        cnt = sum(1 for u in relevant[v] if abs(out.colors[u] - cv) <= inst.g)
        conflicts.append(cnt)
        over.append(cnt > inst.defects[v][cv])
    return not any(over), tuple(conflicts), [v for v, bad in enumerate(over) if bad]


@st.composite
def validator_cases(draw):
    """Any flavor and g in 0..2 on a graph of up to 7 nodes, with or
    without an input orientation.  Colors come from the lists over a space
    of spread-out values, so proximity at g > 0 differs from equality;
    defects are small (often violated) or roomy (always valid).  An
    arbdefective output mostly carries a full orientation.  A few outputs
    are faulty: a node uncolored or off its list, a wrong length, or no
    output orientation."""
    n = draw(st.integers(1, 7))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
    directed = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    g = ColoredGraph.build(n, edges, orientation=directed if draw(st.booleans()) else None)
    space = [0, 1, 2, 4, 7, 8]
    top = draw(st.sampled_from([1, 3, n]))
    lists = [sorted(draw(st.sets(st.sampled_from(space), min_size=1, max_size=4))) for _ in range(n)]
    defects = [{x: draw(st.integers(0, top)) for x in lst} for lst in lists]
    inst = LdcInstance.build(
        space, lists, defects, flavor=draw(st.sampled_from(FLAVORS)), g=draw(st.integers(0, 2))
    )
    colors = [draw(st.sampled_from(lst)) for lst in lists]
    orientation = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    fault = draw(st.sampled_from([None] * 8 + ["uncolored", "off-list", "length", "unoriented"]))
    if fault == "uncolored":
        colors[draw(st.integers(0, n - 1))] = None
    elif fault == "off-list":
        v = draw(st.integers(0, n - 1))
        colors[v] = min(set(space) - set(lists[v]), default=colors[v])
    elif fault == "length":
        colors.append(colors[0])
    elif fault == "unoriented":
        orientation = None
    return g, inst, ColoringOutput(tuple(colors), None if orientation is None else tuple(orientation))


@settings(max_examples=400, deadline=None)
@given(validator_cases())
def test_validate_ldc_matches_the_per_neighbor_loop(case):
    expected = _outcome(_loop_validate, *case)
    rep = _outcome(validate_ldc, *case)
    if rep[0] == "ok":
        rep = "ok", (rep[1].valid, rep[1].conflicts, rep[1].violating_nodes())
    assert rep == expected


# -- ColoredGraph.build and the loader against their frozen references -------


@st.composite
def faulty_graphs(draw):
    """A random simple edge list, each edge in either direction or all in
    canonical order, with up to four faults inserted anywhere: an end out
    of range, a self-loop, an edge repeated as it is or reversed.  Some
    edges are lists, as JSON decodes them.  The initial coloring is proper
    or random, with colors that may leave [0, m)."""
    n = draw(st.integers(0, 7))
    edges = [(v, u) if draw(st.booleans()) else (u, v)
             for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
    edges = draw(st.permutations(edges))
    if draw(st.booleans()):  # the order instance_to_json writes
        edges = sorted((min(e), max(e)) for e in edges)
    if draw(st.booleans()):
        init = draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n))
    else:
        init = [0] * n
        for v in draw(st.permutations(range(n))):
            used = {init[b if a == v else a] for a, b in edges if v in (a, b)}
            init[v] = min(set(range(n + 1)) - used)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["range", "loop", "repeat", "reverse"]))
        at = draw(st.integers(0, len(edges)))
        if kind == "range":
            inside = draw(st.integers(-1, n))
            outside = draw(st.sampled_from([-2, -1, n, n + 1]))
            edges.insert(at, (inside, outside) if draw(st.booleans()) else (outside, inside))
        elif kind == "loop":
            u = draw(st.integers(-1, n))
            edges.insert(at, (u, u))
        elif edges:
            u, v = edges[draw(st.integers(0, len(edges) - 1))]
            edges.insert(at, (u, v) if kind == "repeat" else (v, u))
    edges = [list(e) if draw(st.booleans()) else e for e in edges]
    m = draw(st.none() | st.integers(0, 5))
    return n, edges, init, m


@settings(max_examples=300, deadline=None)
@example((3, [(0, 1), (2, 2), (1, 0), (3, 3)], [0, 1, 0], None))
@example((3, [(0, 1), (1, 0), (2, 2)], [0, 1, 0], None))
@example((3, [(3, 3), (1, 1)], [0, 1, 0], None))
@example((3, [(0, 1), (1, 2)], [0, 0, 5], 3))
@example((3, [(0, 1), (1, 2)], [0, 5, 5], 3))
# canonical order with one fault: a repeat, a reversed pair (a repeat or
# not), a self-loop, an end out of range; then list and tuple edges mixed
@example((4, [(0, 1), (1, 2), (1, 2), (2, 3)], [0, 1, 0, 1], None))
@example((4, [(0, 1), (1, 2), (2, 1), (2, 3)], [0, 1, 0, 1], None))
@example((4, [(0, 1), (2, 1), (2, 3)], [0, 1, 0, 1], None))
@example((4, [(0, 1), (1, 1), (1, 2), (2, 3)], [0, 1, 0, 1], None))
@example((4, [(0, 1), (1, 2), (2, 3), (3, 4)], [0, 1, 0, 1], None))
@example((4, [(-1, 0), (0, 1), (1, 2)], [0, 1, 0, 1], None))
@example((3, [[0, 1], (0, 2), [1, 2]], [0, 1, 2], None))
@example((3, [[0, 1], (0, 1), [1, 2]], [0, 1, 0], None))
@example((3, [(0, 1), [0, 2], (1, 2)], [0, 1, 1], None))
@given(faulty_graphs())
def test_build_names_the_first_fault_like_the_edge_set_loop(case):
    # the first faulty edge in input order is named, out of range before
    # self-loop before multi-edge; then the first bad node in id order, an
    # improper edge to a higher neighbor before its own color's range
    n, edges, init, m = case
    assert _outcome(ColoredGraph.build, n, edges, None, init, m) == _outcome(
        reference_loader.build, n, edges, None, init, m
    )


def _loaded(load, text: str):
    """A loader's graph, instance, defect map orders and JSON bytes, or the
    class and message of what it raised."""
    try:
        graph, inst = load(text)
    except Exception as exc:  # the two loaders must agree on every outcome
        return type(exc), str(exc)
    orders = [list(dv.items()) for dv in inst.defects]
    return "ok", graph, inst, orders, instance_to_json(graph, inst)


@st.composite
def valid_instance_docs(draw):
    """A decoded instance as ``instance_to_json`` writes it: a small graph
    with a proper coloring and maybe an orientation, colors up to 24 so
    that string and int key orders differ, and any flavor and g."""
    n = draw(st.integers(0, 6))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
    orientation = None
    if draw(st.booleans()):
        orientation = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    init = [0] * n
    for v in draw(st.permutations(range(n))):
        used = {init[b if a == v else a] for a, b in edges if v in (a, b)}
        init[v] = draw(st.sampled_from(sorted(set(range(n + 1)) - used)))
    m = max(init, default=0) + 1 + draw(st.integers(0, 2))
    graph = ColoredGraph.build(n, edges, orientation=orientation, init_colors=init, m=m)
    space = sorted(draw(st.sets(st.integers(0, 24), min_size=1, max_size=8)))
    lists = [sorted(draw(st.sets(st.sampled_from(space), min_size=1, max_size=4))) for _ in range(n)]
    defects = [{x: draw(st.integers(0, 3)) for x in lst} for lst in lists]
    inst = LdcInstance.build(space, lists, defects, draw(st.sampled_from(FLAVORS)),
                             draw(st.integers(0, 2)))
    return json.loads(instance_to_json(graph, inst))


_JUNK = ["x", 1.5, True, None, [], {}, -1, [[0, 1]], [{"0": 0}], {"0": 1}]


_MUTATIONS = (
    "schema", "repeat-color", "reorder", "reverse-edge", "self-loop", "out-of-range",
    "improper", "small-m", "outside-space", "negative-color", "negative-defect", "bad-defect",
    "key-spelling", "key-order", "orientation", "setting",
)


def _mutate(rnd, doc: dict, kind: str) -> None:
    """One fault or normalisable change of the kind, made in place with
    the positions and values ``rnd`` chooses."""
    def field(key):
        # a list field as the document now holds it; a fresh list if an
        # earlier mutation dropped or retyped it
        value = doc.get(key)
        return value if type(value) is list else []

    def insert(seq, item):
        seq.insert(rnd.randint(0, len(seq)), item)

    pick = rnd.choice
    n = len(field("init_colors"))
    # int pairs only: a retyped entry such as [0, "x"] cannot feed min(u, v)
    edges = [
        e for e in field("edges") if type(e) is list and len(e) == 2 and set(map(type, e)) == {int}
    ]
    rows = [r for r in field("lists") if type(r) is list and r]
    maps = [dv for dv in field("defects") if type(dv) is dict and dv]
    if kind == "schema":
        kind = pick(["drop", "retype", "retype-entry"])
    if kind == "drop" and doc:
        del doc[pick(sorted(doc))]
    elif kind == "retype" and doc:
        doc[pick(sorted(doc))] = pick(_JUNK)
    elif kind == "retype-entry":
        seq = field(pick(["edges", "init_colors", "color_space", "lists", "defects", "orientation"]))
        if seq:
            i = rnd.randrange(len(seq))
            if type(seq[i]) is list and seq[i] and rnd.random() < 0.5:
                seq[i][rnd.randrange(len(seq[i]))] = pick(_JUNK)
            else:
                seq[i] = pick(_JUNK)
    elif kind == "repeat-color" and rows:
        row = pick(rows)
        insert(row, pick(row))
    elif kind == "reorder":
        pick([r for r in rows if len(r) > 1] + [field("color_space")]).reverse()
    elif kind == "reverse-edge" and edges:
        u, v = pick(edges)
        insert(field("edges"), [v, u])
    elif kind == "self-loop":
        u = rnd.randint(0, max(0, n - 1))
        insert(field("edges"), [u, u])
    elif kind == "out-of-range":
        pair = [rnd.randint(0, max(0, n - 1)), pick([-1, n, n + 1])]
        insert(field(pick(["orientation", "edges"])), pair[::pick([1, -1])])
    elif kind == "improper" and edges:
        u, v = pick(edges)
        colors = field("init_colors")
        if 0 <= min(u, v) and max(u, v) < len(colors):
            colors[v] = colors[u]
    elif kind == "small-m":
        doc["m"] = rnd.randint(-1, max([c for c in field("init_colors") if type(c) is int], default=0))
    elif kind == "outside-space" and rows:
        c = pick([c for c in range(27) if c not in field("color_space")])
        pick(rows).append(c)
        if maps and rnd.random() < 0.5:
            pick(maps)[str(c)] = 0
    elif kind == "negative-color":
        insert(field("color_space"), rnd.randint(-3, -1))
    elif kind in ("negative-defect", "bad-defect") and maps:
        dv = pick(maps)
        bad = [-1, -3] if kind == "negative-defect" else [1.5, "1", True, None, [0]]
        dv[pick(sorted(dv))] = pick(bad)
    elif kind == "key-spelling" and maps:
        dv = pick(maps)
        key = pick(sorted(dv))
        spelling = pick(["0", " ", "+", "x"]) + key if rnd.random() < 0.5 else key + " "
        # a second spelling next to the first names one color twice
        dv[spelling] = dv[key] if rnd.random() < 0.5 else dv.pop(key)
    elif kind == "key-order" and maps:
        dv = pick(maps)
        items = list(dv.items())
        rnd.shuffle(items)
        dv.clear()
        dv.update(items)
    elif kind == "orientation":
        pairs = field("orientation")
        # an earlier retype may have left entries that are not pairs
        whole = [p for p in pairs if type(p) is list and len(p) == 2]
        if pairs and rnd.random() < 0.5:
            del pairs[rnd.randrange(len(pairs))]
        elif whole:
            u, v = pick(whole)
            insert(pairs, pick([[v, u], [u, v]]))
        elif not pairs and edges:
            doc["orientation"] = [pick(edges)]
    elif kind == "setting":
        key = pick(["flavor", "g", "n", "lists", "defects", "color_space", "node"])
        if key == "flavor":
            doc[key] = pick(["plain", "Defective", ""])
        elif key == "g":
            doc[key] = rnd.randint(-2, -1)
        elif key == "n":
            doc[key] = n + pick([-1, 1])
        elif key == "node":
            # one list and its map fewer than the graph has nodes
            for seq in (field("lists"), field("defects")):
                del seq[len(seq) - 1:]
        elif field(key):
            field(key).pop()


@st.composite
def mutated_instance_texts(draw, first: str):
    """Valid instance JSON with a mutation of the kind ``first``, up to two
    more of any kind, and perhaps one key written twice, junk in the
    first or the last (the one kept)."""
    doc = draw(valid_instance_docs())
    rnd = draw(st.randoms())
    for kind in [first] + [rnd.choice(_MUTATIONS) for _ in range(rnd.randint(0, 2))]:
        _mutate(rnd, doc, kind)
    text = json.dumps(doc)
    if doc and rnd.random() < 0.25:
        junk = f"{json.dumps(rnd.choice(sorted(doc)))}: {json.dumps(rnd.choice(_JUNK))}"
        text = "{" + junk + ", " + text[1:] if rnd.random() < 0.5 else text[:-1] + ", " + junk + "}"
    return text


# one mutation kind per case, so each kind gets its share of the examples
@pytest.mark.parametrize("first", _MUTATIONS)
@settings(max_examples=16, deadline=None)
@given(data=st.data())
def test_loader_matches_the_frozen_reference(first, data):
    text = data.draw(mutated_instance_texts(first), label="text")
    assert _loaded(instance_from_json, text) == _loaded(reference_loader.instance_from_json, text)


def test_writer_matches_the_frozen_reference_on_a_spread_instance():
    # oriented, a space with gaps and colors past 9 (string keys sort apart), g > 0
    g = ColoredGraph.build(4, [(0, 1), (1, 2), (2, 3)], orientation=[(1, 0), (1, 2), (3, 2)],
                           init_colors=[0, 1, 0, 1], m=3)
    inst = LdcInstance.build([0, 3, 9, 10, 21], [[3, 10], [0, 21], [9], [3, 9, 10]],
                             [{3: 0, 10: 2}, {0: 1, 21: 0}, {9: 3}, {10: 1, 3: 0, 9: 2}],
                             flavor="oriented", g=2)
    assert instance_to_json(g, inst) == reference_loader.instance_to_json(g, inst)


@settings(max_examples=150, deadline=None)
@given(valid_instance_docs())
def test_writer_matches_the_frozen_reference(doc):
    graph, inst = instance_from_json(json.dumps(doc))
    assert instance_to_json(graph, inst) == reference_loader.instance_to_json(graph, inst)


def test_edge_mutations_pass_over_entries_that_are_not_int_pairs():
    # a retype-entry mutation can leave [0, "x"] in the edges, which
    # improper once fed to min(u, v) inside the strategy
    doc = {"n": 2, "edges": [[0, "x"]], "init_colors": [0, 1], "m": 2}
    for kind in ("improper", "reverse-edge", "orientation"):
        _mutate(random.Random(0), doc, kind)
    assert doc == {"n": 2, "edges": [[0, "x"]], "init_colors": [0, 1], "m": 2}
