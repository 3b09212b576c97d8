import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_linial
from listdefect import (
    ColoredGraph,
    NodeFailure,
    RawField,
    defective_linial,
    linial,
    linial_coloring,
    linial_palette,
    linial_schedule,
    network,
    run,
)
from listdefect.linial import _poly_eval

from conftest import random_dag, ring_graph


def _proper(graph, colors):
    return all(colors[u] != colors[v] for u, v in graph.edges())


def test_isolated_nodes_zero_rounds():
    g = ColoredGraph.build(5, [])
    out, trace = linial_coloring(g)
    assert out.colors == (0,) * 5
    assert trace.rounds_elapsed == 0


def test_ring8():
    ring = ring_graph(8)
    out, trace = linial_coloring(ring)
    assert _proper(ring, out.colors)
    assert linial_palette(ring) <= 8 * ring.max_degree() ** 2


def test_k5_distinct_colors():
    k5 = ColoredGraph.build(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    out, _ = linial_coloring(k5)
    assert len(set(out.colors)) == 5
    assert linial_palette(k5) <= 8 * 25


def test_palette_shrinks_on_large_rings():
    for n in (64, 256, 512):
        ring = ring_graph(n)
        out, trace = linial_coloring(ring)
        assert _proper(ring, out.colors)
        assert linial_palette(ring) <= 32
        assert trace.rounds_elapsed <= 6


def test_every_scheduled_round_shrinks():
    sched, palette = linial_schedule(512, 2)
    current = 512
    for q, e, d in sched:
        assert q ** (e + 1) >= current
        assert q > 2 * e  # degree threshold for rings
        assert q * q < current
        current = q * q
    assert current == palette


def test_defective_dominating_defect_single_color():
    g = ColoredGraph.build(4, [(0, 1), (1, 2), (2, 3)], orientation=[(0, 1), (1, 2), (2, 3)])
    out, trace = defective_linial(g, 1)
    assert set(out.colors) == {0}
    assert trace.rounds_elapsed == 0


def test_defective_zero_defect_is_proper():
    ring = ring_graph(8, oriented=True)
    out, _ = defective_linial(ring, 0)
    assert _proper(ring, out.colors)


def test_defective_random_dags():
    for seed in range(6):
        g = random_dag(40, 4, 0.25, seed)
        out, _ = defective_linial(g, 1)
        for v in range(g.n):
            same = sum(1 for u in g.out_neighbors[v] if out.colors[u] == out.colors[v])
            assert same <= 1


def test_random_graph_properness_and_shape():
    rng = random.Random(7)
    for trial in range(8):
        n = rng.randrange(12, 400)
        p = rng.choice([2.5, 5.0]) / n
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = ColoredGraph.build(n, edges)
        d = g.max_degree()
        if d < 2:
            continue
        out, trace = linial_coloring(g)
        assert _proper(g, out.colors)
        assert linial_palette(g) <= 8 * d * d
        assert trace.rounds_elapsed <= 6


class _PerPairLinial:
    """Reference: the Linial node program that evaluates both polynomials of
    every (node, neighbor) pair at every point, with no memo.  It takes the
    schedule, palettes and degenerate-graph color of a frozen reference
    program (``reference_linial``); its state is its own."""

    def __init__(self, program):
        self.program = program

    def init(self, view):
        if self.program.trivial_color is not None:
            return None, self.program.trivial_color
        if not self.program.schedule:
            return None, view.node
        relevant = view.out_neighbors if self.program.oriented else view.neighbors
        return {"color": view.node, "relevant": relevant}, None

    def _bits(self, step_idx):
        p = self.program.palettes[step_idx]
        return max(1, (p - 1).bit_length())

    def step(self, state, inbox, round_no):
        schedule = self.program.schedule
        if round_no > 1:
            q, e, d = schedule[round_no - 2]
            mine = state["color"]
            others = [inbox[u]["color"].value for u in state["relevant"] if u in inbox]
            chosen = None
            for a in range(q):
                val = _poly_eval(mine, q, e, a)
                collisions = sum(1 for c in others if _poly_eval(c, q, e, a) == val)
                if collisions <= d:
                    chosen = a * q + val
                    break
            assert chosen is not None
            state["color"] = chosen
            if round_no - 1 == len(schedule):
                return state, None, chosen
        return state, {"color": RawField(state["color"], self._bits(round_no - 1))}, None


def _random_graph(seed, n, p, oriented):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    orientation = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    return ColoredGraph.build(n, edges, orientation=orientation if oriented else None)


def _same_run(graph, solve, program):
    """``solve()`` gives the same colors and trace files as the per-pair
    reference on ``program``'s schedule, and with every message recorded,
    the same messages and sizes."""
    out, trace = solve()
    reference = run(graph, _PerPairLinial(program))
    assert out.colors == tuple(reference.outputs)
    assert trace.to_json() == reference.to_json()
    assert trace.to_csv() == reference.to_csv()
    with network(record_messages=True):
        _, recorded = solve()
        recorded_reference = run(graph, _PerPairLinial(program))
    assert recorded.to_json(verbose=True) == recorded_reference.to_json(verbose=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 160), st.floats(0.0, 0.3))
def test_memoised_linial_matches_per_pair_reference(seed, n, p):
    graph = _random_graph(seed, n, p, oriented=False)
    program = reference_linial.linial_program(graph)
    _same_run(graph, lambda: linial_coloring(graph), program)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 160), st.floats(0.0, 0.3), st.sampled_from([0, 1, 2]))
def test_memoised_defective_linial_matches_per_pair_reference(seed, n, p, d):
    graph = _random_graph(seed, n, p, oriented=True)
    program = reference_linial.defective_linial_program(graph, d)
    _same_run(graph, lambda: defective_linial(graph, d), program)


def test_polynomial_at_zero_is_the_constant_coefficient():
    for q in (2, 3, 5, 7, 11, 13):
        for e in range(1, 5):
            for c in range(q ** (e + 1)):
                assert _poly_eval(c, q, e, 0) == c % q


def test_linial_past_a_colliding_first_point_matches_per_pair_reference(monkeypatch):
    # n = 64 and max degree 2 give q = 5 in the first round; nodes 0, 5
    # and 10 all have 0 mod 5, so every one of them collides at a = 0 and
    # chooses through the memoised points a >= 1
    graph = ColoredGraph.build(64, [(0, 5), (5, 10), (10, 11), (20, 21)])
    assert linial_schedule(64, 2)[0][0][0] == 5
    calls = []
    real = linial._point_from_one

    def counted(q, e, d, mine, others, memo):
        calls.append((q, mine))
        return real(q, e, d, mine, others, memo)

    monkeypatch.setattr(linial, "_point_from_one", counted)
    program = reference_linial.linial_program(graph)
    _same_run(graph, lambda: linial_coloring(graph), program)
    assert {(5, 0), (5, 5), (5, 10)} <= set(calls)
    out, _ = linial_coloring(graph)
    assert _proper(graph, out.colors)


def test_a_node_without_a_good_point_fails_fast_naming_node_and_round(monkeypatch):
    # q = 2 and e = 1 is too small a prime for max degree 2: node 0 (the
    # constant 0) meets node 2 (p(a) = a) at a = 0 and node 3 (1 + a) at
    # a = 1, so no point is free of collisions
    graph = ColoredGraph.build(4, [(0, 2), (0, 3)])
    monkeypatch.setattr(linial, "linial_schedule", lambda *args: ([(2, 1, 0)], 4))
    with pytest.raises(NodeFailure, match="good point") as info:
        linial_coloring(graph)
    assert (info.value.node, info.value.round_no) == (0, 2)
