"""Linial over a sent record against its frozen node program.

``linial_coloring`` and ``defective_linial`` run on the same graph under
the same network setting as ``reference_engine.run`` running the
``reference_linial`` program, with every message recorded.  They must
give equal outputs and equal verbose traces, or raise the same exception
class with the same message, node, round, edge and size.
"""

from __future__ import annotations

import random
from collections import Counter
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_engine
import reference_linial
from listdefect import ColoredGraph, defective_linial, linial, linial_coloring, network
from listdefect.errors import FailFast, ListDefectError

from conftest import BUDGETS, graphs, ring_graph


@st.composite
def sparse_graphs(draw):
    """30 to 300 nodes of degree at most 1 to 3, so that n is large against
    the degree and the reduction runs rounds; oriented or not."""
    n = draw(st.integers(30, 300))
    cap = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    degree = [0] * n
    edges = set()
    for _ in range(n * cap // 2):
        u, v = sorted(rng.sample(range(n), 2))
        if degree[u] < cap and degree[v] < cap and (u, v) not in edges:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    edges = sorted(edges)
    orientation = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    return ColoredGraph.build(n, edges, orientation=orientation if draw(st.booleans()) else None)


def _outcome(solve, budget):
    with network(bits_per_message=budget, record_messages=True):
        try:
            trace = solve()
        except ListDefectError as exc:
            fields = [getattr(exc, f, None) for f in ("node", "round_no", "edge", "size")]
            return type(exc), str(exc), fields
    return trace.outputs, trace.to_json(verbose=True)


def _library(solve, *args):
    """The trace of ``solve(*args)``, whose outputs must be its colors."""
    out, trace = solve(*args)
    assert out.colors == tuple(trace.outputs)
    return trace


def test_linial_runs_as_the_frozen_program():
    seen: Counter = Counter()
    real = linial._point_from_one

    def counted(*args):
        seen["calls"] += 1
        return real(*args)

    # derandomized: the counts below must not depend on the run's seed
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.one_of(graphs(), sparse_graphs()), BUDGETS, st.integers(0, 2))
    @example(ColoredGraph.build(0, []), None, 0)
    @example(ColoredGraph.build(3, [], orientation=[]), 8, 1)
    @example(ring_graph(64, oriented=True), 6, 0)  # a palette of 64 colors fits 6 bits
    def check(graph, budget, d):
        calls = seen["calls"]
        proper = _outcome(lambda: _library(linial_coloring, graph), budget)
        assert proper == _outcome(
            lambda: reference_engine.run(graph, reference_linial.linial_program(graph)), budget
        )
        # an unoriented graph raises MissingOrientation on both sides
        defective = _outcome(lambda: _library(defective_linial, graph, d), budget)
        assert defective == _outcome(
            lambda: reference_engine.run(
                graph, reference_linial.defective_linial_program(graph, d)
            ),
            budget,
        )
        seen["point from one"] += seen["calls"] > calls
        seen["failed fast"] += any(
            isinstance(got[0], type) and issubclass(got[0], FailFast) for got in (proper, defective)
        )

    with mock.patch.object(linial, "_point_from_one", counted):
        check()
    # not vacuous: many draws pick a point past a = 0, and some abort
    assert seen["point from one"] >= 10 and seen["failed fast"] >= 5, seen
