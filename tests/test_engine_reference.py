"""The round engine against its frozen reference (``reference_engine.run``).

Both engines run the same program on the same graph under the same
network setting, with every message recorded.  They must give equal
outputs and equal verbose traces, or raise the same exception class with
the same message, node, round, edge and size.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine
import reference_linial
import reference_single_defect
from listdefect import OldcConfig, RawField, network, runtime
from listdefect.errors import FailFast, NodeFailure

from conftest import BUDGETS, graphs


def _outcome(engine, graph, program, budget, max_rounds):
    with network(bits_per_message=budget, record_messages=True):
        try:
            trace = engine(graph, program, max_rounds)
        except FailFast as exc:
            fields = [getattr(exc, f, None) for f in ("node", "round_no", "edge", "size")]
            return type(exc), str(exc), fields
    return trace.outputs, trace.to_json(verbose=True)


def assert_same_run(graph, program, budget=None, max_rounds=10_000):
    got = _outcome(runtime.run, graph, program, budget, max_rounds)
    assert got == _outcome(reference_engine.run, graph, program, budget, max_rounds)


@settings(max_examples=80, deadline=None)
@given(graphs(), BUDGETS, st.integers(0, 2))
def test_linial_programs_run_as_on_the_reference(graph, budget, d):
    assert_same_run(graph, reference_linial.linial_program(graph), budget)
    if graph.out_neighbors is not None:
        assert_same_run(graph, reference_linial.defective_linial_program(graph, d), budget)


@settings(max_examples=40, deadline=None)
@given(graphs(oriented=True), BUDGETS, st.integers(0, 1), st.integers(0, 2**32 - 1))
def test_single_defect_program_runs_as_on_the_reference(graph, budget, g, seed):
    rng = random.Random(seed)
    space = list(range(48))
    lists = [sorted(rng.sample(space, 8)) for _ in range(graph.n)]
    try:
        program = reference_single_defect.single_defect_program(
            graph, space, lists, [1] * graph.n, g, OldcConfig(alpha=1.0, scale_override=(2, 2))
        )
    except FailFast:  # a check or the type table before the first round
        return
    assert_same_run(graph, program, budget)


class SegmentProgram:
    """One broadcast step on the engine: the given nodes send, and every
    node is done."""

    def __init__(self, senders):
        self.senders = senders

    def init(self, view):
        return view.node, None

    def step(self, v, inbox, round_no):
        return v, self.senders.get(v), True


def _priced(price, budget):
    """The per-round bits and message record of ``price()``, or its
    exception with the same fields as ``_outcome``."""
    with network(bits_per_message=budget, record_messages=True):
        try:
            trace = price()
        except FailFast as exc:
            fields = [getattr(exc, f, None) for f in ("node", "round_no", "edge", "size")]
            return type(exc), str(exc), fields
    return trace.max_message_bits, trace.messages


@settings(max_examples=60, deadline=None)
@given(graphs(), BUDGETS, st.data())
def test_segment_program_runs_as_on_the_reference(graph, budget, data):
    # runtime.broadcast prices a sent record as the engine runs the step
    shared = {"x": RawField(0, 5)}
    senders = {
        v: shared if data.draw(st.booleans()) else {"x": RawField(v, v % 9), "y": RawField(0, 1)}
        for v in data.draw(st.sets(st.integers(0, max(0, graph.n - 1)))) if v < graph.n
    }
    got = _priced(lambda: runtime.broadcast(graph, senders), budget)
    program = SegmentProgram(senders)
    assert got == _priced(lambda: reference_engine.run(graph, program), budget)


SHARED = {"s": RawField("shared", 4)}
# what a node sends in a round: silence, a falsy message, the shared
# message, a fresh one, a 0-bit one, and one over every budget drawn
KINDS = ("silent", "falsy", "shared", "fresh", "zero", "over")


class Scripted:
    """Node v outputs after rounds[v] steps (0: at init) and sends
    sends[v][r - 1] in round r; its output is every inbox it read.  Node
    fail[0] raises NodeFailure in round fail[1] (0: at init), naming
    fail[2] when that is not None."""

    def __init__(self, rounds, sends, fail):
        self.rounds, self.sends, self.fail = rounds, sends, fail

    def _check(self, v, rnd):
        if self.fail is not None and self.fail[:2] == (v, rnd):
            raise NodeFailure("scripted", node=self.fail[2])

    def init(self, view):
        self._check(view.node, 0)
        if self.rounds[view.node] == 0:
            return None, ["zero-round", view.node]
        return [view.node, []], None

    def step(self, state, inbox, rnd):
        v, read = state
        self._check(v, rnd)
        read.append(list(inbox.items()))
        kind = KINDS[self.sends[v][(rnd - 1) % len(self.sends[v])]]
        msg = {
            "silent": None,
            "falsy": {},
            "shared": SHARED,
            "fresh": {"f": RawField((v, rnd), v % 4), "g": RawField(rnd, 2)},
            "zero": {"z": RawField(0, 0)},
            "over": {"o": RawField(v, 64)},
        }[kind]
        return state, msg, (read if rnd >= self.rounds[v] else None)


@settings(max_examples=150, deadline=None)
@given(graphs(), BUDGETS, st.sampled_from([10_000, 2]), st.data())
def test_synthetic_programs_run_as_on_the_reference(graph, budget, max_rounds, data):
    n = graph.n
    rounds = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    kinds = st.integers(0, len(KINDS) - 1)
    sends = data.draw(st.lists(st.lists(kinds, min_size=1, max_size=4), min_size=n, max_size=n))
    fail = None
    if n and data.draw(st.booleans()):
        fail = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 4)),
                data.draw(st.sampled_from([None, 0, n - 1])))
    assert_same_run(graph, Scripted(rounds, sends, fail), budget, max_rounds)
