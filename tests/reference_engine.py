"""Frozen reference: the round engine as it was before C-built node views.

``run`` here builds each ``NodeView`` with ``NodeView._make`` and calls
``init`` and ``step`` one node at a time in a Python loop, naming a
failing node from the loop variable.  Tests run the library's
``runtime.run`` and this copy on the same programs: equal outputs and
traces, or the same exception with the same node, round, edge and size.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any

from listdefect.errors import BudgetViolation, NodeFailure, RoundLimitExceeded
from listdefect.graphs import ColoredGraph
from listdefect.runtime import Message, NodeView, RoundTrace, current_network, message_bits


def run(graph: ColoredGraph, program, max_rounds: int = 10_000) -> RoundTrace:
    setting = current_network()
    bits_per_message = setting.bits_per_message
    n = graph.n
    outs = repeat(None) if graph.out_neighbors is None else graph.out_neighbors
    views = list(map(NodeView._make, zip(
        range(n), graph.adjacency, outs, graph.init_colors, repeat(graph.m), repeat(n)
    )))
    states: list[Any] = [None] * n
    outputs: list[Any] = [None] * n
    pending: list[int] = []

    for v in range(n):
        try:
            states[v], out = program.init(views[v])
        except NodeFailure as exc:
            exc.node = v if exc.node is None else exc.node
            exc.round_no = 0
            raise
        if out is not None:
            outputs[v] = out
        else:
            pending.append(v)

    trace = RoundTrace(outputs=outputs)
    messages = trace.messages if setting.record_messages else None
    inboxes: list[dict[int, Message]] = [{} for _ in range(n)]
    step = program.step
    adjacency = graph.adjacency

    rnd = last_sent = 0
    while pending:
        rnd += 1
        if rnd > max_rounds:
            raise RoundLimitExceeded(
                f"{n - len(pending)}/{n} nodes decided after {max_rounds} rounds"
            )
        next_inboxes: list[dict[int, Message]] = [{} for _ in range(n)]
        still_pending: list[int] = []
        round_max = 0
        for v in pending:
            try:
                states[v], msg, out = step(states[v], inboxes[v], rnd)
            except NodeFailure as exc:
                exc.node = v if exc.node is None else exc.node
                exc.round_no = rnd
                raise
            neighbors = adjacency[v]
            if msg and neighbors:
                size = message_bits(msg)
                if bits_per_message is not None and size > bits_per_message:
                    raise BudgetViolation((v, neighbors[0]), rnd, size, bits_per_message)
                if size > round_max:
                    round_max = size
                last_sent = rnd
                for u in neighbors:
                    next_inboxes[u][v] = msg
                if messages is not None:
                    messages.extend([(rnd, v, u, size) for u in neighbors])
            if out is not None:
                outputs[v] = out
            else:
                still_pending.append(v)
        trace.max_message_bits.append(round_max)
        inboxes = next_inboxes
        pending = still_pending

    del trace.max_message_bits[last_sent:]
    return trace
