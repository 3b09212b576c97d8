"""Frozen reference: the Linial reduction as a node program on the engine.

``_LinialProgram`` here is the library's program from before Linial ran
over a sent record: each node steps on ``runtime.run``, reads its
neighbors' colors from its inbox, and the program memoises polynomial
values and its messages per round.  Tests run ``linial_coloring`` and
``defective_linial`` against ``reference_engine.run`` on these programs:
equal outputs and traces, or the same exception with the same node,
round, edge and size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from listdefect.errors import MissingOrientation
from listdefect.graphs import ColoredGraph
from listdefect.linial import _poly_eval, linial_schedule
from listdefect.runtime import NodeView, RawField


@dataclass
class _LinialProgram:
    schedule: list[tuple[int, int, int]]
    palettes: list[int]  # palette entering each reduction step
    oriented: bool
    trivial_color: Optional[int]  # everyone outputs this at init (degenerate graphs)
    # bit width of the color sent in round r+1, for every round r that sends
    widths: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.widths = [max(1, (p - 1).bit_length()) for p in self.palettes]
        # for the round in progress: p_color(a) for a >= 1 of its reduction
        # step, keyed by color * q + a, and the one message that sends each
        # color; caches of pure functions of public quantities, shared by all
        # nodes, at most q^2 messages
        self._round, self._memo, self._sent = -1, {}, {}

    def init(self, view: NodeView):
        if self.trivial_color is not None:
            return None, self.trivial_color
        if not self.schedule:
            return None, view.node
        # [color, the out-neighbors whose colors count, or None for all neighbors]
        return [view.node, view.out_neighbors if self.oriented else None], None

    def _point_from_one(self, step_idx: int, mine: int, others: list[int]) -> int:
        """The chosen color a*q + p_mine(a) of the first point a >= 1 with
        at most d collisions, through the memo of reduction step ``step_idx``."""
        q, e, d = self.schedule[step_idx]
        memo = self._memo
        for a in range(1, q):
            key = mine * q + a
            val = memo.get(key)
            if val is None:
                val = memo[key] = _poly_eval(mine, q, e, a)
            collisions = 0
            for c in others:
                key = c * q + a
                other = memo.get(key)
                if other is None:
                    other = memo[key] = _poly_eval(c, q, e, a)
                if other == val:
                    collisions += 1
                    if collisions > d:
                        break
            if collisions <= d:
                return a * q + val
        raise AssertionError("prime choice guarantees a good point")

    def step(self, state, inbox, round_no: int):
        if round_no == 1:
            return state, {"color": RawField(state[0], self.widths[0])}, None
        if round_no != self._round:
            self._round, self._memo, self._sent = round_no, {}, {}
        # apply reduction round_no-2 using last round's colors
        q, _, d = self.schedule[round_no - 2]
        mine, relevant = state
        msgs = inbox.values() if relevant is None else [inbox[u] for u in relevant if u in inbox]
        # at a = 0 a color's polynomial takes its constant coefficient,
        # p_c(0) = c mod q, so the first point needs no evaluation
        chosen = mine % q
        collisions = 0
        for msg in msgs:
            if msg["color"].value % q == chosen:
                collisions += 1
        if collisions > d:
            others = [msg["color"].value for msg in msgs]
            chosen = self._point_from_one(round_no - 2, mine, others)
        state[0] = chosen
        if round_no > len(self.schedule):
            return state, None, chosen
        msg = self._sent.get(chosen)
        if msg is None:
            msg = self._sent[chosen] = {"color": RawField(chosen, self.widths[round_no - 1])}
        return state, msg, None


def _make_program(graph: ColoredGraph, base: int, defect: int, oriented: bool):
    if graph.n == 0 or base == 0:
        # no nodes, or no conflicts possible at all
        return _LinialProgram([], [], oriented, trivial_color=0), 1
    sched, palette = linial_schedule(graph.n, base, defect)
    palettes = [graph.n] + [q * q for q, _, _ in sched]
    return _LinialProgram(sched, palettes, oriented, None), palette


def linial_program(graph: ColoredGraph):
    """The proper-coloring reduction as a NodeProgram value."""
    program, _ = _make_program(graph, graph.max_degree(), 0, oriented=False)
    return program


def defective_linial_program(graph: ColoredGraph, d: int):
    """The oriented d-defective reduction as a NodeProgram value."""
    if graph.out_neighbors is None:
        raise MissingOrientation("defective_linial needs an oriented graph")
    beta = max((graph.outdegree(v) for v in range(graph.n)), default=0)
    if d >= beta:
        return _LinialProgram([], [], True, trivial_color=0)
    program, _ = _make_program(graph, graph.max_beta(), d, oriented=True)
    return program
