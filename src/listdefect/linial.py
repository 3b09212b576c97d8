"""Initial proper colorings: iterated polynomial color reduction.

One reduction round maps a P-coloring to a q^2-coloring: a color is a
polynomial of degree at most e over GF(q) (its base-q digits), and a node
picks an evaluation point where it differs from all conflicting
neighbors.  Distinct polynomials of degree <= e agree on at most e
points, so with D relevant neighbors there are at most D*e bad points;
any prime q > D*e leaves a good point, and q > D*e/(d+1) leaves a point
with at most d collisions (the defective variant).  Rounds repeat while
they shrink the palette; the defective step, when requested, runs once at
the end.

The whole schedule is a function of the public quantities (n, max degree
or max outdegree, defect), so every node derives it locally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import MissingOrientation
from .graphs import ColoredGraph, ColoringOutput
from .runtime import NodeView, RawField, RoundTrace, run


def _is_prime(x: int) -> bool:
    return x >= 2 and all(x % f for f in range(2, math.isqrt(x) + 1))


def _e_min(q: int, palette: int) -> int:
    """Smallest e >= 1 with q**(e+1) >= palette."""
    e = 1
    power = q * q
    while power < palette:
        e += 1
        power *= q
    return e


def _reduction_round(palette: int, base: int, defect: int) -> Optional[tuple[int, int]]:
    """Smallest prime q (with its degree e) that shrinks the palette.

    Needs q**(e+1) >= palette, q*(defect+1) > base*e and q*q < palette;
    returns None when no prime shrinks the palette any further.
    """
    q = 2
    while q * q < palette:
        if _is_prime(q):
            e = _e_min(q, palette)
            if q * (defect + 1) > base * e:
                return q, e
        q += 1
    return None


def linial_schedule(
    palette0: int, base: int, defect: int = 0
) -> tuple[list[tuple[int, int, int]], int]:
    """Reduction schedule [(q, e, round_defect)...] and the final palette.

    Proper rounds (round_defect 0) run while they shrink; a single
    defective round is appended at the end when ``defect`` >= 1, because
    defective colorings cannot seed another polynomial round (equal
    colors mean equal polynomials).
    """
    sched: list[tuple[int, int, int]] = []
    palette = palette0
    while (step := _reduction_round(palette, base, 0)) is not None:
        sched.append((*step, 0))
        palette = step[0] ** 2
    if defect >= 1 and (step := _reduction_round(palette, base, defect)) is not None:
        sched.append((*step, defect))
        palette = step[0] ** 2
    return sched, palette


def _poly_eval(color: int, q: int, e: int, a: int) -> int:
    value = 0
    power = 1
    for _ in range(e + 1):
        value = (value + (color % q) * power) % q
        color //= q
        power = (power * a) % q
    return value


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


def linial_coloring(graph: ColoredGraph) -> tuple[ColoringOutput, RoundTrace]:
    """Proper coloring with an O(max_degree^2)-size palette.

    Unique ids seed an n-coloring; each reduction round shrinks the
    palette as long as some prime q with q*q < palette admits the degree
    bound.  Isolated-node graphs finish with color 0 in zero rounds.
    """
    trace = run(graph, linial_program(graph))
    return ColoringOutput(tuple(trace.outputs)), trace


def linial_palette(graph: ColoredGraph) -> int:
    """Declared final palette size of linial_coloring on this graph."""
    return _make_program(graph, graph.max_degree(), 0, oriented=False)[1]


def defective_linial(graph: ColoredGraph, d: int) -> tuple[ColoringOutput, RoundTrace]:
    """Oriented d-defective coloring: at most d out-neighbors share a color.

    Proper (oriented) reduction rounds first, then one defective round
    with the collision budget d.  When d already dominates every
    outdegree a single color suffices.
    """
    trace = run(graph, defective_linial_program(graph, d))
    return ColoringOutput(tuple(trace.outputs)), trace
