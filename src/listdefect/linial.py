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
or max outdegree, defect), so every node derives it locally.  Each round
runs over a sent record: every node broadcasts its color, and its next
color is a function of its own color and the colors its relevant
neighbors sent.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import countOf
from typing import Optional, Sequence

from .errors import MissingOrientation, NodeFailure
from .graphs import ColoredGraph, ColoringOutput
from .runtime import RawField, Rounds, RoundTrace


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


def _point_from_one(
    q: int, e: int, d: int, mine: int, others: list[int], memo: dict[int, int]
) -> Optional[int]:
    """The chosen color a*q + p_mine(a) of the first point a >= 1 with at
    most d collisions, or None; ``memo`` holds the round's p_c(a) by
    c * q + a, a pure function of public quantities shared by all nodes."""
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
    return None


def _reduce(
    graph: ColoredGraph, base: int, defect: int, relevant: Sequence[Sequence[int]]
) -> tuple[ColoringOutput, RoundTrace]:
    """Run the schedule over the whole color vector.  Each round every node
    sends its color, then picks its next color from the colors that its
    ``relevant`` neighbors sent; after the last reduction it outputs."""
    n = graph.n
    if n == 0 or base == 0:  # no nodes, or no conflicts possible at all
        colors, schedule = [0] * n, []
    else:
        colors, schedule = list(range(n)), linial_schedule(n, base, defect)[0]
    nodes = range(n)
    palette = n
    rounds = Rounds(graph)
    for q, e, d in schedule:
        # widths never grow, so only round 1 can exceed a budget; one
        # shared message per color
        width = max(1, (palette - 1).bit_length())
        message_of = {c: {"color": RawField(c, width)} for c in set(colors)}
        rounds.send(dict(zip(nodes, map(message_of.__getitem__, colors))))
        # at a = 0 a color's polynomial takes its constant coefficient,
        # p_c(0) = c mod q, so the first point needs no evaluation; only a
        # node with over d relevant neighbors on it looks further.  hits
        # reads chosen lazily, so those nodes are listed before any moves
        chosen = [c % q for c in colors]
        hits = map(countOf, map(map, repeat(chosen.__getitem__), relevant), chosen)
        memo: dict[int, int] = {}
        for v in list(compress(nodes, map(d.__lt__, hits))):
            point = _point_from_one(q, e, d, colors[v], [colors[u] for u in relevant[v]], memo)
            if point is None:
                # numbered as runtime.run numbers a step: after the round it read
                raise NodeFailure(
                    "prime choice guarantees a good point", node=v, round_no=rounds.count + 1
                )
            chosen[v] = point
        colors, palette = chosen, q * q
    return ColoringOutput(tuple(colors)), rounds.trace(colors)


def linial_coloring(graph: ColoredGraph) -> tuple[ColoringOutput, RoundTrace]:
    """Proper coloring with an O(max_degree^2)-size palette.

    Unique ids seed an n-coloring; each reduction round shrinks the
    palette as long as some prime q with q*q < palette admits the degree
    bound.  Isolated-node graphs finish with color 0 in zero rounds.
    """
    return _reduce(graph, graph.max_degree(), 0, graph.adjacency)


def linial_palette(graph: ColoredGraph) -> int:
    """Declared final palette size of linial_coloring on this graph."""
    base = graph.max_degree()
    return linial_schedule(graph.n, base)[1] if graph.n and base else 1


def defective_linial(graph: ColoredGraph, d: int) -> tuple[ColoringOutput, RoundTrace]:
    """Oriented d-defective coloring: at most d out-neighbors share a color.

    Proper (oriented) reduction rounds first, then one defective round
    with the collision budget d.  When d already dominates every
    outdegree a single color suffices.
    """
    outs = graph.out_neighbors
    if outs is None:
        raise MissingOrientation("defective_linial needs an oriented graph")
    beta = max(map(len, outs), default=0)
    return _reduce(graph, 0 if d >= beta else graph.max_beta(), d, outs)
