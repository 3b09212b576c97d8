"""Graph, instance and coloring data model plus the validity checkers.

Colors are nonnegative integers with the usual total order; proximity
between two colors x, y is |x - y|.  Graphs are simple and undirected;
an optional orientation assigns each undirected edge exactly one
direction.  By convention beta(v) is max(1, outdegree(v)), so degree
formulas never divide by zero even for sinks.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, repeat
from operator import add, countOf, eq, gt, le, lt, methodcaller, mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
    ColorNotInList,
    InvalidGraph,
    InvalidInstance,
    MissingColor,
    MissingOrientation,
    NodeFailure,
)

FLAVOR_DEFECTIVE = "defective"
FLAVOR_ORIENTED = "oriented"
FLAVOR_ARBDEFECTIVE = "arbdefective"
FLAVORS = (FLAVOR_DEFECTIVE, FLAVOR_ORIENTED, FLAVOR_ARBDEFECTIVE)

# a defect map's values; unlike dict.values it takes any Mapping
_values = methodcaller("values")


@dataclass(frozen=True)
class ColoredGraph:
    """Simple graph with an initial proper coloring and optional orientation.

    Attributes:
        n: node count; nodes are 0..n-1.
        adjacency: sorted neighbor tuple per node.
        out_neighbors: sorted out-neighbor tuple per node, or None when the
            graph carries no orientation.
        init_colors: per-node color of the initial proper m-coloring,
            values in 0..m-1.
        m: palette size of the initial coloring.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    out_neighbors: Optional[tuple[tuple[int, ...], ...]]
    init_colors: tuple[int, ...]
    m: int

    # -- construction -----------------------------------------------------

    @staticmethod
    def build(
        n: int,
        edges: Iterable[tuple[int, int]],
        orientation: Optional[Iterable[tuple[int, int]]] = None,
        init_colors: Optional[Sequence[int]] = None,
        m: Optional[int] = None,
    ) -> "ColoredGraph":
        """Validate and freeze a graph.

        ``orientation``, when given, must contain every undirected edge
        exactly once as a directed pair.  ``init_colors`` defaults to the
        identity (unique ids treated as an n-coloring).  The checks run in
        bulk over the edge columns; only a failed one walks the data to
        name the first fault.  Edges in canonical order, the order
        ``instance_to_json`` writes (u < v in every pair, pairs strictly
        increasing), fill each adjacency row already sorted and free of
        repeats, so the per-row sort and repeat check are skipped.
        """
        if n < 0:
            raise InvalidGraph("negative node count")
        edges = list(edges)
        us, vs = zip(*edges) if edges else ((), ())
        ends = us + vs
        in_range = not ends or (0 <= min(ends) and max(ends) < n)
        # compared as int pairs: a list edge and a tuple edge do not compare
        canonical = in_range and all(map(lt, us, vs)) and all(
            map(lt, zip(us, vs), zip(us[1:], vs[1:]))
        )
        ends_ok = canonical or in_range and not any(map(eq, us, vs))
        adj: list[list[int]] = [[] for _ in range(n)]
        if ends_ok:
            # one append per edge end, u to row v for every edge before v to
            # row u, so canonical rows come out sorted; a zero-length deque
            # drains the map
            deque(map(list.append, map(adj.__getitem__, vs + us), ends), maxlen=0)
        adjacency = tuple(map(tuple, adj if canonical else map(sorted, adj)))
        if not canonical and (not ends_ok or sum(map(len, map(set, adjacency))) != len(ends)):
            # name the first faulty edge, out of range before self-loop before repeat
            seen: set[tuple[int, int]] = set()
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise InvalidGraph(f"edge ({u},{v}) out of range")
                if u == v:
                    raise InvalidGraph(f"self-loop at {u}")
                key = (min(u, v), max(u, v))
                if key in seen:
                    raise InvalidGraph(f"multi-edge {key}")
                seen.add(key)

        out = None
        if orientation is not None:
            out = _orientation_out_lists(adjacency, orientation, InvalidGraph)

        init_colors = tuple(range(n) if init_colors is None else init_colors)
        if len(init_colors) != n:
            raise InvalidGraph("init_colors length mismatch")
        m_eff = (max(init_colors) + 1 if n else 0) if m is None else m
        color = init_colors.__getitem__
        if any(map(eq, map(color, us), map(color, vs))) or (
            n and not (0 <= min(init_colors) and max(init_colors) < m_eff)
        ):
            # name the first bad node: a same-colored higher neighbor, then its color's range
            for u in range(n):
                for v in adjacency[u]:
                    if u < v and init_colors[u] == init_colors[v]:
                        raise InvalidGraph(f"init coloring not proper on edge ({u},{v})")
                if not (0 <= init_colors[u] < m_eff):
                    raise InvalidGraph(f"init color of {u} outside [0,{m_eff})")

        return ColoredGraph(
            n=n,
            adjacency=adjacency,
            out_neighbors=out,
            init_colors=init_colors,
            m=max(1, m_eff),
        )

    # -- basic queries -----------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max(map(len, self.adjacency), default=0)

    def outdegree(self, v: int) -> int:
        if self.out_neighbors is None:
            raise MissingOrientation("graph has no orientation")
        return len(self.out_neighbors[v])

    def beta(self, v: int) -> int:
        """max(1, outdegree(v)); sinks count as 1."""
        return max(1, self.outdegree(v))

    def max_beta(self) -> int:
        # beta(0) raises MissingOrientation on an unoriented graph with nodes
        return max(self.beta(0), *map(len, self.out_neighbors)) if self.n else 1

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def oriented_edges(self) -> list[tuple[int, int]]:
        if self.out_neighbors is None:
            raise MissingOrientation("graph has no orientation")
        return [(u, v) for u in range(self.n) for v in self.out_neighbors[u]]

    def subgraph(self, nodes: Iterable[int]) -> tuple["ColoredGraph", list[int]]:
        """Induced subgraph on ``nodes``; returns (graph, sorted original ids).

        ``nodes`` may come in any order and repeat; an id outside 0..n-1
        raises InvalidGraph, and all of 0..n-1 returns this graph itself.
        Else the graph is sliced, not rebuilt through ``build``: the sorted
        adjacency and orientation (if any) stay sorted through the kept
        ids' order-preserving index, and the initial colors and ``m`` are
        inherited (a proper coloring stays proper on any induced subgraph).
        """
        keep = sorted(set(nodes))
        if keep and not (0 <= keep[0] and keep[-1] < self.n):
            raise InvalidGraph(f"subgraph ids {keep[0]}..{keep[-1]} outside range({self.n})")
        if len(keep) == self.n:
            return self, keep
        index = dict(zip(keep, range(len(keep))))

        def induced(rows):
            return tuple(tuple([index[v] for v in rows[u] if v in index]) for u in keep)

        out = None if self.out_neighbors is None else induced(self.out_neighbors)
        init = tuple([self.init_colors[u] for u in keep])
        return ColoredGraph(len(keep), induced(self.adjacency), out, init, self.m), keep


@dataclass(frozen=True)
class LdcInstance:
    """A list defective coloring instance over a ColoredGraph.

    ``defects[v]`` maps every color of ``lists[v]`` to its allowed defect.
    ``g`` is the proximity radius: colors x, y conflict when |x - y| <= g;
    g = 0 is the standard problem.  The color space may be any finite set
    of nonnegative integers, not necessarily contiguous; with g > 0 the
    semantics depend on the actual color values.
    """

    color_space: tuple[int, ...]
    lists: tuple[tuple[int, ...], ...]
    defects: tuple[Mapping[int, int], ...]
    flavor: str = FLAVOR_DEFECTIVE
    g: int = 0

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise InvalidInstance(f"unknown flavor {self.flavor!r}")
        if self.g < 0:
            raise InvalidInstance("negative proximity g")
        space = set(self.color_space)
        if len(space) != len(self.color_space):
            raise InvalidInstance("color space has duplicates")
        if any(c < 0 for c in self.color_space):
            raise InvalidInstance("colors must be nonnegative integers")
        if len(self.defects) != len(self.lists):
            raise InvalidInstance(
                f"{len(self.defects)} defect maps for {len(self.lists)} lists"
            )
        last_list = last_defects = None
        for v, (lst, dv) in enumerate(zip(self.lists, self.defects)):
            # a run of nodes sharing one list and one defect map is checked once
            if lst is last_list and dv is last_defects:
                continue
            last_list, last_defects = lst, dv
            colors = set(lst)
            if len(colors) != len(lst):
                raise InvalidInstance(f"list of node {v} has duplicates")
            if not colors <= space:
                raise InvalidInstance(f"list of node {v} leaves the color space")
            if dv.keys() != colors:
                raise InvalidInstance(f"defect domain of node {v} differs from its list")
            if min(dv.values(), default=0) < 0:
                raise InvalidInstance(f"negative defect at node {v}")

    @staticmethod
    def _trusted(color_space: tuple, lists: tuple, defects: tuple, flavor, g) -> "LdcInstance":
        """An instance of data its caller built as ``build`` would and
        ``__post_init__`` would accept; only the flavor and g, checked on an
        empty instance, are not taken on trust."""
        inst = LdcInstance((), (), (), flavor, g)
        inst.__dict__.update(color_space=color_space, lists=lists, defects=defects)
        return inst

    @staticmethod
    def build(
        color_space: Iterable[int],
        lists: Iterable[Iterable[int]],
        defects: Iterable[Mapping[int, int]],
        flavor: str = FLAVOR_DEFECTIVE,
        g: int = 0,
    ) -> "LdcInstance":
        return LdcInstance(
            color_space=tuple(sorted(set(color_space))),
            lists=tuple(tuple(sorted(set(l))) for l in lists),
            defects=tuple(dict(sorted(d.items())) for d in defects),
            flavor=flavor,
            g=g,
        )

    @property
    def max_list_size(self) -> int:
        """Lambda, the maximum list size."""
        return max((len(l) for l in self.lists), default=0)

    def n(self) -> int:
        return len(self.lists)


@dataclass(frozen=True)
class ColoringOutput:
    """Colors chosen per node, plus the output orientation for arbdefective runs."""

    colors: tuple[Optional[int], ...]
    orientation_out: Optional[tuple[tuple[int, int], ...]] = None


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    conflicts: tuple[int, ...]
    flavor: str
    g: int

    def violating_nodes(self) -> list[int]:
        return [v for v, bad in enumerate(self._over) if bad]

    _over: tuple[bool, ...] = field(default=(), repr=False)


def _orientation_out_lists(
    adjacency: tuple[tuple[int, ...], ...],
    orientation: Iterable[tuple[int, int]],
    error: type[Exception],
) -> tuple[tuple[int, ...], ...]:
    """Sorted out-neighbor tuples of an orientation, which must name every
    edge of the graph with sorted neighbor tuples ``adjacency`` exactly
    once as a directed pair; a non-edge, an edge oriented twice or an
    uncovered edge raises ``error``.

    Edge {a, b} with a < b is found by bisecting ``adjacency[a]`` and is
    marked at a's offset plus b's index there, so the check costs
    O(m log max degree) and builds no edge set.
    """
    n = len(adjacency)
    offset = list(accumulate(map(len, adjacency), initial=0))
    marked = bytearray(offset[-1])
    covered = 0
    outl: list[list[int]] = [[] for _ in range(n)]
    for u, v in orientation:
        a, b = (u, v) if u < v else (v, u)
        nbrs = adjacency[a] if 0 <= a and b < n else ()
        i = bisect_left(nbrs, b)
        if i == len(nbrs) or nbrs[i] != b:
            raise error(f"oriented pair ({u},{v}) is not an edge")
        i += offset[a]
        if marked[i]:
            raise error(f"edge {(a, b)} oriented twice")
        marked[i] = 1
        covered += 1
        outl[u].append(v)
    if 2 * covered != offset[-1]:
        raise error("orientation does not cover every edge")
    return tuple(tuple(sorted(x)) for x in outl)


def _out_lists(graph: ColoredGraph, inst: LdcInstance, out: ColoringOutput):
    """Relevant-neighbor lists for the instance flavor."""
    if inst.flavor == FLAVOR_DEFECTIVE:
        return graph.adjacency
    if inst.flavor == FLAVOR_ORIENTED:
        if graph.out_neighbors is None:
            raise MissingOrientation("oriented instance on an unoriented graph")
        return graph.out_neighbors
    # arbdefective: orientation is part of the output
    if out.orientation_out is None:
        raise MissingOrientation("arbdefective output carries no orientation")
    return _orientation_out_lists(graph.adjacency, out.orientation_out, MissingOrientation)


def _check_list_count(graph: ColoredGraph, inst: LdcInstance) -> None:
    """The size check of the centralized entries: one list per node."""
    if len(inst.lists) != graph.n:
        raise InvalidInstance(f"{len(inst.lists)} lists for {graph.n} nodes")


def validate_ldc(graph: ColoredGraph, inst: LdcInstance, out: ColoringOutput) -> ValidityReport:
    """Check a coloring output against the instance.

    Counts, for every node v, the relevant neighbors u with
    |color(u) - color(v)| <= g, and compares against d_v(color(v)).
    Relevant means: all neighbors (defective), out-neighbors of the input
    orientation (oriented), or out-neighbors of the output orientation
    (arbdefective).
    """
    _check_list_count(graph, inst)
    if len(out.colors) != graph.n:
        raise InvalidInstance("output length mismatch")
    for v, c in enumerate(out.colors):
        if c is None:
            raise MissingColor(f"node {v} is uncolored")
        if c not in inst.defects[v]:
            raise ColorNotInList(f"node {v} colored {c}, not in its list")
    color, g = out.colors.__getitem__, inst.g
    by_node = zip(out.colors, _out_lists(graph, inst, out))  # (color, relevant neighbors)
    if g == 0:  # |x - y| <= 0 is x == y: count by C-level equality
        conflicts = [countOf(map(color, row), c) for c, row in by_node]
    else:
        conflicts = [sum(1 for u in row if abs(color(u) - c) <= g) for c, row in by_node]
    over = [cnt > dv[c] for cnt, dv, c in zip(conflicts, inst.defects, out.colors)]
    return ValidityReport(
        valid=not any(over),
        conflicts=tuple(conflicts),
        flavor=inst.flavor,
        g=inst.g,
        _over=tuple(over),
    )


def require_valid(graph: ColoredGraph, inst: LdcInstance, out: ColoringOutput, what: str) -> None:
    """The output gate of every algorithm: raises NodeFailure, its message
    ``what`` followed by the violating nodes, unless ``out`` validates."""
    report = validate_ldc(graph, inst, out)
    if not report.valid:
        raise NodeFailure(f"{what} {report.violating_nodes()}")


def _list_budgets(defects: Sequence[Mapping[int, int]], w: int) -> Iterator[int]:
    """Per node, the list budget sum over its list of (w d_v(x) + 1); at
    w = 0, for a caller that knows every defect is 0, the list sizes."""
    sizes = map(len, defects)
    return map(add, map(mul, map(sum, map(_values, defects)), repeat(w)), sizes) if w else sizes


def _first_condition_failure(
    graph: ColoredGraph, defects: Sequence[Mapping[int, int]], w: int
) -> Optional[int]:
    """The lowest node whose list budget (``_list_budgets`` at weight w: 1
    for defective, 2 for arbdefective) is at most its degree, or None.
    The comparison runs in bulk; the first failing node is read off it."""
    too_small = map(le, _list_budgets(defects, w), map(len, graph.adjacency))
    return next(compress(count(), too_small), None)


def check_existence_condition(graph: ColoredGraph, inst: LdcInstance) -> list[bool]:
    """Per-node existence condition for the sequential solvers.

    defective: sum over the list of (d_v(x)+1)  > deg(v)
    arbdefective: sum over the list of (2 d_v(x)+1) > deg(v)

    All-true implies solvability by the corresponding sequential algorithm.
    """
    if inst.flavor not in (FLAVOR_DEFECTIVE, FLAVOR_ARBDEFECTIVE):
        raise InvalidInstance("existence condition only defined for defective/arbdefective")
    _check_list_count(graph, inst)
    w = 2 if inst.flavor == FLAVOR_ARBDEFECTIVE else 1
    return list(map(gt, _list_budgets(inst.defects, w), map(len, graph.adjacency)))


# -- JSON instance schema --------------------------------------------------
#
# {n, edges: [[u,v]...], orientation: [[u,v]...]?, init_colors: [...], m,
#  color_space: [...], lists: [[...]...], defects: [{color: d, ...}...],
#  flavor, g}


def instance_to_json(graph: ColoredGraph, inst: LdcInstance) -> str:
    # json.dumps writes a tuple as an array, so rows and pairs go in as they are
    name = dict(zip(inst.color_space, map(str, inst.color_space)))  # each color's str, once
    doc = {
        "n": graph.n,
        "edges": graph.edges(),
        "init_colors": graph.init_colors,
        "m": graph.m,
        "color_space": inst.color_space,
        "lists": inst.lists,
        "defects": [{name[c]: d for c, d in dv.items()} for dv in inst.defects],
        "flavor": inst.flavor,
        "g": inst.g,
    }
    if graph.out_neighbors is not None:
        doc["orientation"] = graph.oriented_edges()
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _check_rows(doc: dict, key: str, item: type, width: Optional[int] = None) -> None:
    """doc[key] must be a list of ``item`` values; lists (of ``width``
    entries, if given) must hold integers only.  Types are compared
    exactly, so JSON true or 1.0 is not an int."""
    rows = doc[key]
    ok = type(rows) is list and set(map(type, rows)) <= {item}
    if ok and item is list:
        ok = set(map(type, chain.from_iterable(rows))) <= {int}
        ok = ok and (width is None or set(map(len, rows)) <= {width})
    if not ok:
        shape = {dict: "JSON objects", int: "integers"}.get(
            item, f"lists of {width or 'any number of'} ints"
        )
        raise InvalidInstance(f"{key} must be a list of {shape}")


def _canonical_instance(doc: dict) -> Optional[LdcInstance]:
    """The instance of a schema-checked document in the form that
    ``instance_to_json`` writes, or None.  Each defect map is built once in
    int order, its keys read as canonical spellings of the space's colors;
    then one comparison of its keys with the list as written proves every
    list sorted, repeat-free, in the space and equal to its map's domain."""
    space = tuple(sorted(set(doc["color_space"])))
    color = dict(zip(map(str, space), space)).__getitem__
    try:
        defects = [dict(sorted(zip(map(color, dv), dv.values()))) for dv in doc["defects"]]
    except KeyError:
        return None
    values = list(chain.from_iterable(map(dict.values, defects)))
    ok = list(map(list, defects)) == doc["lists"] and set(map(type, values)) <= {int}
    if not ok or min(values, default=0) < 0 or (space and space[0] < 0):
        return None
    lists = tuple(map(tuple, doc["lists"]))
    return LdcInstance._trusted(space, lists, tuple(defects), doc["flavor"], doc["g"])


def instance_from_json(text: str) -> tuple[ColoredGraph, LdcInstance]:
    """Decode, check and build an instance in one pass; a document not in
    the form ``instance_to_json`` writes is normalised by ``LdcInstance.build``
    and checked by its constructor, which names the first fault."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise InvalidInstance("instance JSON nests too deeply") from None
    if type(doc) is not dict:
        raise InvalidInstance("an instance is a JSON object")
    # every key but the optional "orientation"
    keys = ("n", "edges", "init_colors", "m", "color_space", "lists", "defects", "flavor", "g")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise InvalidInstance(f"instance lacks {', '.join(missing)}")
    # bool is an int subclass: without the type test, JSON true would pass as 1
    for key in ("n", "m", "g"):
        if type(doc[key]) is not int:
            raise InvalidInstance(f"{key} must be an integer, not {doc[key]!r}")
    _check_rows(doc, "edges", list, 2)
    if "orientation" in doc:
        _check_rows(doc, "orientation", list, 2)
    _check_rows(doc, "init_colors", int)
    _check_rows(doc, "color_space", int)
    _check_rows(doc, "lists", list)
    _check_rows(doc, "defects", dict)
    # checked before build allocates n adjacency lists
    if len(doc["init_colors"]) != doc["n"]:
        raise InvalidInstance("init_colors length does not match node count")
    graph = ColoredGraph.build(
        doc["n"], doc["edges"], doc.get("orientation"), doc["init_colors"], doc["m"]
    )
    inst = _canonical_instance(doc)
    if inst is None:
        try:
            defects = [{int(c): d for c, d in dv.items()} for dv in doc["defects"]]
        except ValueError:
            raise InvalidInstance("defect keys must be integers") from None
        # two spellings of one color ("0", "00") would collapse into one key
        if list(map(len, defects)) != list(map(len, doc["defects"])):
            raise InvalidInstance("defect keys name a color twice")
        if not set(map(type, chain.from_iterable(map(dict.values, defects)))) <= {int}:
            raise InvalidInstance("defect values must be integers")
        inst = LdcInstance.build(doc["color_space"], doc["lists"], defects, doc["flavor"], doc["g"])
    if inst.n() != graph.n:
        raise InvalidInstance("lists length does not match node count")
    return graph, inst
