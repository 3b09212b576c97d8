"""Frozen reference: the instance loader as it was before the bulk checks.

``instance_from_json`` here builds the graph with a per-edge loop over a
set of (min, max) edge tuples, converts every defect key with a dict
comprehension, normalises the instance with ``sorted(set(...))`` and
lets the checked ``LdcInstance`` constructor re-check it.  Tests compare
the library's loader and ``ColoredGraph.build`` against these copies:
same result, or the same error class and message.  ``instance_to_json``
is the writer as it was before it passed tuples to ``json.dumps``
unconverted; the library's writer must give the same bytes.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import accumulate, chain
from typing import Iterable, Mapping, Optional, Sequence

from listdefect.errors import InvalidGraph, InvalidInstance
from listdefect.graphs import FLAVOR_DEFECTIVE, ColoredGraph, LdcInstance


def orientation_out_lists(adjacency, orientation, error):
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


def build(
    n: int,
    edges: Iterable[tuple[int, int]],
    orientation: Optional[Iterable[tuple[int, int]]] = None,
    init_colors: Optional[Sequence[int]] = None,
    m: Optional[int] = None,
) -> ColoredGraph:
    if n < 0:
        raise InvalidGraph("negative node count")
    edge_set: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidGraph(f"edge ({u},{v}) out of range")
        if u == v:
            raise InvalidGraph(f"self-loop at {u}")
        key = (min(u, v), max(u, v))
        if key in edge_set:
            raise InvalidGraph(f"multi-edge {key}")
        edge_set.add(key)
        adj[u].append(v)
        adj[v].append(u)
    adjacency = tuple(tuple(sorted(x)) for x in adj)

    out = None
    if orientation is not None:
        out = orientation_out_lists(adjacency, orientation, InvalidGraph)

    if init_colors is None:
        init_colors = tuple(range(n))
        m_eff = n if m is None else m
    else:
        init_colors = tuple(init_colors)
        if len(init_colors) != n:
            raise InvalidGraph("init_colors length mismatch")
        m_eff = (max(init_colors) + 1 if n else 0) if m is None else m
    for u in range(n):
        for v in adjacency[u]:
            if u < v and init_colors[u] == init_colors[v]:
                raise InvalidGraph(f"init coloring not proper on edge ({u},{v})")
        if n and not (0 <= init_colors[u] < m_eff):
            raise InvalidGraph(f"init color of {u} outside [0,{m_eff})")

    return ColoredGraph(
        n=n,
        adjacency=adjacency,
        out_neighbors=out,
        init_colors=init_colors,
        m=max(1, m_eff),
    )


def instance_build(
    color_space: Iterable[int],
    lists: Iterable[Iterable[int]],
    defects: Iterable[Mapping[int, int]],
    flavor: str = FLAVOR_DEFECTIVE,
    g: int = 0,
) -> LdcInstance:
    return LdcInstance(
        color_space=tuple(sorted(set(color_space))),
        lists=tuple(tuple(sorted(set(l))) for l in lists),
        defects=tuple(dict(sorted(d.items())) for d in defects),
        flavor=flavor,
        g=g,
    )


def _check_rows(doc: dict, key: str, item: type, width: Optional[int] = None) -> None:
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


def instance_from_json(text: str) -> tuple[ColoredGraph, LdcInstance]:
    doc = json.loads(text)
    if type(doc) is not dict:
        raise InvalidInstance("an instance is a JSON object")
    keys = ("n", "edges", "init_colors", "m", "color_space", "lists", "defects", "flavor", "g")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise InvalidInstance(f"instance lacks {', '.join(missing)}")
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
    if len(doc["init_colors"]) != doc["n"]:
        raise InvalidInstance("init_colors length does not match node count")
    graph = build(
        doc["n"],
        [tuple(e) for e in doc["edges"]],
        orientation=[tuple(e) for e in doc["orientation"]] if "orientation" in doc else None,
        init_colors=doc["init_colors"],
        m=doc["m"],
    )
    try:
        defects = [{int(c): d for c, d in dv.items()} for dv in doc["defects"]]
    except ValueError:
        raise InvalidInstance("defect keys must be integers") from None
    if list(map(len, defects)) != list(map(len, doc["defects"])):
        raise InvalidInstance("defect keys name a color twice")
    if not set(map(type, chain.from_iterable(map(dict.values, defects)))) <= {int}:
        raise InvalidInstance("defect values must be integers")
    inst = instance_build(
        doc["color_space"],
        doc["lists"],
        defects,
        flavor=doc["flavor"],
        g=doc["g"],
    )
    if inst.n() != graph.n:
        raise InvalidInstance("lists length does not match node count")
    return graph, inst


def instance_to_json(graph: ColoredGraph, inst: LdcInstance) -> str:
    doc = {
        "n": graph.n,
        "edges": [[u, v] for u, v in graph.edges()],
        "init_colors": list(graph.init_colors),
        "m": graph.m,
        "color_space": list(inst.color_space),
        "lists": [list(l) for l in inst.lists],
        "defects": [{str(c): d for c, d in dv.items()} for dv in inst.defects],
        "flavor": inst.flavor,
        "g": inst.g,
    }
    if graph.out_neighbors is not None:
        doc["orientation"] = [[u, v] for u, v in graph.oriented_edges()]
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
