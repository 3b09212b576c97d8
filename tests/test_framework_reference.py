"""The degree-halving framework and its decomposition core against their
frozen reference (``reference_framework``).

Both copies run on the same small arbdefective instances, with zero and
positive defects, under the oracle inner (arbdefect floor(Delta_s / 2),
so some classes keep edges) and the distributed inner (arbdefect 0 on
small degrees, every class edgeless).  They must give equal colors,
orientations, trace JSON and stage rows, or raise the same exception
class with the same message and node.  The core is also compared on
its own, on lists and defect maps drawn per node.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import event, given, settings
from hypothesis import strategies as st

import reference_framework
from listdefect import ColoredGraph, LdcInstance, OldcInner, OracleInner, degree_halving_framework
from listdefect.errors import FailFast
from listdefect.oracle import _arbdefective_core

INNERS = {"oracle": OracleInner(), "oldc": OldcInner()}


@st.composite
def arbdefective_cases(draw):
    """Up to 24 nodes with density up to 0.6; per node a list from a space
    of up to 12 colors, sorted or shuffled, with defects all 0 or drawn in
    0..3, grown until sum(d+1) > deg(v) (the list itself grown first)
    except at a few nodes, where the existence condition may fail."""
    n = draw(st.integers(1, 24))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([0.1, 0.3, 0.6]))
    graph = ColoredGraph.build(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )
    space = list(range(draw(st.integers(1, 12))))
    zero = draw(st.booleans())
    short = draw(st.sampled_from([0.0, 0.0, 0.1, 0.3]))
    shuffled = draw(st.booleans())
    lists, defects = [], []
    for v in range(n):
        lst = set(rng.sample(space, rng.randint(1, len(space))))
        dv = {x: 0 if zero else rng.randrange(4) for x in lst}
        while rng.random() >= short and sum(dv.values()) + len(dv) <= graph.degree(v):
            free = [x for x in space if x not in dv]
            if free:
                dv[rng.choice(free)] = 0
            else:
                dv[rng.choice(sorted(dv))] += 1
        lst = sorted(dv)
        if shuffled:
            rng.shuffle(lst)
        lists.append(tuple(lst))
        defects.append(dv)
    inst = LdcInstance(tuple(space), tuple(lists), tuple(defects), "arbdefective", 0)
    return graph, inst, draw(st.sampled_from(sorted(INNERS)))


def _failure(exc: FailFast):
    return type(exc), str(exc), getattr(exc, "node", None)


def _framework_outcome(solve, graph, inst, inner):
    try:
        out, trace, rows = solve(graph, inst, inner)
    except FailFast as exc:
        return _failure(exc)
    return out.colors, out.orientation_out, trace.to_json(), rows


def _core_outcome(core, graph, inst):
    try:
        return core(graph, inst.lists, inst.defects)
    except FailFast as exc:
        return _failure(exc)


def test_framework_runs_as_on_the_reference():
    kinds: Counter = Counter()

    def seen(kind):
        event(kind)
        kinds[kind] += 1

    real_core = reference_framework._arbdefective_core
    inner_name = []

    def watching(graph, lists, defects):
        got = real_core(graph, lists, defects)
        name = inner_name[-1]
        seen(f"{name}: arbdefect 0" if not any(defects[0].values()) else f"{name}: arbdefect > 0")
        if got[2]:
            seen(f"{name}: a class with edges")
        return got

    # derandomized: the counts below must not depend on the run's seed
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arbdefective_cases())
    def check(case):
        graph, inst, name = case
        inner_name.append(name)
        got = _framework_outcome(degree_halving_framework, graph, inst, INNERS[name])
        reference_framework._arbdefective_core = watching
        try:
            want = _framework_outcome(
                reference_framework.degree_halving_framework, graph, inst, INNERS[name]
            )
        finally:
            reference_framework._arbdefective_core = real_core
        assert got == want
        seen(f"{name}: " + ("ok" if len(got) == 4 else got[0].__name__))
        if len(got) == 4 and any(row.rounds for row in got[3]):
            seen(f"{name}: a batch solved in rounds")

    check()
    # the draws reach both decomposition paths, classes with edges under
    # both inners, batches the distributed inner solves in rounds, and
    # successful runs, not only failures
    assert kinds["oldc: arbdefect 0"] >= 20 and kinds["oracle: arbdefect > 0"] >= 20, kinds
    assert min(kinds[f"{name}: a class with edges"] for name in INNERS) >= 5, kinds
    assert kinds["oldc: a batch solved in rounds"] >= 3, kinds
    assert min(kinds[f"{name}: ok"] for name in INNERS) >= 20, kinds


def test_core_runs_as_on_the_reference():
    kinds: Counter = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arbdefective_cases())
    def check(case):
        graph, inst, _ = case
        got = _core_outcome(_arbdefective_core, graph, inst)
        assert got == _core_outcome(reference_framework._arbdefective_core, graph, inst)
        zero = not any(d for dv in inst.defects for d in dv.values())
        ok = not isinstance(got[0], type)
        kind = ("zero" if zero else "positive") + (": ok" if ok else ": refused")
        event(kind)
        kinds[kind] += 1
        if ok and got[2]:
            kinds["oriented a pair"] += 1

    check()
    # every defect 0 (the bulk path) and positive defects, each solved
    # and refused, and some monochromatic pairs oriented
    assert min(kinds[f"{z}: {o}"] for z in ("zero", "positive") for o in ("ok", "refused")) >= 5, kinds
    assert kinds["oriented a pair"] >= 5, kinds
