import math
import random

import pytest

from listdefect import (
    ColoredGraph,
    ConditionViolated,
    LdcInstance,
    OldcConfig,
    OldcInner,
    OracleInner,
    PipelineConfig,
    SpacePartition,
    arbdefective_subroutine,
    congest_pipeline,
    degree_halving_framework,
    linial_schedule,
    preset_message,
    space_reduced_oldc,
    validate_ldc,
)
from listdefect.errors import FailFast, NodeFailure
from listdefect.generate import make_graph, make_instance
from listdefect.reductions import message_preset_p

from conftest import blockspread_instance, complete_graph, random_dag, ring_graph


def test_partition_depth_and_padding():
    part = SpacePartition.build(range(9), 3)
    assert part.depth == 2
    assert len(part.colors) == 9
    part2 = SpacePartition.build(range(10), 3)
    assert part2.depth == 3 and len(part2.colors) == 27
    # dummies sit above the real colors and never enter lists
    assert part2.colors[10:] == tuple(range(10, 27))


def test_message_preset_branching():
    assert message_preset_p(256, 1) == 256
    assert message_preset_p(256, 2) == 16
    assert message_preset_p(256, 4) == 4


def test_reduction_formula_example():
    # nu=0, kappa=1, k=1, beta=2, two zero-defect colors in one chunk:
    # lambda = sum(d+1)/(beta * 1) = 1, budget floor((1*2*1)) = 2
    lam = 2 / (2 * 1)
    assert math.floor((lam * 2 * 1) ** 1.0) == 2


def test_space_reduction_equals_inner_for_large_p():
    g = random_dag(8, 2, 0.4, seed=0)
    inst = blockspread_instance(g, seed=0)
    inner = OracleInner()
    direct = inner.solve(g, inst)[0]
    via = space_reduced_oldc(g, inst, len(inst.color_space), inner)[0]
    assert via.colors == direct.colors


def test_space_reduction_sound_with_oracle_inner():
    for seed in range(5):
        g = random_dag(10, 2, 0.3, seed=seed)
        inst = blockspread_instance(g, seed=seed)
        out, trace = space_reduced_oldc(g, inst, 4, OracleInner())
        assert validate_ldc(g, inst, out).valid


def test_space_reduction_condition_gate():
    g = random_dag(6, 2, 0.5, seed=3)
    space = list(range(16))
    inst = LdcInstance.build(
        space, [space[:4]] * 6, [{x: 0 for x in space[:4]}] * 6, flavor="oriented"
    )
    with pytest.raises(ConditionViolated):
        space_reduced_oldc(g, inst, 4, OldcInner())


def test_space_reduction_distributed_messages_shrink():
    """Max message bits are non-increasing in the recursion depth r."""
    cfg = OldcConfig(alpha=1.0, scale_override=(2, 2), record_messages=True)
    inner = OldcInner(config=cfg)
    done = 0
    for seed in range(8):
        g = random_dag(10, 2, 0.3, seed=100 + seed)
        inst = blockspread_instance(g, seed=seed)
        try:
            bits = [
                preset_message(g, inst, inner, r=r)[1].max_bits() for r in (1, 2, 4)
            ]
        except FailFast:
            continue
        done += 1
        assert bits[0] >= bits[1] >= bits[2], (seed, bits)
    assert done >= 4


def test_arbdefective_subroutine_on_an_oriented_dag_is_sequential():
    # an oriented DAG whose defective Linial palette (n = 8: no round
    # shrinks it) fits q = 8; the decomposition is still sequential
    graph = make_graph("random-dag", 8, 4, seed=1)
    q, delta = 8, 0
    assert graph.out_neighbors is not None and graph.max_degree() < q
    assert linial_schedule(graph.n, graph.max_beta(), delta) == ([], q)
    out, trace = arbdefective_subroutine(graph, q, delta)
    palette = list(range(q))
    inst = LdcInstance.build(
        palette, [palette] * graph.n, [dict.fromkeys(palette, delta)] * graph.n,
        flavor="arbdefective",
    )
    assert validate_ldc(graph, inst, out).valid
    assert trace.rounds_elapsed == 0 and trace.max_message_bits == []
    assert trace.outputs == list(out.colors)


def test_arbdefective_subroutine_k5():
    k5 = complete_graph(5)
    out, _ = arbdefective_subroutine(k5, 2, 2)
    inst = LdcInstance.build([0, 1], [[0, 1]] * 5, [{0: 2, 1: 2}] * 5, flavor="arbdefective")
    assert validate_ldc(k5, inst, out).valid


def test_arbdefective_subroutine_condition():
    k5 = complete_graph(5)
    with pytest.raises(ConditionViolated):
        arbdefective_subroutine(k5, 2, 1)


def test_framework_generous_defects_single_stage():
    k4 = complete_graph(4)
    inst = LdcInstance.build([0], [[0]] * 4, [{0: 3}] * 4, flavor="arbdefective")
    out, trace, rows = degree_halving_framework(k4, inst)
    assert validate_ldc(k4, inst, out).valid
    assert max(r.stage for r in rows) == 1


def test_framework_path_proper():
    p3 = ColoredGraph.build(3, [(0, 1), (1, 2)])
    inst = LdcInstance.build(
        [0, 1, 2],
        [[0, 1], [0, 1, 2], [1, 2]],
        [{0: 0, 1: 0}, {0: 0, 1: 0, 2: 0}, {1: 0, 2: 0}],
        flavor="arbdefective",
    )
    out, trace, rows = degree_halving_framework(p3, inst)
    assert out.colors[0] != out.colors[1] and out.colors[1] != out.colors[2]


def test_framework_condition_gate():
    p3 = ColoredGraph.build(3, [(0, 1), (1, 2)])
    inst = LdcInstance.build([0], [[0]] * 3, [{0: 0}] * 3, flavor="arbdefective")
    with pytest.raises(ConditionViolated):
        degree_halving_framework(p3, inst)


def test_framework_degree_halving_and_validity():
    rng = random.Random(2)
    for trial in range(6):
        n = rng.randrange(30, 90)
        p = rng.choice([3.0, 5.0]) / n
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = ColoredGraph.build(n, edges)
        space = list(range(32))
        lists = [sorted(rng.sample(space, g.degree(v) + 1)) for v in range(n)]
        inst = LdcInstance.build(
            space, lists, [{x: 0 for x in l} for l in lists], flavor="arbdefective"
        )
        out, trace, rows = degree_halving_framework(g, inst)
        rep = validate_ldc(g, inst, out)
        assert rep.valid
        delta = g.max_degree()
        assert max(r.stage for r in rows) <= max(1, math.ceil(math.log2(max(2, delta)))) + 1
        # per-stage max uncolored degree halves
        degrees = {}
        for row in rows:
            degrees.setdefault(row.stage, row.max_uncolored_degree)
        stages = sorted(degrees)
        for a, b in zip(stages, stages[1:]):
            assert degrees[b] <= max(0, degrees[a] // 2) or degrees[b] <= degrees[a] / 2


def test_framework_nonzero_defects():
    rng = random.Random(5)
    for trial in range(4):
        n = 40
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.1]
        g = ColoredGraph.build(n, edges)
        space = list(range(24))
        lists, defects = [], []
        for v in range(n):
            lst = sorted(rng.sample(space, max(1, (g.degree(v) + 2) // 2)))
            dv = {x: 1 for x in lst}
            while sum(d + 1 for d in dv.values()) <= g.degree(v):
                dv[lst[rng.randrange(len(lst))]] += 1
            lists.append(lst)
            defects.append(dv)
        inst = LdcInstance.build(space, lists, defects, flavor="arbdefective")
        out, trace, rows = degree_halving_framework(g, inst)
        assert validate_ldc(g, inst, out).valid


def test_pipeline_matching():
    g = ColoredGraph.build(4, [(0, 1), (2, 3)])
    inst = LdcInstance.build(
        [0, 1], [[0, 1]] * 4, [{0: 0, 1: 0}] * 4, flavor="defective"
    )
    out, trace, rows = congest_pipeline(g, inst)
    assert out.colors[0] != out.colors[1] and out.colors[2] != out.colors[3]


def test_pipeline_ring_within_budget():
    ring = ring_graph(32)
    inst = LdcInstance.build(
        [0, 1, 2], [[0, 1, 2]] * 32, [{0: 0, 1: 0, 2: 0}] * 32, flavor="defective"
    )
    out, trace, rows = congest_pipeline(ring, inst)
    assert all(out.colors[u] != out.colors[v] for u, v in ring.edges())


def test_pipeline_checks_its_output_when_g_is_positive():
    # the framework solves the g = 0 copy; its coloring violates the g = 1
    # instance at several nodes, so the pipeline must fail fast
    g = make_graph("random-gnp", 30, 6, seed=1, oriented=False)
    inst = make_instance(
        g, "degree-plus-one", seed=1, space_size=49, flavor="arbdefective", g=1
    )
    with pytest.raises(NodeFailure, match="pipeline output invalid"):
        congest_pipeline(g, inst)


class _SmallClassOracle(OracleInner):
    """The oracle under the distributed inner's (nu, kappa), which makes
    the framework pick many small decomposition classes."""

    nu = 1.0
    kappa = 4.0


def test_framework_builds_each_batch_graph_once(monkeypatch):
    builds = []
    real = ColoredGraph.build

    def counting(*args, **kwargs):
        builds.append(args[0])
        return real(*args, **kwargs)

    made = make_graph("random-gnp", 80, 6, seed=4, oriented=False)
    inst = make_instance(made, "degree-plus-one", seed=4, space_size=49, flavor="arbdefective")
    monkeypatch.setattr(ColoredGraph, "build", staticmethod(counting))
    out, _, rows = degree_halving_framework(made, inst, _SmallClassOracle())
    assert validate_ldc(made, inst, out).valid
    stages = {r.stage for r in rows}
    batches = [r for r in rows if r.colored and r.max_uncolored_degree]
    assert len(batches) > len(stages)
    # one stage subgraph per stage, one graph per batch
    assert len(builds) == len(stages) + len(batches)


def test_pipeline_budget_violation_fail_fast():
    ring = ring_graph(32)
    inst = LdcInstance.build(
        [0, 1, 2], [[0, 1, 2]] * 32, [{0: 0, 1: 0, 2: 0}] * 32, flavor="defective"
    )
    with pytest.raises(FailFast):
        congest_pipeline(ring, inst, PipelineConfig(bits_budget=1))


def test_framework_determinism():
    g = random_dag(30, 3, 0.2, seed=9)
    undirected = ColoredGraph.build(g.n, g.edges())
    rng = random.Random(9)
    space = list(range(32))
    lists = [sorted(rng.sample(space, undirected.degree(v) + 1)) for v in range(g.n)]
    inst = LdcInstance.build(
        space, lists, [{x: 0 for x in l} for l in lists], flavor="arbdefective"
    )
    a = degree_halving_framework(undirected, inst)
    b = degree_halving_framework(undirected, inst)
    assert a[0] == b[0]
    assert [r.csv() for r in a[2]] == [r.csv() for r in b[2]]
