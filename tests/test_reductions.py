import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listdefect import (
    ColoredGraph,
    ColoringOutput,
    ConditionViolated,
    LdcInstance,
    OldcConfig,
    OldcInner,
    OracleInner,
    RoundTrace,
    arbdefective_subroutine,
    congest_pipeline,
    degree_halving_framework,
    linial_schedule,
    network,
    preset_message,
    space_reduced_oldc,
    validate_ldc,
)
from listdefect import reductions
from listdefect.errors import FailFast, NodeFailure
from listdefect.generate import make_graph, make_instance
from listdefect.reductions import _padded_space, message_preset_p

from conftest import (
    blockspread_instance,
    complete_graph,
    count_validations,
    random_dag,
    ring_graph,
)


def test_partition_depth_and_padding():
    colors, depth = _padded_space(range(9), 3)
    assert depth == 2
    assert len(colors) == 9
    colors, depth = _padded_space(range(10), 3)
    assert depth == 3 and len(colors) == 27
    # dummies sit above the real colors and never enter lists
    assert colors[10:] == tuple(range(10, 27))
    # exact powers, where a float log rounds up past the depth
    for size, p in ((125, 5), (216, 6), (5832, 18)):
        assert _padded_space(range(size), p) == (tuple(range(size)), 3)


def test_message_preset_branching():
    assert message_preset_p(256, 1) == 256
    assert message_preset_p(256, 2) == 16
    assert message_preset_p(256, 4) == 4
    # 3125 = 5**5 and 7776 = 6**5, where a float root rounds up
    assert message_preset_p(3125, 5) == 5
    assert message_preset_p(7776, 5) == 6
    for r in (2, 3, 5):
        for size in range(1, 400):
            p = message_preset_p(size, r)
            assert p == 2 or (p - 1) ** r < size <= p**r, (size, r)


def test_space_reduction_equals_inner_for_large_p():
    g = random_dag(8, 2, 0.4, seed=0)
    inst = blockspread_instance(g, seed=0)
    inner = OracleInner()
    direct = inner.solve(g, inst)[0]
    via = space_reduced_oldc(g, inst, len(inst.color_space), inner)[0]
    assert via.colors == direct.colors
    # nothing to reduce: the inner solves, even unoriented and defective
    g = ring_graph(6)
    space = list(range(4))
    inst = LdcInstance.build(space, [space] * 6, [dict.fromkeys(space, 0)] * 6)
    assert g.out_neighbors is None and inst.flavor == "defective"
    out, _ = space_reduced_oldc(g, inst, len(space), OracleInner())
    assert out.colors == OracleInner().solve(g, inst)[0].colors


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


def test_preset_depth_is_exact_on_a_perfect_power():
    # |C| = 216 = 6**3 at r = 3: p = 6 and k = 3, and every node has
    # sum (d+1)^2 = 16 * 4 = 64 = beta^2 * kappa^3, which k = 4 would fail
    g = ColoredGraph.build(3, [(0, 1), (1, 2)], orientation=[(0, 1), (1, 2)])
    lst = list(range(16))
    inst = LdcInstance.build(range(216), [lst] * 3, [dict.fromkeys(lst, 1)] * 3, flavor="oriented")
    out, _ = preset_message(g, inst, OldcInner(), r=3)
    assert validate_ldc(g, inst, out).valid


class _Stop(Exception):
    pass


class _ChoiceRecorder:
    """An inner under OldcInner's (nu, kappa) that keeps the first
    instance it is given, the top level's chunk choice, and stops."""

    nu = 1
    kappa = 4

    def solve(self, graph, inst):
        self.choice = inst
        raise _Stop


def _reference_chunk_defect(energy, beta, k, nu=1, kappa=4):
    """floor((lambda * beta^(1+nu) * kappa)^(1/(1+nu))) with the chunk
    share lambda = energy / (beta^(1+nu) kappa^k), in exact fractions."""
    lam = Fraction(energy, beta ** (1 + nu) * kappa**k)
    target = lam * beta ** (1 + nu) * kappa
    d = 0
    while (d + 1) ** (1 + nu) <= target:
        d += 1
    return d


@pytest.mark.parametrize("beta", [1, 2, 7])
@pytest.mark.parametrize("k", [2, 3])
def test_chunk_defects_are_exact(beta, k):
    # a star 0 -> 1..beta over p^k colors; node 0 puts the energy of
    # chunk 0 in colors with (d+1)^2 summing to it, and enough in chunk 1
    # for the strengthened condition
    p = 8
    size = p ** (k - 1)
    n = beta + 1
    edges = [(0, v) for v in range(1, n)]
    g = ColoredGraph.build(n, edges, orientation=edges)
    leaf = {size: 2**k - 1}
    for energy in range(1, 81):
        roots, left = [], energy
        while left:
            roots.append(math.isqrt(left))
            left -= roots[-1] ** 2
        assert len(roots) <= size
        hub = {x: r - 1 for x, r in enumerate(roots)}
        hub[size] = beta * 2**k - 1
        inst = LdcInstance.build(
            range(p**k), [sorted(hub)] + [[size]] * beta, [hub] + [leaf] * beta,
            flavor="oriented",
        )
        inner = _ChoiceRecorder()
        with pytest.raises(_Stop):
            space_reduced_oldc(g, inst, p, inner)
        got = inner.choice.defects[0][0]
        assert got == _reference_chunk_defect(energy, beta, k), (energy, got)


def test_reduction_formula_example():
    # nu=0, kappa=1, beta=2, two zero-defect colors in one chunk: the
    # share is lambda = sum(d+1) / (beta * kappa^k) = 1, so the chunk
    # defect is floor(lambda * beta * kappa) = 2
    edges = [(0, 1), (0, 2)]
    g = ColoredGraph.build(3, edges, orientation=edges)
    inst = LdcInstance.build(
        range(4), [[0, 1], [0], [0]], [{0: 0, 1: 0}, {0: 0}, {0: 0}], flavor="oriented"
    )
    inner = _ChoiceRecorder()
    inner.nu, inner.kappa = 0, 1
    with pytest.raises(_Stop):
        space_reduced_oldc(g, inst, 2, inner)
    assert inner.choice.defects[0] == {0: 2}


def test_space_reduction_distributed_messages_shrink():
    """Max message bits are non-increasing in the recursion depth r."""
    cfg = OldcConfig(alpha=1.0, scale_override=(2, 2))
    inner = OldcInner(config=cfg)
    done = 0
    for seed in range(8):
        g = random_dag(10, 2, 0.3, seed=100 + seed)
        inst = blockspread_instance(g, seed=seed)
        try:
            with network(record_messages=True):
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


def test_pipeline_validates_no_copy_of_an_arbdefective_instance(monkeypatch):
    g = make_graph("random-gnp", 60, 6, seed=3, oriented=False)
    arb = make_instance(g, "degree-plus-one", seed=3, space_size=49, flavor="arbdefective")
    defective = LdcInstance(arb.color_space, arb.lists, arb.defects, "defective", 0)
    validated = count_validations(monkeypatch)
    out, _, _ = congest_pipeline(g, arb)
    assert validate_ldc(g, arb, out).valid
    assert not [i for i in validated if i.lists is arb.lists]
    # another flavor is solved as its arbdefective copy, validated once
    assert congest_pipeline(g, defective)[0].colors == out.colors
    assert len([i for i in validated if i.lists is arb.lists]) == 1


class _SmallClassOracle(OracleInner):
    """The oracle under the distributed inner's (nu, kappa), which makes
    the framework pick many small decomposition classes."""

    nu = 1
    kappa = 4


class _EdgeBatchInner:
    """Passes each batch to ``inner`` and keeps its graph; a batch without
    edges must never get here, since the framework colors it locally."""

    def __init__(self, inner):
        self.inner = inner
        self.nu, self.kappa = inner.nu, inner.kappa
        self.graphs = []

    def solve(self, graph, inst):
        assert graph.edge_count() > 0, "an edgeless batch reached the inner"
        self.graphs.append(graph)
        return self.inner.solve(graph, inst)


def _counting_builds(monkeypatch) -> list:
    """Count ``ColoredGraph.build`` calls from here on."""
    builds = []
    real = ColoredGraph.build

    def counting(*args, **kwargs):
        builds.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(ColoredGraph, "build", staticmethod(counting))
    return builds


def test_framework_builds_each_batch_graph_once(monkeypatch):
    made = make_graph("random-gnp", 80, 6, seed=4, oriented=False)
    inst = make_instance(made, "degree-plus-one", seed=4, space_size=49, flavor="arbdefective")
    builds = _counting_builds(monkeypatch)
    local = edged = 0
    # many small edgeless classes, then a few large classes with edges
    for inner in (_EdgeBatchInner(_SmallClassOracle()), _EdgeBatchInner(OracleInner())):
        out, _, rows = degree_halving_framework(made, inst, inner)
        assert validate_ldc(made, inst, out).valid
        batches = [r for r in rows if r.colored and r.max_uncolored_degree]
        local += len(batches) - len(inner.graphs)
        edged += len(inner.graphs)
    # stage and batch graphs are sliced from the input, never rebuilt
    assert builds == []
    assert local > 0 and edged > 0


def test_pipeline_builds_no_graph(monkeypatch):
    made = make_graph("random-gnp", 60, 6, seed=1, oriented=False)
    inst = make_instance(made, "degree-plus-one", seed=1, space_size=49, flavor="arbdefective")
    builds = _counting_builds(monkeypatch)
    out, _, rows = congest_pipeline(made, inst)
    assert validate_ldc(made, inst, out).valid
    assert any(r.max_uncolored_degree for r in rows)
    assert builds == []


@pytest.mark.parametrize("inner", [OracleInner(), _SmallClassOracle(), OldcInner()])
def test_framework_never_hands_an_edgeless_batch_to_the_inner(inner):
    local = 0
    for seed in range(4):
        made = make_graph("random-gnp", 60, 6, seed=seed, oriented=False)
        inst = make_instance(made, "degree-plus-one", seed=seed, space_size=49, flavor="arbdefective")
        counting = _EdgeBatchInner(inner)
        out, trace, rows = degree_halving_framework(made, inst, counting)
        assert validate_ldc(made, inst, out).valid
        batches = [r for r in rows if r.colored]
        local += len(batches) - len(counting.graphs)
    assert local > 0


def _reference_framework(graph, inst, inner):
    """The degree-halving framework as a per-batch inner-call loop: every
    batch, with edges or without, goes through ``inner`` (or the oracle
    when it fails fast).  Returns (colors, orientation)."""
    n = graph.n
    lists, defects = inst.lists, inst.defects
    colors = [None] * n
    taken = [{} for _ in range(n)]
    udeg = [graph.degree(v) for v in range(n)]
    order, oriented, clock = {}, [], 0
    factor = max(
        1.0,
        inst.max_list_size ** (inner.nu / (1 + inner.nu)) * inner.kappa ** (1 / (1 + inner.nu)),
    )

    def assign(v, x):
        colors[v] = x
        for u in graph.adjacency[v]:
            taken[u][x] = taken[u].get(x, 0) + 1
            udeg[u] -= 1

    def residual(v):
        dd, budget = {}, 0
        for x in lists[v]:
            left = defects[v][x] - taken[v].get(x, 0)
            if left >= 0:
                dd[x] = left
                budget += left + 1
                if budget > udeg[v]:
                    break
        return dd

    def is_active(v):
        return 2 * udeg[v] >= delta_s or any(
            d - taken[v].get(x, 0) >= udeg[v] for x, d in defects[v].items()
        )

    uncolored = set(range(n))
    while uncolored:
        stage_graph, keep = graph.subgraph(sorted(uncolored))
        delta_s = stage_graph.max_degree()
        if delta_s == 0:
            for v in keep:
                assign(v, next(iter(residual(v))))
                order[v] = clock
                clock += 1
            break
        delta = math.floor(delta_s / (2 * factor))
        q = delta_s // (delta + 1) + 1
        dec, _ = arbdefective_subroutine(stage_graph, q, delta)
        dec_outn = [[] for _ in keep]
        for a, b in dec.orientation_out:
            dec_outn[a].append(b)
        for cls in range(q):
            active = [i for i, c in enumerate(dec.colors) if c == cls and is_active(keep[i])]
            if not active:
                continue
            index = {i: j for j, i in enumerate(active)}
            batch = ColoredGraph.build(
                len(active),
                [(j, index[b]) for j, i in enumerate(active)
                 for b in stage_graph.adjacency[i] if i < b and b in index],
                orientation=[(j, index[b]) for j, i in enumerate(active)
                             for b in dec_outn[i] if b in index],
                init_colors=[stage_graph.init_colors[i] for i in active],
                m=stage_graph.m,
            )
            dds = [residual(keep[i]) for i in active]
            inst_b = LdcInstance.build(
                {x for dd in dds for x in dd}, [list(dd) for dd in dds], dds, flavor="oriented"
            )
            try:
                out_b, _ = inner.solve(batch, inst_b)
            except FailFast:
                out_b, _ = OracleInner().solve(batch, inst_b)
            for j, i in enumerate(active):
                assign(keep[i], out_b.colors[j])
                order[keep[i]] = clock
            clock += 1
            uncolored.difference_update(keep[i] for i in active)
            oriented += [(keep[active[a]], keep[active[b]]) for a, b in batch.oriented_edges()]
    done = {(min(e), max(e)) for e in oriented}
    for u, v in graph.edges():
        if (u, v) not in done:
            oriented.append((u, v) if order[u] > order[v] else (v, u))
    return tuple(colors), tuple(sorted(oriented))


@st.composite
def drawn_order_arbdefective(draw):
    """A small arbdefective g = 0 instance with sum(d+1) > deg, built
    directly, so lists and defect maps keep the order they were drawn in."""
    n = draw(st.integers(1, 16))
    p = draw(st.sampled_from([0.15, 0.3, 0.6]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    graph = ColoredGraph.build(n, edges)
    space = list(range(draw(st.integers(2, 20))))
    lists, defects = [], []
    for v in range(n):
        lst = rng.sample(space, rng.randint(1, len(space)))
        dv = {x: rng.choice([0, 0, 1, 2]) for x in lst}
        while sum(d + 1 for d in dv.values()) <= graph.degree(v):
            dv[rng.choice(lst)] += 1
        lists.append(tuple(lst))
        defects.append(dict(rng.sample(sorted(dv.items()), len(dv))))
    inst = LdcInstance(tuple(space), tuple(lists), tuple(defects), "arbdefective", 0)
    return graph, inst


@settings(max_examples=150, deadline=None)
@given(drawn_order_arbdefective(), st.sampled_from([OracleInner(), _SmallClassOracle()]))
def test_framework_local_batches_match_the_inner_call_loop(case, inner):
    graph, inst = case
    out, trace, rows = degree_halving_framework(graph, inst, _EdgeBatchInner(inner))
    assert (out.colors, out.orientation_out) == _reference_framework(graph, inst, inner)
    assert trace.rounds_elapsed == 0


# pipeline-workload shapes: degree+1 lists, zero defects, max degree <= 16
_PIPELINE_SHAPES = [("random-gnp", 200, 8, 1), ("random-gnp", 200, 8, 2), ("ring", 200, 2, 1)]


def _pipeline_shape(family, n, degree, seed):
    made = make_graph(family, n, degree, seed=seed, oriented=False)
    assert 1 <= made.max_degree() <= 16
    space = min(64, (made.max_degree() + 1) ** 2)
    return made, make_instance(made, "degree-plus-one", seed=seed, space_size=space,
                               flavor="arbdefective")


@pytest.mark.parametrize("shape", _PIPELINE_SHAPES)
def test_framework_matches_the_inner_call_loop_on_pipeline_instances(shape):
    # under the distributed inner's (nu, kappa) every stage has arbdefect
    # 0 here, so every batch is colored locally
    graph, inst = _pipeline_shape(*shape)
    counting = _EdgeBatchInner(_SmallClassOracle())
    out, trace, rows = degree_halving_framework(graph, inst, counting)
    assert counting.graphs == [] and len([r for r in rows if r.colored]) > 1
    assert (out.colors, out.orientation_out) == _reference_framework(graph, inst, _SmallClassOracle())
    assert trace.rounds_elapsed == 0


@pytest.mark.parametrize("shape", _PIPELINE_SHAPES)
def test_pipeline_slices_only_the_stage_graphs(monkeypatch, shape):
    # no decomposition class has an internal edge, so no batch graph is
    # sliced: one slice per stage, of the uncolored subgraph
    graph, inst = _pipeline_shape(*shape)
    slices = []
    real = ColoredGraph.subgraph

    def counting(self, nodes):
        slices.append(self.n)
        return real(self, nodes)

    monkeypatch.setattr(ColoredGraph, "subgraph", counting)
    out, _, rows = congest_pipeline(graph, inst)
    assert validate_ldc(graph, inst, out).valid
    stages = len({r.stage for r in rows})
    assert len([r for r in rows if r.colored]) > stages
    assert slices == [graph.n] * stages


def test_pipeline_budget_violation_fail_fast():
    ring = ring_graph(32)
    inst = LdcInstance.build(
        [0, 1, 2], [[0, 1, 2]] * 32, [{0: 0, 1: 0, 2: 0}] * 32, flavor="defective"
    )
    with network(bits_per_message=1), pytest.raises(FailFast):
        congest_pipeline(ring, inst)


class _ConflictBlindInner:
    """Gives every batch node the first color of its residual list,
    whatever its neighbors take."""

    nu = 0
    kappa = 1

    def solve(self, graph, inst):
        return ColoringOutput(tuple(l[0] for l in inst.lists)), RoundTrace()


@pytest.mark.parametrize("seed", range(6))
def test_framework_output_check_catches_a_conflict_blind_inner(seed):
    # the one check on the framework's coloring is its output gate
    made = make_graph("random-gnp", 60, 6, seed=seed, oriented=False)
    inst = make_instance(made, "degree-plus-one", seed=seed, space_size=49, flavor="arbdefective")
    with pytest.raises(NodeFailure, match="framework output invalid"):
        degree_halving_framework(made, inst, _ConflictBlindInner())


@pytest.mark.parametrize("budget, rounds", [(None, 1), (10, 1), (0, 0)])
def test_pipeline_messages_stay_within_the_budget(budget, rounds):
    # Delta = 68 and lists of exactly degree + 1 colors: the inner runs
    # distributed batches at budget 10, and at budget 0 every batch fails
    # fast and the oracle, which sends nothing, colors it
    graph = make_graph("random-gnp", 200, 48, seed=1, oriented=False)
    space = graph.max_degree() + 1
    inst = make_instance(graph, "degree-plus-one", seed=1, space_size=space, flavor="arbdefective")
    with network(bits_per_message=budget):
        out, trace, _ = congest_pipeline(graph, inst, r=2)
    assert validate_ldc(graph, inst, out).valid
    if budget is None:
        # the pipeline's default: 8 (p ceil(log2 |C|) + ceil(log2 n) + 16)
        log_c, log_n = math.ceil(math.log2(space)), math.ceil(math.log2(graph.n))
        budget = 8 * (message_preset_p(space, 2) * log_c + log_n + 16)
    assert all(bits <= budget for bits in trace.max_message_bits)
    assert trace.rounds_elapsed == rounds


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


# -- the framework's decomposition core -------------------------------------------


@st.composite
def _decomposition_cases(draw):
    """A random graph and (q, delta) with q(delta+1) > max degree."""
    n = draw(st.integers(0, 14))
    p = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    graph = ColoredGraph.build(n, edges)
    delta = draw(st.integers(0, 3))
    q = graph.max_degree() // (delta + 1) + 1 + draw(st.integers(0, 2))
    return graph, q, delta


def _uniform_core(graph, q, delta):
    palette = tuple(range(q))
    return reductions._arbdefective_core(
        graph, (palette,) * graph.n, ({x: delta for x in palette},) * graph.n
    )


@settings(max_examples=300, deadline=None)
@given(_decomposition_cases())
def test_the_framework_core_is_the_subroutine_without_cross_class_pairs(case):
    graph, q, delta = case
    colors, _, pairs = _uniform_core(graph, q, delta)
    out, _ = arbdefective_subroutine(graph, q, delta)
    assert colors == out.colors
    assert pairs == [(a, b) for a, b in out.orientation_out if colors[a] == colors[b]]


def test_the_core_finds_intra_class_pairs_at_a_positive_arbdefect():
    # K6 at q = 2, delta = 2: each class has edges, which the core orients
    colors, _, pairs = _uniform_core(complete_graph(6), 2, 2)
    out, _ = arbdefective_subroutine(complete_graph(6), 2, 2)
    assert pairs and pairs == [(a, b) for a, b in out.orientation_out if colors[a] == colors[b]]


def test_a_pipeline_stage_at_arbdefect_zero_hands_over_no_pair(monkeypatch):
    # the 1,500-node random-gnp shape of the pipeline bench: every stage has
    # delta = 0, so the core returns no pair and no batch graph is sliced
    graph, inst = _pipeline_shape("random-gnp", 1500, 4, 1)
    calls, slices = [], []
    real_core, real_subgraph = reductions._arbdefective_core, ColoredGraph.subgraph

    def core(stage_graph, lists, defects):
        colors, stats, pairs = real_core(stage_graph, lists, defects)
        calls.append((stage_graph.n, defects[0][lists[0][0]], pairs))
        return colors, stats, pairs

    def subgraph(self, nodes):
        slices.append(self.n)
        return real_subgraph(self, nodes)

    monkeypatch.setattr(reductions, "_arbdefective_core", core)
    monkeypatch.setattr(ColoredGraph, "subgraph", subgraph)
    out, _, rows = congest_pipeline(graph, inst)
    assert validate_ldc(graph, inst, out).valid
    assert calls[0][:2] == (1500, 0)
    assert all(delta == 0 and pairs == [] for _, delta, pairs in calls)
    assert slices == [graph.n] * len(calls) == [graph.n] * len({r.stage for r in rows})


class _ChunkEscapingInner:
    """Solves the chunk choice with the oracle, but colors every node of a
    leaf instance from the chunk after its own."""

    nu = 0
    kappa = 1

    def solve(self, graph, inst):
        if min(inst.color_space) < 10:  # the choice, over chunk indices 0..p-1
            return OracleInner().solve(graph, inst)
        escaped = 10 + (inst.color_space[0] - 10 + 2) % 4
        return ColoringOutput((escaped,) * graph.n), RoundTrace()


def test_a_color_that_escapes_its_chunk_fails_fast():
    # colors 10..13 in chunks {10, 11} and {12, 13}; the chunk choice
    # passes, the leaf returns a color of the other chunk
    g = ColoredGraph.build(2, [(0, 1)], orientation=[(0, 1)])
    space = list(range(10, 14))
    inst = LdcInstance.build(space, [space] * 2, [dict.fromkeys(space, 0)] * 2, flavor="oriented")
    with pytest.raises(NodeFailure, match="color escaped its chunk") as info:
        space_reduced_oldc(g, inst, 2, _ChunkEscapingInner())
    assert info.value.node == 0
