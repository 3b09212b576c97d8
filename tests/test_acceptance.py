"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines."""

import itertools
import math
import random
import time
from functools import lru_cache

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from listdefect import (
    ColoredGraph,
    ConflictParams,
    FailFast,
    LdcInstance,
    MainConfig,
    NodeType,
    OldcConfig,
    OldcInner,
    build_type_table,
    exhaustive_solve,
    linial_coloring,
    linial_palette,
    main_oldc,
    multi_defect_oldc,
    make_graph,
    make_instance,
    network,
    preset_message,
    sequential_arbdefective,
    sequential_ldc,
    single_defect_oldc,
    validate_ldc,
)
from listdefect.reductions import congest_pipeline, degree_halving_framework

from conftest import (
    blockspread_instance,
    complete_graph,
    psi_g_member,
    random_dag,
    ring_graph,
    verify_table,
)


def _report(n, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {state}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {n}: {detail}"


@lru_cache(maxsize=1)
def _connected_atlas():
    graphs = []
    for g in graph_atlas_g():
        if 1 <= g.number_of_nodes() <= 7 and nx.is_connected(g):
            graphs.append(ColoredGraph.build(g.number_of_nodes(), list(g.edges())))
    assert len(graphs) == 996
    return tuple(graphs)


def test_criterion_01_sequential_ldc_atlas():
    """All connected graphs n<=7, 50 defect-budget draws each, exact."""
    t0 = time.monotonic()
    runs = 0
    for gi, graph in enumerate(_connected_atlas()):
        for s in range(50):
            inst = make_instance(
                graph, "defect-budget", seed=gi * 100 + s, space_size=8, k=3, target="eq1"
            )
            out, stats = sequential_ldc(graph, inst)
            assert validate_ldc(graph, inst, out).valid
            assert stats.recolorings <= 3 * graph.edge_count()
            assert all(
                b <= a - 1 for a, b in zip(stats.phi_history, stats.phi_history[1:])
            )
            runs += 1
    elapsed = time.monotonic() - t0
    _report(1, runs == 996 * 50 and elapsed < 120,
            f"{runs} sequential runs in {elapsed:.0f}s, all valid, phi monotone")


def test_criterion_02_tightness():
    """K_{D+1}: defect sums of D are unsat, D+1 are sat, for D in 2..4."""
    checked = 0
    for delta in (2, 3, 4):
        graph = complete_graph(delta + 1)
        shapes_unsat = [
            [("a", delta - 1)],
            [("a", delta - 2), ("b", 0)] if delta >= 2 else None,
        ]
        shapes_sat = [
            [("a", delta)],
            [("a", delta - 1), ("b", 0)],
        ]
        palette = {"a": 0, "b": 1}
        for shape in filter(None, shapes_unsat):
            lst = sorted(palette[c] for c, _ in shape)
            dv = {palette[c]: d for c, d in shape}
            assert sum(d + 1 for d in dv.values()) == delta
            inst = LdcInstance.build([0, 1], [lst] * (delta + 1), [dv] * (delta + 1))
            assert exhaustive_solve(graph, inst) is None
            checked += 1
        for shape in shapes_sat:
            lst = sorted(palette[c] for c, _ in shape)
            dv = {palette[c]: d for c, d in shape}
            assert sum(d + 1 for d in dv.values()) == delta + 1
            inst = LdcInstance.build([0, 1], [lst] * (delta + 1), [dv] * (delta + 1))
            got = exhaustive_solve(graph, inst)
            assert got is not None and validate_ldc(graph, inst, got).valid
            checked += 1
    _report(2, checked == 12, f"{checked} tightness cases exact")


def test_criterion_03_arbdefective_euler():
    """Same graph family under the arbdefective condition; outdegree exact."""
    runs = 0
    for gi, graph in enumerate(_connected_atlas()):
        for s in range(50):
            inst = make_instance(
                graph, "defect-budget", seed=gi * 100 + s, space_size=8, k=3,
                flavor="arbdefective", target="eq2",
            )
            out, _ = sequential_arbdefective(graph, inst)
            outdeg = [0] * graph.n
            for a, b in out.orientation_out:
                if out.colors[a] == out.colors[b]:
                    outdeg[a] += 1
            for v in range(graph.n):
                assert outdeg[v] <= inst.defects[v][out.colors[v]]
            runs += 1
    _report(3, runs == 996 * 50, f"{runs} arbdefective runs, outdegree within defect")


def _psi_brute(k1, k2, tau_prime, tau, g):
    """Independent reference: enumerate tau'-subsets of K1 directly."""

    def conflict(c1, c2):
        pairs = 0
        for x in c1:
            for y in c2:
                if abs(x - y) <= g:
                    pairs += 1
        return pairs >= tau

    for subset in itertools.combinations(k1, tau_prime):
        if all(any(conflict(c, c2) for c2 in k2) for c in subset):
            return True
    return False


def test_criterion_04_psi_vs_bruteforce():
    rng = random.Random(44)
    agreements = 0
    for case in range(1000):
        def family():
            size = rng.randint(0, 6)
            fam = set()
            while len(fam) < size:
                fam.add(tuple(sorted(rng.sample(range(13), rng.randint(1, 5)))))
            return tuple(sorted(fam))

        k1, k2 = family(), family()
        tau = rng.randint(1, 4)
        tau_prime = rng.randint(1, 4)
        g = rng.randint(0, 2)
        got = psi_g_member(k1, k2, tau_prime, tau, g)
        want = _psi_brute(k1, k2, tau_prime, tau, g)
        assert got == want, (k1, k2, tau, tau_prime, g)
        agreements += 1
    _report(4, agreements == 1000, "psi_g_member agrees with subset enumeration")


def _residue_lists(space, size, g):
    mod = 2 * g + 1
    for combo in itertools.combinations(range(space), size):
        if len({c % mod for c in combo}) == 1:
            yield combo


def test_criterion_05_zero_round_p2_scaled():
    """tau=2, tau'=2, k=2, k'=2 over 2-element (and 4-element) type multisets."""
    t0 = time.monotonic()
    built = 0
    byte_checks = 0
    for g, m, space in [(0, 2, 8), (0, 4, 10), (1, 2, 9), (1, 4, 10)]:
        params = ConflictParams(
            h=1, color_space_size=space, m=m, g=g, scale_override=(2, 2)
        )
        universe = [
            NodeType(c, lst, 1)
            for c in range(m)
            for lst in _residue_lists(space, 2, g)
        ]
        step = max(1, len(universe) // 10)
        slice10 = universe[::step][:10]
        pool = []
        for size in range(1, 7):
            pool.extend(itertools.combinations(slice10, size))
        rng = random.Random(space * 100 + m * 10 + g)
        multisets = [
            tuple(rng.choice(slice10) for _ in range(rng.randint(1, 6)))
            for _ in range(50)
        ]
        for types in itertools.chain(pool, multisets):
            table = build_type_table(params, list(types), {1: 2}, 2)
            assert verify_table(table)
            built += 1
            if built % 25 == 0:
                again = build_type_table(params, list(reversed(types)), {1: 2}, 2)
                assert again.to_bytes() == table.to_bytes()
                byte_checks += 1
    # 4-element lists make the Psi relation nontrivial at k=2
    for g, m, space in [(0, 2, 10), (1, 2, 10)]:
        params = ConflictParams(
            h=1, color_space_size=space, m=m, g=g, scale_override=(2, 2)
        )
        universe = [
            NodeType(c, lst, 1)
            for c in range(m)
            for lst in _residue_lists(space, 4, g)
        ]
        step = max(1, len(universe) // 10)
        slice10 = universe[::step][:10]
        pool = []
        for size in range(1, 5):
            pool.extend(itertools.combinations(slice10, size))
        for types in pool:
            table = build_type_table(params, list(types), {1: 2}, 2)
            assert verify_table(table)
            built += 1
            if built % 25 == 0:
                again = build_type_table(params, list(reversed(types)), {1: 2}, 2)
                assert again.to_bytes() == table.to_bytes()
                byte_checks += 1
    elapsed = time.monotonic() - t0
    _report(5, built > 3000 and byte_checks > 50 and elapsed < 300,
            f"{built} tables built and verified in {elapsed:.0f}s, "
            f"{byte_checks} byte-identical rebuilds")


def test_criterion_06_oldc_fail_safe():
    """500 scaled runs: every run validates or aborts; nothing invalid."""
    rng = random.Random(66)
    basic_cfg = OldcConfig(alpha=1.0, scale_override=(2, 2))
    main_cfg = MainConfig(
        alpha=1, tau_override=1, taubar_override=1,
        stage1_scale=(2, 2), stage2_scale=(2, 2),
    )
    valid = failfast = 0
    for trial in range(250):
        n = rng.randrange(8, 33)
        g = random_dag(n, rng.choice([2, 3, 4]), 0.2, seed=trial)
        space = list(range(rng.choice([48, 64])))
        lists = [sorted(rng.sample(space, rng.choice([8, 10, 12]))) for _ in range(n)]
        defect = rng.choice([1, 2, 3])
        try:
            if trial % 2:
                inst = LdcInstance.build(
                    space, lists,
                    [{x: rng.choice([defect, defect + 1]) for x in l} for l in lists],
                    flavor="oriented",
                )
                out, _ = multi_defect_oldc(g, inst, config=basic_cfg)
                assert validate_ldc(g, inst, out).valid
            else:
                out, _ = single_defect_oldc(g, space, lists, [defect] * n, 0, basic_cfg)
                for v in range(n):
                    same = sum(
                        1 for u in g.out_neighbors[v] if out.colors[u] == out.colors[v]
                    )
                    assert same <= defect
        except FailFast:
            failfast += 1
            continue
        valid += 1
    for trial in range(250):
        n = rng.randrange(8, 33)
        g = random_dag(n, rng.choice([2, 3, 4]), 0.2, seed=10_000 + trial)
        space = list(range(64))
        lists = [sorted(rng.sample(space, rng.choice([8, 12, 16]))) for _ in range(n)]
        inst = LdcInstance.build(
            space, lists,
            [{x: rng.choice([0, 1, 2, 3]) for x in l} for l in lists],
            flavor="oriented",
        )
        try:
            out, _ = main_oldc(g, inst, main_cfg)
        except FailFast:
            failfast += 1
            continue
        assert validate_ldc(g, inst, out).valid
        valid += 1
    _report(6, valid + failfast == 500 and valid > 0,
            f"{valid} valid, {failfast} fail-fast, 0 invalid")


def test_criterion_07_message_accounting():
    """Space reduction with r=4 never beats r=1 on max bits; per-message
    sizes respect the list-encoding bound of the active sub-instance."""
    cfg = OldcConfig(alpha=1.0, scale_override=(2, 2))
    inner = OldcInner(config=cfg)

    def shape_bound(space, lam, beta, m, h):
        colors = min(space, lam * max(1, math.ceil(math.log2(max(2, space)))))
        loglog = math.ceil(math.log2(max(1, math.ceil(math.log2(max(2, beta)))))) + 1
        return colors + loglog + math.ceil(math.log2(max(2, m))) + h.bit_length() + 1

    conforming = 0
    for seed in range(20):
        g = random_dag(8 + seed % 7, 2, 0.3, seed=700 + seed)
        inst = blockspread_instance(g, seed=seed)
        try:
            with network(record_messages=True):
                out1, tr1 = preset_message(g, inst, inner, r=1)
                out4, tr4 = preset_message(g, inst, inner, r=4)
        except FailFast:
            continue
        conforming += 1
        assert validate_ldc(g, inst, out1).valid
        assert validate_ldc(g, inst, out4).valid
        assert tr4.max_bits() <= tr1.max_bits(), (seed, tr4.max_bits(), tr1.max_bits())
        bound1 = shape_bound(256, 16, g.max_beta(), g.m, 1)
        for _, _, _, bits in tr1.messages:
            assert bits <= bound1
        bound4 = shape_bound(4, 4, g.max_beta(), g.m, 1)
        for _, _, _, bits in tr4.messages:
            assert bits <= bound4
    _report(7, conforming >= 12, f"{conforming}/20 conforming seeds, r=4 <= r=1 on all")


def test_criterion_08_degree_halving_pipeline():
    """100 degree+1 instances, n<=200, max degree<=16, |C|<=64."""
    t0 = time.monotonic()
    rng = random.Random(88)
    done = 0
    attempts = 0
    while done < 100 and attempts < 300:
        attempts += 1
        family = rng.choice(["ring", "random-gnp", "power-law"])
        n = rng.choice([24, 48, 96, 144, 200])
        deg = rng.choice([4, 8, 12])
        g = make_graph(family, n, deg, seed=attempts, oriented=False)
        if not (1 <= g.max_degree() <= 16):
            continue
        space_size = min(64, (g.max_degree() + 1) ** 2)
        inst = make_instance(
            g, "degree-plus-one", seed=attempts, space_size=space_size,
            flavor="arbdefective",
        )
        out, trace, rows = congest_pipeline(g, inst)
        rep = validate_ldc(g, inst, out)
        assert rep.valid
        # proper list coloring: all defects zero
        for u, v in g.edges():
            assert out.colors[u] != out.colors[v]
        delta = g.max_degree()
        stages = max(r.stage for r in rows)
        assert stages <= math.ceil(math.log2(max(2, delta))) + 1, (stages, delta)
        per_stage = {}
        for row in rows:
            per_stage.setdefault(row.stage, row.max_uncolored_degree)
        keys = sorted(per_stage)
        for a, b in zip(keys, keys[1:]):
            assert 2 * per_stage[b] <= per_stage[a], (per_stage, a, b)
        done += 1
    elapsed = time.monotonic() - t0
    _report(8, done == 100 and elapsed < 600,
            f"{done} pipeline runs proper in {elapsed:.0f}s, stages within bound")


def test_criterion_09_linial_shape():
    """Rings and random graphs n<=512: rounds <= 6, palette <= 8 * Delta^2."""
    cases = 0
    for n in (8, 16, 64, 256, 512):
        ring = ring_graph(n)
        out, trace = linial_coloring(ring)
        assert all(out.colors[u] != out.colors[v] for u, v in ring.edges())
        assert trace.rounds_elapsed <= 6
        assert linial_palette(ring) <= 8 * ring.max_degree() ** 2
        cases += 1
    rng = random.Random(99)
    while cases < 20:
        n = rng.randrange(16, 513)
        p = rng.choice([2.5, 4.0, 8.0]) / n
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = ColoredGraph.build(n, edges)
        if g.max_degree() < 2:
            continue
        out, trace = linial_coloring(g)
        assert all(out.colors[u] != out.colors[v] for u, v in g.edges())
        assert trace.rounds_elapsed <= 6
        assert linial_palette(g) <= 8 * g.max_degree() ** 2
        cases += 1
    _report(9, cases == 20, f"{cases} graphs proper within shape bounds")


def test_criterion_10_determinism():
    """Every algorithm, same seed/config: byte-identical traces."""
    checks = []

    graph = make_graph("random-gnp", 24, 4, seed=5)
    inst = make_instance(graph, "defect-budget", seed=5, space_size=16, k=4)

    out_a, st_a = sequential_ldc(graph, inst)
    out_b, st_b = sequential_ldc(graph, inst)
    checks.append(out_a == out_b and st_a.phi_history == st_b.phi_history)

    arb = make_instance(graph, "defect-budget", seed=5, space_size=16, k=4,
                        flavor="arbdefective", target="eq2")
    checks.append(sequential_arbdefective(graph, arb)[0]
                  == sequential_arbdefective(graph, arb)[0])

    small = make_graph("clique", 5, 4, seed=1)
    tiny = make_instance(small, "defect-budget", seed=1, space_size=6, k=2)
    checks.append(exhaustive_solve(small, tiny) == exhaustive_solve(small, tiny))

    ring = ring_graph(64)
    checks.append(linial_coloring(ring)[1].to_json(verbose=True)
                  == linial_coloring(ring)[1].to_json(verbose=True))

    dag = random_dag(16, 2, 0.3, seed=4)
    cfg = OldcConfig(alpha=1.0, scale_override=(2, 2))
    rng = random.Random(4)
    space = list(range(48))
    lists = [sorted(rng.sample(space, 8)) for _ in range(dag.n)]

    def run_basic():
        try:
            with network(record_messages=True):
                out, tr = single_defect_oldc(dag, space, lists, [1] * dag.n, 0, cfg)
            return out.colors, tr.to_json(verbose=True)
        except FailFast as exc:
            return type(exc).__name__, str(exc)

    checks.append(run_basic() == run_basic())

    binst = blockspread_instance(dag, seed=4)
    mcfg = MainConfig(alpha=1, tau_override=1, taubar_override=1,
                      stage1_scale=(2, 2), stage2_scale=(2, 2))

    def run_main():
        try:
            out, tr = main_oldc(dag, binst, mcfg)
            return out.colors, tr.to_json(verbose=True)
        except FailFast as exc:
            return type(exc).__name__, str(exc)

    checks.append(run_main() == run_main())

    inner = OldcInner(config=cfg)

    def run_reduced():
        try:
            with network(record_messages=True):
                out, tr = preset_message(dag, binst, inner, r=4)
            return out.colors, tr.to_json(verbose=True)
        except FailFast as exc:
            return type(exc).__name__, str(exc)

    checks.append(run_reduced() == run_reduced())

    fw_graph = make_graph("random-gnp", 40, 6, seed=9, oriented=False)
    fw_inst = make_instance(fw_graph, "degree-plus-one", seed=9, space_size=32,
                            flavor="arbdefective")

    def run_framework():
        out, tr, rows = degree_halving_framework(fw_graph, fw_inst)
        return out.colors, tr.to_json(verbose=True), [r.csv() for r in rows]

    checks.append(run_framework() == run_framework())

    def run_pipeline():
        out, tr, rows = congest_pipeline(fw_graph, fw_inst)
        return out.colors, tr.to_json(verbose=True), [r.csv() for r in rows]

    checks.append(run_pipeline() == run_pipeline())

    _report(10, all(checks), f"{len(checks)} algorithm pairs byte-identical")
