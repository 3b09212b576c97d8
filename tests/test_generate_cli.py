import json
import math
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from listdefect import (
    ColoredGraph,
    ColoringOutput,
    LdcInstance,
    check_existence_condition,
    instance_to_json,
)
from listdefect.cli import ALGORITHMS
from listdefect.cli import main as cli_main
from listdefect.errors import InfeasibleParams, InvalidInstance, NodeFailure
from listdefect.generate import LIST_MODELS, make_graph, make_instance
from listdefect.graphs import FLAVORS
from listdefect.reductions import message_preset_p


def test_ring_degree_plus_one_lists():
    g = make_graph("ring", 8, 2, seed=0)
    inst = make_instance(g, "degree-plus-one", seed=0, space_size=8)
    assert all(len(l) == 3 for l in inst.lists)
    assert all(d == {x: 0 for x in l} for l, d in zip(inst.lists, inst.defects))


def test_clique_defect_budget_eq1():
    g = make_graph("clique", 5, 4, seed=1)
    inst = make_instance(g, "defect-budget", seed=1, space_size=8, k=3, target="eq1")
    for v in range(5):
        assert sum(d + 1 for d in inst.defects[v].values()) >= 5
    assert all(check_existence_condition(g, inst))


def test_defect_budget_eq2():
    g = make_graph("clique", 5, 4, seed=1)
    inst = make_instance(
        g, "defect-budget", seed=1, space_size=8, k=3, flavor="arbdefective", target="eq2"
    )
    for v in range(5):
        assert sum(2 * d + 1 for d in inst.defects[v].values()) > g.degree(v)


def test_defect_budget_eq5_eq6():
    from listdefect.conflict import tau_of

    g = make_graph("random-dag", 10, 3, seed=2)
    inst5 = make_instance(
        g, "defect-budget", seed=2, space_size=16, k=4,
        flavor="oriented", target="eq5", alpha=1.0,
    )
    for v in range(g.n):
        beta = g.beta(v)
        h = max(1, beta.bit_length())
        need = beta**2 * tau_of(h, 16, g.m) * h
        assert sum((d + 1) ** 2 for d in inst5.defects[v].values()) >= need
    inst6 = make_instance(
        g, "defect-budget", seed=2, space_size=16, k=4,
        flavor="oriented", target="eq6", alpha=1.0,
    )
    import math
    for v in range(g.n):
        beta = g.beta(v)
        h = max(1, beta.bit_length())
        hp = max(1, math.ceil(math.log2(8 * h)))
        need = beta**2 * tau_of(h, 16, g.m) * tau_of(hp, h, g.m) * hp**2
        assert sum((d + 1) ** 2 for d in inst6.defects[v].values()) >= need


def test_generation_deterministic():
    g1 = make_graph("random-gnp", 20, 4, seed=7)
    g2 = make_graph("random-gnp", 20, 4, seed=7)
    i1 = make_instance(g1, "defect-budget", seed=7, space_size=16, k=4)
    i2 = make_instance(g2, "defect-budget", seed=7, space_size=16, k=4)
    assert instance_to_json(g1, i1) == instance_to_json(g2, i2)
    g3 = make_graph("random-gnp", 20, 4, seed=8)
    assert g3.edges() != g1.edges() or g3.init_colors != g1.init_colors


def test_all_families_build():
    for family in ("ring", "clique", "random-gnp", "random-dag", "power-law"):
        g = make_graph(family, 12, 4, seed=3)
        assert g.n == 12
        assert g.out_neighbors is not None
        # orientation is total
        assert sum(len(o) for o in g.out_neighbors) == g.edge_count()


@pytest.mark.parametrize("family", ["random-gnp", "random-dag"])
def test_sampler_covers_no_pair_every_pair_and_tiny_graphs(family):
    for n in (1, 2, 3, 9):
        assert make_graph(family, n, 0, seed=1).edges() == []
        clique = make_graph("clique", n, 0, seed=1)
        for degree in (max(1, n - 1), 2 * n):  # p = 1 and p > 1
            full = make_graph(family, n, degree, seed=1)
            assert (full.adjacency, full.init_colors, full.m) == (
                clique.adjacency, clique.init_colors, clique.m)
            if family == "random-gnp":
                assert full == clique


@pytest.mark.parametrize("family", ["random-gnp", "random-dag"])
@pytest.mark.parametrize("n,degree", [(30, 2), (200, 8), (1000, 4), (300, 150)])
def test_sampler_edge_counts_stay_near_the_binomial_mean(family, n, degree):
    pairs = n * (n - 1) // 2
    p = degree / (n - 1)
    sigma = math.sqrt(pairs * p * (1 - p))
    for seed in range(5):
        count = make_graph(family, n, degree, seed=seed, oriented=False).edge_count()
        assert abs(count - pairs * p) <= 4 * sigma


def test_sampler_draws_each_pair_with_probability_p():
    # a skip off by one favours or starves some pairs, such as the first
    # pair after each jump to a new node
    trials, n, p = 3000, 6, 0.3
    hits: dict[tuple[int, int], int] = dict.fromkeys(
        [(u, v) for u in range(n) for v in range(u + 1, n)], 0)
    for seed in range(trials):
        for edge in make_graph("random-gnp", n, p * (n - 1), seed=seed, oriented=False).edges():
            hits[edge] += 1
    sigma = math.sqrt(trials * p * (1 - p))
    assert len(hits) == 15
    assert all(abs(count - trials * p) <= 4 * sigma for count in hits.values())


@pytest.mark.parametrize("oriented", [True, False])
@pytest.mark.parametrize("family", ["ring", "clique", "random-gnp", "random-dag", "power-law"])
def test_generated_graph_equals_its_checked_build(family, oriented):
    for n, degree, seed in [(3, 2, 0), (12, 4, 1), (40, 5, 2), (40, 12, 3), (90, 3, 4)]:
        g = make_graph(family, n, degree, seed=seed, oriented=oriented)
        orientation = g.oriented_edges() if oriented else None
        assert g == ColoredGraph.build(n, g.edges(), orientation, g.init_colors, g.m)
        if oriented:
            # acyclic: by node order, or for random-dag by a random one
            assert nx.is_directed_acyclic_graph(nx.DiGraph(orientation))
            assert family == "random-dag" or all(u < v for u, v in orientation)


def test_infeasible_params():
    with pytest.raises(InfeasibleParams):
        make_graph("ring", 2, 2, seed=0)
    g = make_graph("clique", 8, 7, seed=0)
    with pytest.raises(InfeasibleParams):
        make_instance(g, "degree-plus-one", seed=0, space_size=4)


def test_cli_generate_run_roundtrip(tmp_path):
    inst_path = tmp_path / "inst.json"
    rc = cli_main([
        "generate", "--family", "clique", "--n", "5", "--list-model", "defect-budget",
        "--target", "eq1", "--space", "8", "--k", "3", "--seed", "3",
        "--out", str(inst_path),
    ])
    assert rc == 0
    out_dir = tmp_path / "run"
    rc = cli_main([
        "run", "--algorithm", "seq", "--instance", str(inst_path),
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["valid"] is True
    coloring = json.loads((out_dir / "coloring.json").read_text())
    assert len(coloring["colors"]) == 5
    assert (out_dir / "trace.csv").read_text().startswith("round,max_bits")


@pytest.mark.parametrize("command", [["run", "--algorithm", "seq"], ["oracle"]])
def test_cli_run_and_oracle_take_no_seed(tmp_path, capsys, command):
    # no algorithm reads a seed, so `run` and `oracle` have no --seed option
    with pytest.raises(SystemExit) as exc:
        cli_main([*command, "--instance", str(tmp_path / "inst.json"), "--seed", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "unrecognized arguments: --seed 1" in err


def test_cli_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "--family", "random-dag", "--n", "16", "--seed", "5",
            "--list-model", "defect-budget", "--space", "12"]
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_oracle_unsat_verdict(tmp_path):
    # K3 with a single color and defect 1: sum = 2 = deg boundary, unsat
    inst_path = tmp_path / "tight.json"
    doc = {
        "n": 3, "edges": [[0, 1], [0, 2], [1, 2]],
        "init_colors": [0, 1, 2], "m": 3,
        "color_space": [0], "lists": [[0], [0], [0]],
        "defects": [{"0": 1}, {"0": 1}, {"0": 1}],
        "flavor": "defective", "g": 0,
    }
    inst_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "o"
    rc = cli_main(["oracle", "--instance", str(inst_path), "--out-dir", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["verdict"] == "UNSAT"


def test_cli_fail_fast_exit_code(tmp_path):
    inst_path = tmp_path / "inst.json"
    cli_main([
        "generate", "--family", "random-dag", "--n", "10", "--seed", "2",
        "--list-model", "uniform-k", "--k", "3", "--space", "16",
        "--flavor", "oriented", "--out", str(inst_path),
    ])
    rc = cli_main([
        "run", "--algorithm", "oldc-basic", "--instance", str(inst_path),
        "--alpha", "6.0", "--out-dir", str(tmp_path / "r"),
    ])
    assert rc == 2  # paper-scale tau on tiny lists: fail-fast
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report["outcome"] == "fail-fast"


def test_cli_pipeline_on_oriented_instance_fails_fast(tmp_path, capsys):
    # the pipeline solves the arbdefective copy; on this oriented instance
    # that coloring breaks the given orientation's defects
    inst_path = tmp_path / "dag.json"
    assert cli_main([
        "generate", "--family", "random-dag", "--n", "8", "--list-model", "defect-budget",
        "--space", "16", "--k", "4", "--flavor", "oriented", "--seed", "14",
        "--out", str(inst_path),
    ]) == 0
    rc = cli_main([
        "run", "--algorithm", "congest-pipeline", "--instance", str(inst_path),
        "--alpha", "1.0", "--tau-override", "2,2", "--r", "2", "--out-dir", str(tmp_path / "r"),
    ])
    assert rc == 2
    assert "NodeFailure" in capsys.readouterr().err
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report["outcome"] == "fail-fast"
    assert report["error"] == "NodeFailure"
    assert not (tmp_path / "r" / "coloring.json").exists()


def test_cli_writes_no_invalid_coloring(tmp_path, monkeypatch, capsys):
    from listdefect import cli
    from listdefect.runtime import RoundTrace

    def conflicting(graph, inst, opts, report):
        # every node takes its first color: node 0's two neighbors clash
        return ColoringOutput(tuple(lst[0] for lst in inst.lists)), RoundTrace(), []

    monkeypatch.setitem(cli.ALGORITHM_TABLE, "seq", conflicting)
    graph = ColoredGraph.build(3, [(0, 1), (0, 2)])
    inst = LdcInstance.build([0, 1], [[0, 1]] * 3, [{0: 0, 1: 0}] * 3)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(graph, inst))
    rc = cli_main(["run", "--algorithm", "seq", "--instance", str(inst_path),
                   "--out-dir", str(tmp_path / "r")])
    assert rc == 1
    assert capsys.readouterr().err == "invalid output produced\n"
    assert not (tmp_path / "r" / "coloring.json").exists()


def test_cli_writes_no_improper_linial_coloring(tmp_path, monkeypatch, capsys):
    from listdefect import cli
    from listdefect.runtime import RoundTrace

    graph = ColoredGraph.build(4, [(0, 1), (1, 2), (2, 3)])
    inst = LdcInstance.build([0, 1], [[0, 1]] * 4, [{0: 0, 1: 0}] * 4)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(graph, inst))

    def run_with(colors, out_dir):
        def fixed(graph, inst, opts, report):
            return ColoringOutput(colors), RoundTrace(), []

        monkeypatch.setitem(cli.ALGORITHM_TABLE, "linial", fixed)
        return cli_main(["run", "--algorithm", "linial", "--instance", str(inst_path),
                         "--out-dir", str(tmp_path / out_dir)])

    # only the last edge, (2, 3), is monochromatic
    assert run_with((0, 1, 0, 0), "improper") == 1
    assert capsys.readouterr().err == "invalid output produced\n"
    assert not (tmp_path / "improper" / "coloring.json").exists()
    assert run_with((0, 1, 0, 1), "proper") == 0
    assert capsys.readouterr().err == ""
    written = json.loads((tmp_path / "proper" / "coloring.json").read_text())
    assert written["colors"] == [0, 1, 0, 1]


def _pipeline_instance(path):
    # Delta = 63 and |C| = 4096: at alpha 1 and r 2 some batches of the
    # pipeline reach the inner distributed
    graph = make_graph("random-gnp", 120, 48, seed=6, oriented=False)
    assert graph.max_degree() == 63
    inst = make_instance(
        graph, "degree-plus-one", seed=1, space_size=4096, flavor="arbdefective"
    )
    path.write_text(instance_to_json(graph, inst))
    return graph


@pytest.mark.parametrize("override", [
    ["--tau-override", "1,2"],
    ["--tau-override", "1,2", "--taubar-override", "4,3"],
], ids=["tau", "tau-taubar"])
def test_cli_overrides_reach_main_oldc_alike_on_both_paths(tmp_path, monkeypatch, override):
    from listdefect import cli, reductions

    seen = []

    def record(graph, inst, config):
        seen.append(config)
        raise NodeFailure("config recorded")

    monkeypatch.setattr(cli, "main_oldc", record)
    monkeypatch.setattr(reductions, "main_oldc", record)
    inst_path = tmp_path / "inst.json"
    _pipeline_instance(inst_path)
    flags = ["--instance", str(inst_path), "--alpha", "1", *override]
    assert cli_main(["run", "--algorithm", "oldc-main", *flags, "--out-dir", str(tmp_path / "m")]) == 2
    (direct,) = seen
    assert cli_main([
        "run", "--algorithm", "congest-pipeline", *flags, "--r", "2",
        "--out-dir", str(tmp_path / "p"),
    ]) == 0  # every inner call failed fast, and the oracle colored its batch
    inner = seen[1:]
    assert inner and direct.tau_override == 1
    assert all(c == direct for c in inner)


def test_cli_pipeline_tau_override_runs_more_batches_distributed(tmp_path):
    inst_path = tmp_path / "inst.json"
    _pipeline_instance(inst_path)
    distributed = []
    for override in ([], ["--tau-override", "1,1"]):
        out_dir = tmp_path / str(len(override))
        assert cli_main([
            "run", "--algorithm", "congest-pipeline", "--instance", str(inst_path),
            "--alpha", "1.0", "--r", "2", *override, "--out-dir", str(out_dir),
        ]) == 0
        rows = (out_dir / "stages.csv").read_text().splitlines()[1:]
        distributed.append(sum(int(row.split(",")[4]) > 0 for row in rows))
    # a smaller tau lowers main_oldc's alpha*tau*R bar, so more batches
    # pass it instead of falling back to the oracle in 0 rounds
    assert distributed[1] > distributed[0] > 0


def test_cli_pipeline_verbose_records_messages_within_budget(tmp_path):
    inst_path = tmp_path / "inst.json"
    graph = _pipeline_instance(inst_path)
    out_dir = tmp_path / "r"
    assert cli_main([
        "run", "--algorithm", "congest-pipeline", "--instance", str(inst_path),
        "--alpha", "1.0", "--r", "2", "--verbose", "--out-dir", str(out_dir),
    ]) == 0
    messages = json.loads((out_dir / "trace.json").read_text())["messages"]
    # the pipeline's default budget: 8 (p ceil(log2 |C|) + ceil(log2 n) + 16)
    budget = 8 * (message_preset_p(4096, 2) * 12 + math.ceil(math.log2(graph.n)) + 16)
    assert messages and all(bits <= budget for _, _, _, bits in messages)


@pytest.mark.parametrize("override", [
    ["--tau-override", "0,1"],
    ["--tau-override", "1,1", "--taubar-override", "0,2"],
], ids=["tau-0", "taubar-0"])
def test_cli_main_oldc_rejects_a_zero_override(tmp_path, capsys, override):
    # a zero override is a value out of range, not "use the paper's value"
    inst_path = tmp_path / "dag.json"
    assert cli_main([
        "generate", "--family", "random-dag", "--n", "10", "--seed", "2",
        "--list-model", "uniform-k", "--k", "3", "--space", "16", "--flavor", "oriented",
        "--out", str(inst_path),
    ]) == 0
    rc = cli_main([
        "run", "--algorithm", "oldc-main", "--instance", str(inst_path), "--alpha", "1.0",
        *override, "--out-dir", str(tmp_path / "r"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidInstance: ") and "must be at least 1" in err
    assert not (tmp_path / "r" / "coloring.json").exists()


def test_cli_budget_violation_exit_code(tmp_path):
    inst_path = tmp_path / "ring.json"
    cli_main([
        "generate", "--family", "ring", "--n", "32", "--list-model", "degree-plus-one",
        "--space", "6", "--seed", "1", "--out", str(inst_path),
    ])
    text = inst_path.read_text().replace('"flavor":"defective"', '"flavor":"arbdefective"')
    inst_path.write_text(text)
    rc = cli_main([
        "run", "--algorithm", "congest-pipeline", "--instance", str(inst_path),
        "--bits-budget", "1", "--out-dir", str(tmp_path / "r"),
    ])
    assert rc == 2


def _ring_instance(path):
    assert cli_main([
        "generate", "--family", "ring", "--n", "300", "--list-model", "degree-plus-one",
        "--space", "9", "--flavor", "arbdefective", "--seed", "1", "--out", str(path),
    ]) == 0


def test_cli_linial_verbose_records_every_message(tmp_path):
    inst_path = tmp_path / "ring.json"
    _ring_instance(inst_path)
    out_dir = tmp_path / "r"
    assert cli_main([
        "run", "--algorithm", "linial", "--instance", str(inst_path),
        "--verbose", "--out-dir", str(out_dir),
    ]) == 0
    trace = json.loads((out_dir / "trace.json").read_text())
    # two sending rounds, each node to both ring neighbors
    assert len(trace["messages"]) == 1200
    assert trace["max_message_bits"] == [9, 6]


def test_cli_verbose_trace_always_has_messages(tmp_path, capsys):
    # a run that sends nothing, alone or composed, still writes its record
    inst_path = tmp_path / "gnp.json"
    assert cli_main([
        "generate", "--family", "random-gnp", "--n", "200", "--degree", "20",
        "--list-model", "degree-plus-one", "--space", "441", "--flavor", "arbdefective",
        "--seed", "1", "--undirected", "--out", str(inst_path),
    ]) == 0
    succeeded = []
    for algorithm in ALGORITHMS:
        out_dir = tmp_path / algorithm
        if cli_main([
            "run", "--algorithm", algorithm, "--instance", str(inst_path),
            "--verbose", "--out-dir", str(out_dir),
        ]) == 0:
            trace = json.loads((out_dir / "trace.json").read_text())
            assert trace["messages"] == [], algorithm
            succeeded.append(algorithm)
    assert succeeded == ["seq-arb", "linial", "framework", "congest-pipeline"]


@pytest.mark.parametrize("algorithm", ["linial", "congest-pipeline"])
def test_cli_bits_budget_binds_linial_rounds(tmp_path, capsys, algorithm):
    # Linial's first message is 9 bits: the engine stops it, alone or as
    # the pipeline's initial coloring
    inst_path = tmp_path / "ring.json"
    _ring_instance(inst_path)
    rc = cli_main([
        "run", "--algorithm", algorithm, "--instance", str(inst_path),
        "--bits-budget", "5", "--out-dir", str(tmp_path / "r"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == (
        "fail-fast: BudgetViolation: message on edge (0, 1) in round 1 needs 9 bits, budget 5\n"
    )
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report["error"] == "BudgetViolation"


def test_cli_space_reduced_and_main(tmp_path):
    """The distributed algorithms ride through the CLI with overrides."""
    import random

    from listdefect import ColoredGraph, LdcInstance

    rng = random.Random(1)
    n = 12
    edges, outdeg = [], [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if outdeg[u] < 2 and rng.random() < 0.3:
                edges.append((u, v))
                outdeg[u] += 1
    graph = ColoredGraph.build(n, edges, orientation=edges)
    lists = [sorted(16 * b + rng.randrange(16) for b in range(16)) for _ in range(n)]
    inst = LdcInstance.build(
        range(256), lists, [{x: 7 for x in l} for l in lists], flavor="oriented"
    )
    path = tmp_path / "block.json"
    path.write_text(instance_to_json(graph, inst))

    rc = cli_main([
        "run", "--algorithm", "space-reduced", "--instance", str(path),
        "--inner", "basic", "--r", "4", "--alpha", "1.0", "--tau-override", "2,2",
        "--out-dir", str(tmp_path / "sr"),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "sr" / "report.json").read_text())
    assert report["valid"] and report["p"] == 4

    rc = cli_main([
        "run", "--algorithm", "oldc-main", "--instance", str(path),
        "--alpha", "1.0", "--tau-override", "2,2", "--taubar-override", "2,2",
        "--out-dir", str(tmp_path / "om"),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "om" / "report.json").read_text())
    assert report["valid"]


@pytest.mark.parametrize("algorithm", ["space-reduced", "congest-pipeline"])
@pytest.mark.parametrize("r", ["0", "-1"])
def test_cli_message_preset_depth_below_one_is_invalid(tmp_path, capsys, algorithm, r):
    # --r 0 is a depth, not "unset", and no depth below 1 exists
    inst_path = tmp_path / "ring.json"
    assert cli_main([
        "generate", "--family", "ring", "--n", "8", "--list-model", "degree-plus-one",
        "--space", "6", "--seed", "1", "--out", str(inst_path),
    ]) == 0
    capsys.readouterr()
    rc = cli_main([
        "run", "--algorithm", algorithm, "--instance", str(inst_path), "--r", r,
        "--out-dir", str(tmp_path / "r"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: InvalidInstance: r must be at least 1\n"
    assert not (tmp_path / "r" / "report.json").exists()


def test_cli_sweep(tmp_path):
    cfg = tmp_path / "matrix.json"
    cfg.write_text(json.dumps({
        "families": ["ring", "clique"],
        "ns": [6],
        "list_models": ["defect-budget"],
        "algorithms": ["seq", "oracle"],
        "seeds": [0, 1],
        "space": 8,
        "k": 3,
    }))
    out = tmp_path / "sweep.csv"
    rc = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("family,n,")
    assert len(lines) == 1 + 2 * 1 * 1 * 2 * 2


def test_cli_sweep_empty_matrix(tmp_path):
    cfg = tmp_path / "matrix.json"
    cfg.write_text(json.dumps({"families": [], "algorithms": ["seq"]}))
    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().strip().splitlines() == [
        "family,n,list_model,algorithm,seed,rounds,max_bits,valid,failure"
    ]


def test_cli_run_rejects_non_object_instance(tmp_path, capsys):
    inst_path = tmp_path / "bad.json"
    inst_path.write_text("[1]")
    rc = cli_main([
        "run", "--algorithm", "seq", "--instance", str(inst_path),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "error: InvalidInstance" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"tau_override": [2, 2]},
    {"ns": 8},
    {"seeds": [0, "1"]},
    {"alpha": True},
    {"inner": "magic"},
    {"algorithms": ["seq", "nope"]},
    {"colour": "red"},
])
def test_cli_sweep_rejects_malformed_matrix(tmp_path, capsys, bad):
    cfg = tmp_path / "matrix.json"
    cfg.write_text(json.dumps({"algorithms": ["seq"], **bad}))
    rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep.csv")])
    assert rc == 1
    assert "error: ValueError: " in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_sweep_valid_column_checks_the_output(tmp_path, monkeypatch):
    from listdefect import ColoringOutput, cli

    real = cli.sequential_ldc

    def one_color(graph, inst):
        _, stats = real(graph, inst)
        return ColoringOutput((inst.lists[0][0],) * graph.n), stats

    monkeypatch.setattr(cli, "sequential_ldc", one_color)
    cfg = tmp_path / "matrix.json"
    cfg.write_text(json.dumps({
        "ns": [6], "list_models": ["uniform-k"], "space": 8, "k": 8, "algorithms": ["seq"],
    }))
    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "ring,6,uniform-k,seq,0,0,0,False,"


def test_cli_framework_stage_csv(tmp_path):
    inst_path = tmp_path / "inst.json"
    cli_main([
        "generate", "--family", "random-gnp", "--n", "24", "--degree", "4",
        "--list-model", "degree-plus-one", "--space", "32", "--seed", "2",
        "--flavor", "arbdefective", "--out", str(inst_path),
    ])
    out_dir = tmp_path / "fw"
    rc = cli_main([
        "run", "--algorithm", "framework", "--instance", str(inst_path),
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    stages = (out_dir / "stages.csv").read_text().splitlines()
    assert stages[0] == "stage,class,colored_count,max_uncolored_degree,rounds,max_bits"
    assert len(stages) > 1


def _short_defects(doc):
    doc["defects"] = doc["defects"][:-1]


def _string_defect(doc):
    color = next(iter(doc["defects"][0]))
    doc["defects"][0][color] = "1"


def _bool_g(doc):
    # false, not true: seq rejects g = 1 on its own, but would run at g = 0
    doc["g"] = False


def _list_defect_entry(doc):
    doc["defects"][0] = [0, 0, 0]


def _int_list_entry(doc):
    doc["lists"][0] = 3


def _string_edge_endpoint(doc):
    doc["edges"][0][0] = "0"


def _repeated_defect_key(doc):
    # "03" and "3" both parse as color 3; the later one must not win silently
    color = next(iter(doc["defects"][0]))
    doc["defects"][0]["0" + color] = doc["defects"][0][color] + 1


def _non_integer_defect_key(doc):
    doc["defects"][0]["a"] = 0


def _string_n(doc):
    doc["n"] = str(doc["n"])


def _bool_n(doc):
    doc["n"] = True


def _string_m(doc):
    doc["m"] = str(doc["m"])


def _float_m(doc):
    doc["m"] = doc["m"] - 0.5


def _int_color_space(doc):
    doc["color_space"] = len(doc["color_space"])


def _string_color_space(doc):
    doc["color_space"] = ["a", "b"]


def _float_color(doc):
    doc["color_space"].append(0.5)


def _bool_colors(doc):
    doc["color_space"][:2] = [True, False]


def _float_init_colors(doc):
    doc["init_colors"] = [float(c) for c in doc["init_colors"]]


def _short_init_colors(doc):
    doc["init_colors"] = doc["init_colors"][:-1]


def _no_flavor(doc):
    del doc["flavor"]


def _no_m(doc):
    del doc["m"]


def _no_lists(doc):
    del doc["lists"]


def _no_n(doc):
    del doc["n"]


@pytest.mark.parametrize("corrupt", [
    _short_defects, _string_defect, _bool_g,
    _list_defect_entry, _int_list_entry, _string_edge_endpoint,
    _repeated_defect_key, _non_integer_defect_key,
    _string_n, _bool_n, _string_m, _float_m, _int_color_space, _string_color_space,
    _float_color, _bool_colors, _float_init_colors, _short_init_colors,
    _no_flavor, _no_m, _no_lists, _no_n,
])
def test_cli_run_rejects_malformed_instance(tmp_path, capsys, corrupt):
    g = make_graph("ring", 6, 2, seed=0)
    doc = json.loads(instance_to_json(g, make_instance(g, "degree-plus-one", seed=0, space_size=8)))
    corrupt(doc)
    inst_path = tmp_path / "bad.json"
    inst_path.write_text(json.dumps(doc))
    rc = cli_main([
        "run", "--algorithm", "seq", "--instance", str(inst_path),
        "--out-dir", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: InvalidInstance" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("list_model", LIST_MODELS)
def test_generated_instances_pass_the_checked_constructor(list_model, flavor):
    # make_instance builds through the trusted constructor: the checked
    # one must accept the same data, and each defect map follows its
    # sorted list as LdcInstance.build would order it
    g = make_graph("random-gnp", 24, 5, seed=3)
    inst = make_instance(g, list_model, seed=3, space_size=16, k=5, flavor=flavor, g=1)
    checked = LdcInstance(inst.color_space, inst.lists, inst.defects, inst.flavor, inst.g)
    assert checked == inst
    assert all(list(l) == sorted(set(l)) == list(d) for l, d in zip(inst.lists, inst.defects))
    assert inst == LdcInstance.build(inst.color_space, inst.lists, inst.defects, flavor, 1)


def test_generated_instances_still_check_flavor_and_g():
    g = make_graph("ring", 6, 2, seed=0)
    with pytest.raises(InvalidInstance, match="negative proximity g"):
        make_instance(g, "degree-plus-one", seed=0, space_size=8, g=-1)
    with pytest.raises(InvalidInstance, match="unknown flavor 'plain'"):
        make_instance(g, "uniform-k", seed=0, space_size=8, flavor="plain")


def _cli_subprocess(*args: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "listdefect.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


# deeper than any recursion limit the JSON decoder could be run under
_DEEP = "[" * 200_000 + "]" * 200_000


def test_cli_run_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP)
    proc = _cli_subprocess("run", "--algorithm", "seq", "--instance", str(path),
                           "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "error: InvalidInstance: instance JSON nests too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_sweep_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text('{"ns": ' + _DEEP + "}")
    proc = _cli_subprocess("sweep", "--config", str(path), "--out", str(tmp_path / "sweep.csv"))
    assert proc.returncode == 1
    assert "error: ValueError: sweep config JSON nests too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "sweep.csv").exists()
