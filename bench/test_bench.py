"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from listdefect import ColoredGraph, ColoringOutput, linial, reductions  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def instance_bytes(name: str, seed: int) -> bytes:
    return b"".join(c.to_bytes() for p in workloads.WORKLOADS[name].passes(seed) for c in p)


def first_cases_digest(name: str, seed: int, count: int, tmp_path: Path) -> str:
    session = run.Session(workloads.WORKLOADS[name], seed, tmp_path / f"{name}-{seed}")
    session.setup()
    session.passes = [p[:count] for p in session.passes]
    session.run_passes(0, 0, max_passes=1)
    return session.digest()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_instances(name):
    assert instance_bytes(name, 3) == instance_bytes(name, 3)
    assert instance_bytes(name, 3) != instance_bytes(name, 4)


@pytest.mark.parametrize("name,count", [("oldc-scaled", 5), ("pipeline", 17), ("large-graph", 6)])
def test_same_seed_same_digest(name, count, tmp_path):
    first = first_cases_digest(name, 3, count, tmp_path)
    assert first == first_cases_digest(name, 3, count, tmp_path)
    assert first != first_cases_digest(name, 4, count, tmp_path)


def test_invalid_coloring_is_rejected(tmp_path):
    wl = workloads.WORKLOADS["pipeline"]
    case = wl.passes(1)[0][0]
    out, trace, rows = wl.execute(case, str(tmp_path))
    wl.check(case, (out, trace, rows), str(tmp_path))
    u, v = case.graph.edges()[0]
    colors = list(out.colors)
    if case.inst.defects[u].get(colors[v]) is None:
        pytest.skip("neighbor color not in the list")
    colors[u] = colors[v]
    bad = ColoringOutput(tuple(colors), out.orientation_out)
    with pytest.raises(workloads.InvalidOutput):
        wl.check(case, (bad, trace, rows), str(tmp_path))


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, key, capsys):
    assert run.main(["--workload", "pipeline", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (run.MIN_INSTANCES if trace == 0 else 1)
    spec = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == spec
    for name, unit in spec.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in lines), name


def test_self_time_of_nested_spans():
    spans = [
        tracing.Span("a", 0.0, 10.0, -1, None),
        tracing.Span("b", 1.0, 4.0, 0, None),
        tracing.Span("c", 2.0, 3.0, 1, None),
        tracing.Span("d", 5.0, 9.0, 0, "CapExceeded"),
        tracing.Span("e", 11.0, 12.5, -1, None),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_traced_calls_nest_and_bindings_are_restored():
    case = workloads.WORKLOADS["pipeline"].passes(2)[0][12]
    before = tracing.bindings_snapshot()
    tracer = tracing.Tracer()
    with tracer:
        assert tracing.bindings_snapshot() != before
        reductions.congest_pipeline(case.graph, case.inst)
        linial.linial_coloring(ColoredGraph.build(64, [(i, (i + 1) % 64) for i in range(64)]))
    assert tracing.bindings_snapshot() == before
    spans, counts, results = tracer.take()
    names = {s.name for s in spans}
    # reached through a module global, a class attribute and a default value
    assert {"oracle.sequential_ldc", "graphs.ColoredGraph.build",
            "reductions.arbdefective_subroutine"} <= names
    assert spans[0].name == "reductions.congest_pipeline" and spans[0].parent == -1
    assert [s.name for s in spans if s.parent == -1][-1] == "linial.linial_coloring"
    for s in spans:
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    assert counts["runtime.message_bits"] > 0
    assert len(results["reductions.congest_pipeline"]) == 1
    assert results["runtime.run"][-1].rounds_elapsed > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
