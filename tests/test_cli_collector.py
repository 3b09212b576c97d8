"""The CLI pauses the cyclic garbage collector around a command.

`cli.main` disables the collector after parsing its arguments and
restores the state it found.  The pause is sound only while a command
body leaves no cyclic garbage behind, which
``test_a_command_body_leaves_no_cyclic_garbage`` checks for every
algorithm.
"""

from __future__ import annotations

import gc

import pytest

from listdefect import cli, instance_from_json, instance_to_json
from listdefect.errors import ListDefectError
from listdefect.generate import make_graph, make_instance

# `listdefect generate` flags of an oriented instance on which `linial`
# succeeds and `seq` fails fast
DAG_FLAGS = ["--family", "random-dag", "--n", "10", "--list-model", "uniform-k", "--k", "3",
             "--space", "16", "--flavor", "oriented", "--seed", "2"]


@pytest.fixture
def collector_state():
    """Yields a setter for the collector state and re-enables it afterwards."""

    def set_state(enabled: bool) -> None:
        if enabled:
            gc.enable()
        else:
            gc.disable()

    yield set_state
    gc.enable()


@pytest.fixture
def dag_instance(tmp_path):
    path = tmp_path / "inst.json"
    assert cli.main(["generate", *DAG_FLAGS, "--out", str(path)]) == 0
    return path


# run flags -> expected exit code; `{inst}` is the instance path
RUNS = {
    "ok": (["run", "--algorithm", "linial", "--instance", "{inst}"], 0),
    "fail-fast": (["run", "--algorithm", "seq", "--instance", "{inst}"], 2),
    "error": (["run", "--algorithm", "seq", "--instance", "{inst}.missing"], 1),
}


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_cli_restores_the_collector_state(
    collector_state, dag_instance, tmp_path, capsys, enabled, run
):
    argv, code = RUNS[run]
    argv = [a.format(inst=dag_instance) for a in argv] + ["--out-dir", str(tmp_path / "out")]
    collector_state(enabled)
    assert cli.main(argv) == code
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_cli_pauses_the_collector_inside_the_command(
    collector_state, dag_instance, tmp_path, capsys, monkeypatch, enabled
):
    seen = []
    real = cli.ALGORITHM_TABLE["linial"]

    def spy(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setitem(cli.ALGORITHM_TABLE, "linial", spy)
    collector_state(enabled)
    argv = ["run", "--algorithm", "linial", "--instance", str(dag_instance),
            "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert seen == [False]
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_cli_restores_the_collector_when_an_exception_escapes(
    collector_state, dag_instance, tmp_path, monkeypatch, enabled
):
    def broken(*args):
        raise RuntimeError("not a library error")

    monkeypatch.setitem(cli.ALGORITHM_TABLE, "linial", broken)
    collector_state(enabled)
    argv = ["run", "--algorithm", "linial", "--instance", str(dag_instance),
            "--out-dir", str(tmp_path / "out")]
    with pytest.raises(RuntimeError):
        cli.main(argv)
    assert gc.isenabled() is enabled


def _run_options(**values) -> dict:
    defaults = {name: default for name, (_, default, _) in cli.RUN_OPTIONS.items()}
    return cli._run_options({**defaults, **values}, verbose=True)


# instance JSON and run options: the first instance gives exits 0 and 1,
# the oriented one exits 0, 1 and 2 (fail-fast)
_RING = make_graph("ring", 8, 2, seed=1)
_DAG = make_graph("random-dag", 12, 3, seed=2)
INSTANCES = {
    "ring": (
        instance_to_json(_RING, make_instance(_RING, "degree-plus-one", seed=1, space_size=8)),
        _run_options(),
    ),
    "dag": (
        instance_to_json(_DAG, make_instance(
            _DAG, "defect-budget", seed=2, space_size=16, k=4, flavor="oriented")),
        _run_options(alpha=1.0, tau_override="2,2", inner="basic", r=2),
    ),
}


@pytest.mark.parametrize("algorithm", cli.ALGORITHMS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_a_command_body_leaves_no_cyclic_garbage(algorithm, instance):
    text, opts = INSTANCES[instance]
    gc.collect()
    gc.disable()
    try:
        graph, inst = instance_from_json(text)
        try:
            _, trace, _, _ = cli.run_algorithm(graph, inst, algorithm, opts)
            trace.to_csv()
            trace.to_json(verbose=True)
        except ListDefectError:
            pass  # exits 1 and 2 (FailFast is a ListDefectError)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_instances_reach_every_exit():
    outcomes = set()
    for text, opts in INSTANCES.values():
        graph, inst = instance_from_json(text)
        for algorithm in cli.ALGORITHMS:
            try:
                _, _, report, _ = cli.run_algorithm(graph, inst, algorithm, opts)
                outcomes.add(2 if report.get("outcome") == "fail-fast" else 0)
            except ListDefectError:
                outcomes.add(1)
    assert outcomes == {0, 1, 2}
