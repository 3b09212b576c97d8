"""Typed rejections of bad inputs at the public entries, and runs that
read nothing from the environment."""

import random

import pytest

from listdefect import (
    ClassBudget,
    ColoredGraph,
    ColoringOutput,
    ConflictParams,
    GreedyExhausted,
    InfeasibleParams,
    InvalidGraph,
    InvalidInstance,
    LdcInstance,
    MissingOrientation,
    NodeType,
    OldcConfig,
    OracleInner,
    build_type_table,
    check_existence_condition,
    defective_linial,
    congest_pipeline,
    degree_halving_framework,
    exhaustive_solve,
    gamma_class_of,
    instance_from_json,
    instance_to_json,
    make_graph,
    residue_restrict,
    sequential_arbdefective,
    sequential_ldc,
    single_defect_oldc,
    space_reduced_oldc,
    two_phase_oldc,
    validate_ldc,
)
from listdefect.cli import main as cli_main

from conftest import random_dag

EDGES = [(0, 1), (1, 2)]
SPACE = range(4)
LISTS = [[0, 1, 2, 3]] * 3


def _oriented():
    return ColoredGraph.build(3, EDGES, orientation=EDGES)


def _unoriented():
    return ColoredGraph.build(3, EDGES)


def _instance(flavor, g=0):
    return LdcInstance.build(SPACE, LISTS, [{x: 1 for x in l} for l in LISTS], flavor=flavor, g=g)


def _sized(flavor, k):
    """An instance with k lists, for the 3-node path."""
    lists = [[0, 1, 2, 3]] * k
    return LdcInstance.build(SPACE, lists, [{x: 1 for x in l} for l in lists], flavor=flavor)


def _budget():
    return ClassBudget(classes={0: 1, 1: 1, 2: 1}, defects={0: 1, 1: 1, 2: 1}, h=1, q=1)


REJECTIONS = {
    "make_graph-unknown-family": (
        lambda: make_graph("moebius", 4, 2, 0), InfeasibleParams, "unknown family 'moebius'",
    ),
    "make_graph-no-nodes": (
        lambda: make_graph("ring", 0, 2, 0), InfeasibleParams, "n must be positive",
    ),
    "graph-negative-node-count": (
        lambda: ColoredGraph.build(-1, []), InvalidGraph, "negative node count",
    ),
    "existence-condition-oriented": (
        lambda: check_existence_condition(_oriented(), _instance("oriented")),
        InvalidInstance, "existence condition only defined for defective/arbdefective",
    ),
    "defective_linial-unoriented": (
        lambda: defective_linial(_unoriented(), 1),
        MissingOrientation, "defective_linial needs an oriented graph",
    ),
    "single_defect_oldc-unoriented": (
        lambda: single_defect_oldc(_unoriented(), SPACE, LISTS, [1] * 3, 0),
        MissingOrientation, "oriented coloring needs an orientation",
    ),
    "two_phase_oldc-unoriented": (
        lambda: two_phase_oldc(_unoriented(), SPACE, LISTS, _budget()),
        MissingOrientation, "two-phase OLDC needs an orientation",
    ),
    "two_phase_oldc-classed-and-predecided": (
        lambda: two_phase_oldc(_oriented(), SPACE, LISTS, _budget(), predecided={0: 0}),
        InvalidInstance, "every node needs exactly one of: class or predecided color",
    ),
    "space_reduced_oldc-unoriented": (
        lambda: space_reduced_oldc(_unoriented(), _instance("oriented"), 2, OracleInner()),
        MissingOrientation, "space reduction needs an orientation",
    ),
    "space_reduced_oldc-defective": (
        lambda: space_reduced_oldc(_oriented(), _instance("defective"), 2, OracleInner()),
        InvalidInstance, "space reduction expects an oriented instance",
    ),
    "space_reduced_oldc-p1": (
        lambda: space_reduced_oldc(_oriented(), _instance("oriented"), 1, OracleInner()),
        InvalidInstance, "branching factor p must be at least 2",
    ),
    "class-budget-h0": (
        lambda: ClassBudget(classes={}, defects={}, h=0, q=1),
        InvalidInstance, "ClassBudget needs h, q >= 1",
    ),
    "class-budget-class-outside": (
        lambda: ClassBudget(classes={0: 2}, defects={0: 1}, h=1, q=1),
        InvalidInstance, "class outside [1..h]",
    ),
    "conflict-params-h0": (
        lambda: ConflictParams(h=0, color_space_size=4, m=4),
        InvalidInstance, "bad conflict parameters",
    ),
    "framework-g1": (
        lambda: degree_halving_framework(_unoriented(), _instance("arbdefective", g=1)),
        InvalidInstance, "framework requires g = 0",
    ),
    "sequential_ldc-too-few-lists": (
        lambda: sequential_ldc(_unoriented(), _sized("defective", 2)),
        InvalidInstance, "2 lists for 3 nodes",
    ),
    "sequential_arbdefective-too-many-lists": (
        lambda: sequential_arbdefective(_unoriented(), _sized("arbdefective", 4)),
        InvalidInstance, "4 lists for 3 nodes",
    ),
    "exhaustive_solve-too-few-lists": (
        lambda: exhaustive_solve(_unoriented(), _sized("defective", 2)),
        InvalidInstance, "2 lists for 3 nodes",
    ),
    "framework-too-many-lists": (
        lambda: degree_halving_framework(_unoriented(), _sized("arbdefective", 4)),
        InvalidInstance, "4 lists for 3 nodes",
    ),
    "congest_pipeline-too-few-lists": (
        lambda: congest_pipeline(_unoriented(), _sized("arbdefective", 2)),
        InvalidInstance, "2 lists for 3 nodes",
    ),
    "validate_ldc-too-many-lists": (
        lambda: validate_ldc(_unoriented(), _sized("defective", 4), ColoringOutput((0, 1, 0))),
        InvalidInstance, "4 lists for 3 nodes",
    ),
    "gamma_class_of-negative-defect": (
        lambda: gamma_class_of(3, -1), InvalidInstance, "negative defect -1",
    ),
    "instance_from_json-deeply-nested": (
        lambda: instance_from_json("[" * 200_000 + "]" * 200_000),
        InvalidInstance, "instance JSON nests too deeply",
    ),
    "type-table-k-prime-0": (
        lambda: build_type_table(
            ConflictParams(h=1, color_space_size=4, m=4, scale_override=(2, 2)),
            [NodeType(0, (0, 1, 2, 3), 1)], {1: 2}, 0,
        ),
        GreedyExhausted, "type NodeType(init_color=0, restricted_list=(0, 1, 2, 3), "
        "gamma_class=1) admits no family",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_bad_input_raises_its_typed_error(case):
    call, error, message = REJECTIONS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_residue_restrict_of_an_empty_list():
    assert residue_restrict((), 1) == (0, ())


def _sweep_array(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text("[1, 2]")
    return ["sweep", "--config", str(config)]


def _run_with_bad_override(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(instance_to_json(_oriented(), _instance("oriented")))
    return [
        "run", "--algorithm", "oldc-basic", "--instance", str(inst),
        "--tau-override", "1,2,3", "--out-dir", str(tmp_path / "out"),
    ]


def _sweep_deeply_nested(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text('{"ns": ' + "[" * 200_000 + "]" * 200_000 + "}")
    return ["sweep", "--config", str(config)]


@pytest.mark.parametrize("argv, message", [
    (_run_with_bad_override, "override must be 'tau,tau_prime'"),
    (_sweep_array, "a sweep matrix is a JSON object"),
    (_sweep_deeply_nested, "sweep config JSON nests too deeply"),
])
def test_cli_rejects_a_malformed_option_with_a_typed_error(tmp_path, capsys, argv, message):
    assert cli_main(argv(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: ValueError: {message}\n"


def _oldc_case():
    graph = random_dag(10, 2, 0.4, seed=0)
    rng = random.Random(0)
    lists = [sorted(rng.sample(range(64), 10)) for _ in range(graph.n)]
    return graph, range(64), lists, [1] * graph.n, 0, OldcConfig(alpha=1.0, scale_override=(2, 2))


def test_oldc_runs_read_no_environment_variable(tmp_path, monkeypatch):
    # the retired type-table cache switch names a directory that must stay
    # empty, and the run must equal one made without it
    monkeypatch.setenv("LISTDEFECT_CACHE", str(tmp_path))
    out, trace = single_defect_oldc(*_oldc_case())
    assert list(tmp_path.iterdir()) == []
    monkeypatch.delenv("LISTDEFECT_CACHE")
    want_out, want_trace = single_defect_oldc(*_oldc_case())
    assert out == want_out
    assert trace.to_json(verbose=True) == want_trace.to_json(verbose=True)
