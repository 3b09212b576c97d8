"""The generator's random stream, pinned two ways.

``generate._draw`` must make exactly the ``getrandbits`` calls of
``random.Random.sample(range(n), k)`` followed by ``randrange(4)`` per
drawn color: equal values, and an equal next draw from the same
generator.  ``make_instance`` must write the bytes of its frozen copy in
``reference_generate``, or fail with the same error class and message.
"""

from __future__ import annotations

import json
import random
from itertools import product

import pytest
from networkx.generators.atlas import graph_atlas_g

import reference_generate
from listdefect import ColoredGraph, instance_to_json, make_graph, make_instance
from listdefect.cli import main as cli_main
from listdefect.errors import InfeasibleParams
from listdefect.generate import LIST_MODELS, TARGETS, _draw
from listdefect.graphs import FLAVORS

SEEDS = range(20)
# random.sample keeps a pool list while n <= setsize and a set of picks
# above it; setsize is 21 for k <= 5, then 85, 277 and 1045 from k = 6,
# 22 and 86 on.  Each (setsize, k) pair below puts n on both sides.
SWITCHES = ((21, 1), (21, 5), (85, 6), (85, 21), (277, 22), (277, 85), (1045, 86), (1045, 341))


def _shapes():
    for n in [*range(1, 71), 255, 256, 257, 4096]:
        for k in sorted({0, n, 5, 6}):
            if k <= n:
                yield n, k
    for setsize, k in SWITCHES:
        for n in (setsize - 1, setsize, setsize + 1):
            yield n, k


@pytest.mark.parametrize("defects", [False, True])
def test_draw_makes_the_library_draws(defects):
    shapes = list(_shapes())
    assert (4096, 4096) in shapes and (22, 5) in shapes and (86, 6) in shapes
    for n, k in shapes:
        for seed in SEEDS:
            rng, lib = random.Random(seed), random.Random(seed)
            got = _draw(rng.getrandbits, n, k, defects)
            want = sorted(lib.sample(range(n), k))
            drawn = [lib.randrange(4) for _ in want] if defects else [0] * k
            assert list(got) == want, (n, k, seed)
            assert list(got.values()) == drawn, (n, k, seed)
            assert rng.random() == lib.random(), (n, k, seed)


def _outcome(fn, *args, **kwargs):
    try:
        graph, inst = args[0], fn(*args, **kwargs)
    except InfeasibleParams as exc:
        return type(exc), str(exc)
    return instance_to_json(graph, inst)


def _graphs():
    atlas = [x for x in graph_atlas_g()[1:] if x.number_of_edges()][::97]
    made = [
        make_graph(family, n, degree, seed, oriented=oriented)
        for family, n, degree in (("ring", 9, 2), ("random-gnp", 16, 4), ("power-law", 16, 4))
        for seed, oriented in ((0, True), (1, False))
    ]
    return made + [ColoredGraph.build(x.number_of_nodes(), list(x.edges())) for x in atlas]


# (g, |C|, k, seed); four tuples against three flavors, so that every
# flavor meets every tuple over the list models and targets
PARAMS = ((0, 8, 3, 0), (1, 16, 5, 1), (0, 64, 2, 7), (1, 12, 4, 3))


@pytest.mark.parametrize("graph", _graphs(), ids=lambda g: f"n{g.n}-m{g.edge_count()}")
def test_make_instance_writes_the_frozen_reference_bytes(graph):
    written = set()
    for i, (list_model, target, flavor) in enumerate(product(LIST_MODELS, TARGETS, FLAVORS)):
        g, space_size, k, seed = PARAMS[i % len(PARAMS)]
        args = (graph, list_model, seed)
        kwargs = dict(space_size=space_size, k=k, flavor=flavor, g=g, target=target)
        want = _outcome(reference_generate.make_instance, *args, **kwargs)
        assert _outcome(make_instance, *args, **kwargs) == want, kwargs
        if isinstance(want, str):
            written.add(list_model)
    # degree+1 may exceed a small space, but every model writes instances
    assert written == set(LIST_MODELS)


@pytest.mark.parametrize("list_model, space_size, k, target", [
    ("degree-plus-one", 4, 4, "eq1"),  # degree+1 = 8 > |C|
    ("uniform-k", 8, 9, "eq1"),  # k > |C|
    ("uniform-k", 0, 3, "eq1"),  # an empty space
    ("defect-budget", 0, 3, "eq1"),
    ("degree-plus-one", 0, 3, "eq1"),
    ("defect-budget", 8, 3, "eq9"),  # an unknown target
    ("no-such-model", 8, 3, "eq1"),
])
def test_infeasible_inputs_fail_as_on_the_reference(list_model, space_size, k, target):
    graph = make_graph("clique", 8, 7, seed=0)
    args = (graph, list_model, 0)
    kwargs = dict(space_size=space_size, k=k, target=target)
    want = _outcome(reference_generate.make_instance, *args, **kwargs)
    assert want[0] is InfeasibleParams
    assert _outcome(make_instance, *args, **kwargs) == want


def test_make_instance_rejects_a_negative_k():
    graph = make_graph("ring", 5, 2, seed=0)
    with pytest.raises(InfeasibleParams, match=r"^k = -1 is negative$"):
        make_instance(graph, "uniform-k", 0, k=-1)
    # the other models never draw k colors: defect-budget draws at least one
    assert make_instance(graph, "defect-budget", 0, k=-1).max_list_size == 1


def test_cli_generate_rejects_a_negative_k(tmp_path, capsys):
    out = tmp_path / "inst.json"
    rc = cli_main(["generate", "--family", "ring", "--n", "5", "--list-model", "uniform-k",
                   "--k", "-1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: InfeasibleParams: k = -1 is negative\n"
    assert not out.exists()


def test_sweep_gives_a_negative_k_cell_an_error_row(tmp_path):
    cfg = tmp_path / "matrix.json"
    cfg.write_text(json.dumps({"families": ["ring"], "ns": [5], "seeds": [0], "k": -1,
                               "list_models": ["uniform-k", "degree-plus-one"]}))
    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == [
        "ring,5,uniform-k,seq,0,,,False,error:InfeasibleParams",
        "ring,5,degree-plus-one,seq,0,0,0,True,",
    ]
