"""Golden digest of seeded OLDC runs.

Every run below records its messages, and is recorded as its colors,
``trace.audit`` and verbose trace JSON when it succeeds, or as its
failure class and message (which carry the counts behind the failed
bound) when it fails fast.  The sha256
of all records is pinned, so any change to the conflict counting of
``main_oldc``, ``two_phase_oldc`` or the basic algorithm shows up as a
changed digest.  After an intended output change, print the new digest
with

    PYTHONPATH=src python tests/test_oldc_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random

from conftest import random_dag

from listdefect import (
    ClassBudget,
    FailFast,
    LdcInstance,
    MainConfig,
    OldcConfig,
    main_oldc,
    multi_defect_oldc,
    network,
    two_phase_oldc,
)

MAIN_RUNS = 120
TWO_PHASE_RUNS = 40  # per two-phase generator
BASIC_RUNS = 40

GOLDEN_SHA256 = "3564f1b5c967e50fca724b94efec9b8a535ac06cca5fdba2b59865ca22081844"


def _main_case(seed: int):
    rng = random.Random(seed)
    n = rng.randrange(10, 20)
    graph = random_dag(n, rng.choice([2, 3, 4]), 0.6, seed=seed)
    space = list(range(128))
    lists = [sorted(rng.sample(space, rng.choice([24, 32, 48]))) for _ in range(n)]
    choices = rng.choice([(1, 3), (3,), (0, 1, 3), (1, 2, 3)])
    inst = LdcInstance.build(
        space, lists, [{x: rng.choice(choices) for x in l} for l in lists], flavor="oriented"
    )
    config = MainConfig(
        alpha=1,
        tau_override=1,
        taubar_override=1,
        stage1_scale=(rng.choice([1, 2]), 2),
        stage2_scale=rng.choice([(1, 1), (1, 2), (2, 2)]),
    )
    return graph, inst, config


def _two_phase_case(seed: int):
    """Block-spread lists: one color per block, so lists overlap a little."""
    rng = random.Random(seed)
    n = rng.randrange(10, 18)
    graph = random_dag(n, rng.choice([2, 3]), 0.5, seed=seed)
    h, q = rng.choice([1, 2]), rng.choice([1, 2])
    block = rng.choice([6, 8, 16])
    space = list(range(16 * block))
    lists = [sorted(block * b + rng.randrange(block) for b in range(16)) for _ in range(n)]
    classes, defects, predecided = {}, {}, {}
    for v in range(n):
        if rng.random() < 0.15:
            predecided[v] = lists[v][0]
        else:
            classes[v] = rng.randint(1, h)
            defects[v] = rng.choice([3, 7, 15])
    budget = ClassBudget(classes=classes, defects=defects, h=h, q=q)
    config = OldcConfig(alpha=0.25, scale_override=rng.choice([(1, 2), (2, 2), (2, 4)]))
    return graph, space, lists, budget, config, predecided


def _shared_pool_case(seed: int):
    """Dense DAGs, one class; each list is a few colors of a small shared
    pool (the lowest colors, so the first candidate sets use them) plus
    colors of its own, so out-neighbors' candidate sets overlap."""
    rng = random.Random(seed)
    n = rng.randrange(8, 14)
    graph = random_dag(n, rng.choice([4, 5, 6]), 0.9, seed=seed)
    pool = rng.choice([4, 6])
    space = list(range(pool + 8 * n))
    lists = [
        sorted(rng.sample(range(pool), rng.choice([3, 4])) + list(range(pool + 8 * v, pool + 8 * v + 8)))
        for v in range(n)
    ]
    budget = ClassBudget(
        classes=dict.fromkeys(range(n), 1),
        defects={v: rng.choice([15, 31]) for v in range(n)},
        h=1,
        q=1,
    )
    config = OldcConfig(alpha=0.1, scale_override=rng.choice([(1, 2), (2, 2)]))
    return graph, space, lists, budget, config, {}


def _basic_case(seed: int):
    rng = random.Random(seed)
    n = rng.randrange(10, 16)
    graph = random_dag(n, rng.choice([3, 5]), 0.5, seed=seed)
    g = rng.choice([0, 1, 2])
    space = list(range(120))
    lists = [sorted(rng.sample(space, 40)) for _ in range(n)]
    inst = LdcInstance.build(
        space, lists, [{x: rng.choice([1, 2, 4]) for x in l} for l in lists],
        flavor="oriented", g=g,
    )
    config = OldcConfig(alpha=0.1, scale_override=(rng.choice([1, 2]), 2))
    return graph, inst, config


def _record(run) -> dict:
    try:
        with network(record_messages=True):
            out, trace = run()
    except FailFast as exc:
        return {"failure": type(exc).__name__, "message": str(exc)}
    return {
        "colors": list(out.colors),
        "audit": [list(row) for row in trace.audit] if trace.audit is not None else None,
        "trace": trace.to_json(verbose=True),
    }


def golden_records() -> list[dict]:
    records = []
    for seed in range(MAIN_RUNS):
        graph, inst, config = _main_case(seed)
        records.append(_record(lambda: main_oldc(graph, inst, config)))
    for case in (_two_phase_case, _shared_pool_case):
        for seed in range(TWO_PHASE_RUNS):
            graph, space, lists, budget, config, pre = case(seed)
            records.append(
                _record(lambda: two_phase_oldc(graph, space, lists, budget, config, predecided=pre))
            )
    for seed in range(BASIC_RUNS):
        graph, inst, config = _basic_case(seed)
        records.append(_record(lambda: multi_defect_oldc(graph, inst, config=config)))
    return records


def golden_digest(records: list[dict]) -> str:
    blob = "\n".join(json.dumps(r, sort_keys=True) for r in records).encode()
    return hashlib.sha256(blob).hexdigest()


def test_golden_runs_cover_successes_and_failures():
    records = golden_records()
    main = records[:MAIN_RUNS]
    two_phase = records[MAIN_RUNS:MAIN_RUNS + 2 * TWO_PHASE_RUNS]
    basic = records[MAIN_RUNS + 2 * TWO_PHASE_RUNS:]
    for group in (main, two_phase, basic):
        assert any("colors" in r for r in group)
        assert any("failure" in r for r in group)


def test_golden_digest():
    assert golden_digest(golden_records()) == GOLDEN_SHA256


if __name__ == "__main__":
    print(golden_digest(golden_records()))
