"""Golden digest of seeded ``congest_pipeline`` runs.

The instances have the shape of the benchmark's ``pipeline`` workload:
ring, random-gnp and power-law graphs with n <= 300, degree+1 lists over
min(64, (max degree + 1)^2) colors, arbdefective flavor.  A few
defect-budget instances give lists with positive defects, so the
framework runs stages at a positive arbdefect and colors nodes whose
defect absorbs their uncolored degree; two defective g = 1 instances
reach the pipeline's own output gate.  Every run records its messages
and is recorded as its colors, orientation, verbose trace JSON and stage
rows when it succeeds, or as its failure class and message when it fails
fast.  The sha256 of all records is pinned, so it covers the trace bytes
and stage rows that the framework's differential tests do not compare.
After an intended output change, print the new digest, after one
sha256 per case (its index and family), with

    PYTHONPATH=src python tests/test_pipeline_golden.py
"""

from __future__ import annotations

import hashlib
import json

from listdefect import ListDefectError, congest_pipeline, make_graph, make_instance, network

PIPELINE_GOLDEN_SHA256 = "6034bfb2804cad84f2eb3c455ee63a58b9a812ff5893e45d24dc62864e271ef8"

# (family, n, degree target, list model, flavor, g); the case's index is its seed
CASES = (
    ("ring", 24, 2, "degree-plus-one", "arbdefective", 0),
    ("ring", 120, 2, "degree-plus-one", "arbdefective", 0),
    ("ring", 200, 2, "degree-plus-one", "arbdefective", 0),
    ("ring", 300, 2, "degree-plus-one", "arbdefective", 0),
    ("random-gnp", 24, 8, "degree-plus-one", "arbdefective", 0),
    ("random-gnp", 24, 12, "degree-plus-one", "arbdefective", 0),
    ("random-gnp", 48, 4, "degree-plus-one", "arbdefective", 0),
    ("random-gnp", 96, 8, "degree-plus-one", "arbdefective", 0),
    ("random-gnp", 100, 8, "degree-plus-one", "arbdefective", 0),
    ("random-gnp", 200, 4, "degree-plus-one", "arbdefective", 0),
    ("random-gnp", 200, 12, "degree-plus-one", "arbdefective", 0),
    ("random-gnp", 150, 40, "degree-plus-one", "arbdefective", 0),
    ("random-gnp", 300, 30, "degree-plus-one", "arbdefective", 0),
    ("power-law", 24, 4, "degree-plus-one", "arbdefective", 0),
    ("power-law", 48, 4, "degree-plus-one", "arbdefective", 0),
    ("power-law", 60, 4, "degree-plus-one", "arbdefective", 0),
    ("power-law", 96, 2, "degree-plus-one", "arbdefective", 0),
    ("power-law", 200, 6, "degree-plus-one", "arbdefective", 0),
    ("power-law", 300, 8, "degree-plus-one", "arbdefective", 0),
    ("ring", 120, 2, "defect-budget", "arbdefective", 0),
    ("random-gnp", 48, 4, "defect-budget", "arbdefective", 0),
    ("random-gnp", 100, 8, "defect-budget", "arbdefective", 0),
    ("random-gnp", 200, 12, "defect-budget", "arbdefective", 0),
    ("random-gnp", 300, 30, "defect-budget", "arbdefective", 0),
    ("power-law", 60, 4, "defect-budget", "arbdefective", 0),
    ("power-law", 200, 6, "defect-budget", "arbdefective", 0),
    ("power-law", 300, 8, "defect-budget", "arbdefective", 0),
    ("random-gnp", 48, 4, "defect-budget", "defective", 1),
    ("power-law", 60, 4, "degree-plus-one", "defective", 1),
)


def _record(seed: int, family: str, n: int, degree: int, model: str, flavor: str, g: int) -> dict:
    graph = make_graph(family, n, degree, seed=seed, oriented=False)
    space = min(64, (graph.max_degree() + 1) ** 2)
    inst = make_instance(graph, model, seed=seed, space_size=space, flavor=flavor, g=g)
    try:
        with network(record_messages=True):
            out, trace, rows = congest_pipeline(graph, inst)
    except ListDefectError as exc:
        return {"failure": type(exc).__name__, "message": str(exc)}
    return {
        "colors": list(out.colors),
        "orientation": [list(e) for e in out.orientation_out],
        "trace": trace.to_json(verbose=True),
        "stages": [row.csv() for row in rows],
    }


def golden_records() -> list[dict]:
    return [_record(seed, *case) for seed, case in enumerate(CASES)]


def golden_digest(records: list[dict]) -> str:
    blob = "\n".join(json.dumps(r, sort_keys=True) for r in records).encode()
    return hashlib.sha256(blob).hexdigest()


def test_pipeline_golden_digest():
    assert golden_digest(golden_records()) == PIPELINE_GOLDEN_SHA256


if __name__ == "__main__":
    # one digest per case, so a diff of two prints names the cases that changed
    records = golden_records()
    for seed, (case, record) in enumerate(zip(CASES, records)):
        digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
        print(seed, case[0], digest)
    print(golden_digest(records))
