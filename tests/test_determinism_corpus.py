"""Byte-level determinism corpus of the CLI.

``data/run_corpus.json`` holds, for every algorithm on a few small
generated instances, the exit code of ``listdefect run`` and the sha256
of every file the run wrote (plus the ``oracle`` command per instance).
``data/sweep.csv`` is one ``listdefect sweep`` over every algorithm.  The
tests regenerate both and compare bytes.  After an intended output
change, rewrite them with

    PYTHONPATH=src python tests/test_determinism_corpus.py

which also prints every corpus entry and sweep row that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from itertools import zip_longest
from pathlib import Path

from conftest import blockspread_instance, random_dag

from listdefect import instance_to_json
from listdefect.cli import ALGORITHMS
from listdefect.cli import main as cli_main

DATA = Path(__file__).resolve().parent / "data"
RUN_CORPUS = DATA / "run_corpus.json"
SWEEP_CSV = DATA / "sweep.csv"

# instance name -> (`listdefect generate` flags, or None for the block-spread
# instance that space reduction and the OLDC algorithms solve; `run` flags)
CASES = {
    "ring-defective": (
        ["--family", "ring", "--n", "8", "--degree", "2", "--list-model", "degree-plus-one",
         "--space", "8", "--seed", "1"],
        [],
    ),
    "dag-oriented": (
        ["--family", "random-dag", "--n", "12", "--degree", "3", "--list-model", "defect-budget",
         "--space", "16", "--k", "4", "--flavor", "oriented", "--seed", "2"],
        ["--alpha", "1.0", "--tau-override", "2,2", "--inner", "basic", "--r", "2"],
    ),
    "gnp-arbdefective": (
        ["--family", "random-gnp", "--n", "24", "--degree", "4", "--list-model", "degree-plus-one",
         "--space", "32", "--flavor", "arbdefective", "--seed", "2"],
        ["--inner", "basic", "--verbose"],
    ),
    "dag-fail-fast": (
        ["--family", "random-dag", "--n", "10", "--list-model", "uniform-k", "--k", "3",
         "--space", "16", "--flavor", "oriented", "--seed", "2"],
        ["--alpha", "6.0"],
    ),
    "dag-blockspread": (
        None,
        ["--alpha", "1.0", "--tau-override", "2,2", "--taubar-override", "2,2",
         "--inner", "basic", "--r", "4"],
    ),
}

SWEEP_MATRIX = {
    "families": ["ring", "random-dag", "clique"],
    "ns": [8],
    "list_models": ["degree-plus-one", "defect-budget"],
    "algorithms": list(ALGORITHMS),
    "seeds": [0, 1],
    "space": 16,
    "k": 4,
    "flavor": "oriented",
    "alpha": 1.0,
    "tau_override": "2,2",
    "taubar_override": "2,2",
    "inner": "basic",
    "r": 2,
}


def _quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli_main(argv)


def _write_instance(name: str, path: Path) -> None:
    gen_flags, _ = CASES[name]
    if gen_flags is None:
        graph = random_dag(12, 2, 0.3, seed=1)
        path.write_text(instance_to_json(graph, blockspread_instance(graph, seed=1)))
    else:
        assert _quiet_cli(["generate", *gen_flags, "--out", str(path)]) == 0


def run_corpus(work: Path) -> dict:
    corpus: dict = {}
    for name, (_, run_flags) in CASES.items():
        inst = work / f"{name}.json"
        _write_instance(name, inst)
        commands = {alg: ["run", "--algorithm", alg] for alg in ALGORITHMS}
        commands["oracle-command"] = ["oracle"]
        corpus[name] = {}
        for label, command in commands.items():
            out = work / name / label
            rc = _quiet_cli([*command, "--instance", str(inst), "--out-dir", str(out), *run_flags])
            files = sorted(out.iterdir()) if out.is_dir() else []
            corpus[name][label] = {
                "exit": rc,
                "files": {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files},
            }
    return corpus


def sweep_csv(work: Path) -> bytes:
    matrix = work / "matrix.json"
    matrix.write_text(json.dumps(SWEEP_MATRIX))
    out = work / "sweep.csv"
    assert _quiet_cli(["sweep", "--config", str(matrix), "--out", str(out)]) == 0
    return out.read_bytes()


def _corpus_bytes(corpus: dict) -> bytes:
    return (json.dumps(corpus, sort_keys=True, indent=1) + "\n").encode()


def test_run_corpus_is_byte_identical(tmp_path):
    assert _corpus_bytes(run_corpus(tmp_path)) == RUN_CORPUS.read_bytes()


def test_sweep_csv_is_byte_identical(tmp_path):
    assert sweep_csv(tmp_path) == SWEEP_CSV.read_bytes()


def test_report_changes_names_each_changed_entry_and_row():
    old = {"a": {"seq": {"exit": 0}, "linial": {"exit": 0}}}
    new = {"a": {"seq": {"exit": 0}, "linial": {"exit": 3}}, "b": {"seq": {"exit": 0}}}
    assert report_changes(old, new, "h\nx,1\ny,2\n", "h\nx,1\ny,3\nz,4\n") == [
        "corpus a linial: {'exit': 0} -> {'exit': 3}",
        "corpus b seq: None -> {'exit': 0}",
        "sweep line 3: y,2 -> y,3",
        "sweep line 4: None -> z,4",
    ]
    assert report_changes(old, old, "h\n", "h\n") == []


def report_changes(old_corpus: dict, corpus: dict, old_sweep: str, sweep: str) -> list[str]:
    """One line per corpus entry and per sweep row that differs."""
    lines = []
    for name in sorted(old_corpus.keys() | corpus.keys()):
        old, new = old_corpus.get(name, {}), corpus.get(name, {})
        for label in sorted(old.keys() | new.keys()):
            if old.get(label) != new.get(label):
                lines.append(f"corpus {name} {label}: {old.get(label)} -> {new.get(label)}")
    rows = zip_longest(old_sweep.splitlines(), sweep.splitlines())
    for no, (old_row, row) in enumerate(rows, 1):
        if old_row != row:
            lines.append(f"sweep line {no}: {old_row} -> {row}")
    return lines


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    old_corpus = json.loads(RUN_CORPUS.read_text()) if RUN_CORPUS.exists() else {}
    old_sweep = SWEEP_CSV.read_text() if SWEEP_CSV.exists() else ""
    with tempfile.TemporaryDirectory() as tmp:
        corpus = run_corpus(Path(tmp))
        sweep = sweep_csv(Path(tmp))
    RUN_CORPUS.write_bytes(_corpus_bytes(corpus))
    SWEEP_CSV.write_bytes(sweep)
    print("\n".join(report_changes(old_corpus, corpus, old_sweep, sweep.decode())) or "no changes")
