"""The benchmark's workloads: inputs made from a seed, one call per instance,
and the correctness check of every output.

Each workload draws a fixed grid of instance shapes and lets the seed
choose only the random parts (edges, lists, defects), so that two seeds
give different inputs of the same mix.  ``passes`` returns one or more
passes over that grid; the measuring loop runs whole passes only.
Library functions are looked up on their modules at call time, so a
traced run sees every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Optional

from listdefect import cli, generate, graphs, oldc_basic, oldc_main, reductions
from listdefect.errors import FailFast
from listdefect.graphs import ColoredGraph, ColoringOutput, LdcInstance
from listdefect.linial import linial_palette


class InvalidOutput(Exception):
    """An output failed its check; the benchmark run is void."""


@dataclass(frozen=True)
class Case:
    """One instance: the algorithm to run and its input."""

    algorithm: str
    graph: ColoredGraph
    inst: LdcInstance
    path: Optional[str] = None  # instance JSON read by the CLI

    def to_bytes(self) -> bytes:
        return self.algorithm.encode() + b"\n" + graphs.instance_to_json(self.graph, self.inst).encode()


def validate(case: Case, out: ColoringOutput, inst: Optional[LdcInstance] = None) -> None:
    report = graphs.validate_ldc(case.graph, inst or case.inst, out)
    if not report.valid:
        raise InvalidOutput(
            f"{case.algorithm}: invalid coloring at nodes {report.violating_nodes()[:10]}"
        )


def coloring_record(out: ColoringOutput, trace) -> bytes:
    doc = {
        "colors": list(out.colors),
        "orientation": [list(e) for e in out.orientation_out] if out.orientation_out else None,
        "trace": trace.to_json(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def failfast_record(exc: FailFast) -> bytes:
    return b"failfast:" + type(exc).__name__.encode()


def random_dag(rng: random.Random, n: int, max_out: int, p: float) -> ColoredGraph:
    """Random DAG oriented low-to-high with outdegree capped at max_out."""
    edges = []
    outdeg = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if outdeg[u] < max_out and rng.random() < p:
                edges.append((u, v))
                outdeg[u] += 1
    return graphs.ColoredGraph.build(n, edges, orientation=edges)


class Workload:
    """Interface of a workload; see the module docstring."""

    name = ""
    min_passes = 1

    def passes(self, seed: int) -> list[list[Case]]:
        raise NotImplementedError

    def prepare(self, passes: list[list[Case]], work_dir: str) -> list[list[Case]]:
        """Write whatever the calls read from disk; returns the cases to run."""
        return passes

    def execute(self, case: Case, out_dir: str) -> Any:
        """The timed call; a FailFast is returned, anything else raises."""
        raise NotImplementedError

    def check(self, case: Case, result: Any, out_dir: str) -> bytes:
        """Validate one result and return its digest record."""
        raise NotImplementedError


# -- oldc-scaled ----------------------------------------------------------------


class OldcScaled(Workload):
    """Scaled OLDC runs drawn like acceptance criterion 06.

    A pass is a full grid: single-defect runs over every |C| x list size
    x defect x outdegree cell, plus multi-defect and main-OLDC runs.  The
    criterion draws these shapes at random; a fixed grid keeps the share
    of CapExceeded runs, which carry most of the time, alike across seeds.
    Type tables are never cached: no cache_dir is passed and the runner
    removes LISTDEFECT_CACHE from the environment.
    """

    name = "oldc-scaled"
    stored_passes = 6  # distinct passes made at set-up; the loop cycles them
    # one pass varies by about 20 % in cost, depending on which draws run
    # into the candidate cap; a run averages at least five passes
    min_passes = 5

    def passes(self, seed: int) -> list[list[Case]]:
        return [self._pass(random.Random(f"{self.name}/{seed}/{k}")) for k in range(self.stored_passes)]

    def _pass(self, rng: random.Random) -> list[Case]:
        # n walks 8..32 over the cells; every pass has the same shapes
        sizes = iter([8 + 7 * i % 25 for i in range(90)])
        single, multi, main = [], [], []
        for space_size in (48, 64):
            space = list(range(space_size))
            for size in (8, 10, 12):
                for defect in (1, 2, 3):
                    for max_out in (2, 3, 4):
                        g = random_dag(rng, next(sizes), max_out, 0.2)
                        lists = [sorted(rng.sample(space, size)) for _ in range(g.n)]
                        inst = graphs.LdcInstance.build(
                            space, lists, [{x: defect for x in l} for l in lists], flavor="oriented"
                        )
                        single.append(Case("single_defect_oldc", g, inst))
                    g = random_dag(rng, next(sizes), rng.choice([2, 3, 4]), 0.2)
                    lists = [sorted(rng.sample(space, size)) for _ in range(g.n)]
                    inst = graphs.LdcInstance.build(
                        space, lists,
                        [{x: rng.choice([defect, defect + 1]) for x in l} for l in lists],
                        flavor="oriented",
                    )
                    multi.append(Case("multi_defect_oldc", g, inst))
        space = list(range(64))
        for size in (8, 12, 16):
            for max_out in (2, 3, 4):
                for _ in range(2):
                    g = random_dag(rng, next(sizes), max_out, 0.2)
                    lists = [sorted(rng.sample(space, size)) for _ in range(g.n)]
                    inst = graphs.LdcInstance.build(
                        space, lists, [{x: rng.choice([0, 1, 2, 3]) for x in l} for l in lists],
                        flavor="oriented",
                    )
                    main.append(Case("main_oldc", g, inst))
        order = []
        for i in range(len(main)):
            order += [main[i], multi[i]] + single[3 * i: 3 * i + 3]
        return order

    def execute(self, case: Case, out_dir: str) -> Any:
        basic = oldc_basic.OldcConfig(alpha=1.0, scale_override=(2, 2))
        try:
            if case.algorithm == "single_defect_oldc":
                defects = [next(iter(dv.values())) for dv in case.inst.defects]
                return oldc_basic.single_defect_oldc(
                    case.graph, case.inst.color_space, case.inst.lists, defects, 0, basic
                )
            if case.algorithm == "multi_defect_oldc":
                return oldc_basic.multi_defect_oldc(case.graph, case.inst, config=basic)
            cfg = oldc_main.MainConfig(
                alpha=1, tau_override=1, taubar_override=1,
                stage1_scale=(2, 2), stage2_scale=(2, 2),
            )
            return oldc_main.main_oldc(case.graph, case.inst, cfg)
        except FailFast as exc:
            return exc

    def check(self, case: Case, result: Any, out_dir: str) -> bytes:
        if isinstance(result, FailFast):
            return failfast_record(result)
        out, trace = result
        # single-defect output is checked against uniform defects d_v
        validate(case, out)
        return coloring_record(out, trace)


# -- pipeline -------------------------------------------------------------------


class Pipeline(Workload):
    """Degree+1 arbdefective instances through ``congest_pipeline``, drawn
    like acceptance criterion 08 (max degree <= 16, |C| = min(64, (D+1)^2))
    but with n up to 2000."""

    name = "pipeline"
    # (family, n, degree target); draws with max degree outside 1..16 are
    # redrawn.  Six shapes cost less than a ring of 200 and six more, so the
    # median instance is always one of the five rings of 200, whose cost
    # hardly depends on the draw.
    grid = (
        ("ring", 24, 2), ("random-gnp", 48, 4), ("random-gnp", 24, 8),
        ("random-gnp", 24, 12), ("power-law", 24, 4), ("power-law", 48, 4),
    ) + (("ring", 200, 2),) * 5 + (
        ("power-law", 96, 2), ("random-gnp", 96, 8), ("random-gnp", 500, 4),
        ("ring", 1000, 2), ("ring", 2000, 2), ("random-gnp", 1500, 4),
    )
    max_draws = 200

    def passes(self, seed: int) -> list[list[Case]]:
        cases = []
        for slot, (family, n, degree) in enumerate(self.grid):
            for draw in range(self.max_draws):
                sub_seed = int.from_bytes(
                    hashlib.sha256(f"{self.name}/{seed}/{slot}/{draw}".encode()).digest()[:4], "big"
                )
                g = generate.make_graph(family, n, degree, seed=sub_seed, oriented=False)
                if 1 <= g.max_degree() <= 16:
                    break
            else:
                raise RuntimeError(f"no {family} n={n} draw with max degree <= 16")
            inst = generate.make_instance(
                g, "degree-plus-one", seed=sub_seed,
                space_size=min(64, (g.max_degree() + 1) ** 2), flavor="arbdefective",
            )
            cases.append(Case("congest_pipeline", g, inst))
        return [cases]

    def execute(self, case: Case, out_dir: str) -> Any:
        try:
            return reductions.congest_pipeline(case.graph, case.inst)
        except FailFast as exc:
            return exc

    def check(self, case: Case, result: Any, out_dir: str) -> bytes:
        if isinstance(result, FailFast):
            return failfast_record(result)
        out, trace, _ = result
        validate(case, out)
        return coloring_record(out, trace)


# -- large-graph ----------------------------------------------------------------


class LargeGraph(Workload):
    """One ``listdefect run`` CLI call per instance on graphs of n in the
    thousands, reading an instance file written at set-up.

    Graphs keep identity initial colors (the ColoredGraph.build default)
    so that ``linial`` runs real reduction rounds on the engine.
    """

    name = "large-graph"
    grid = (("ring", 2), ("random-gnp", 8), ("power-law", 4))
    sizes = (2000, 3000)
    algorithms = ("seq", "seq-arb", "linial")
    flavor_of = {"seq": "defective", "seq-arb": "arbdefective", "linial": "defective"}

    def passes(self, seed: int) -> list[list[Case]]:
        cases = []
        for n in self.sizes:
            for family, degree in self.grid:
                made = generate.make_graph(family, n, degree, seed=seed, oriented=False)
                g = graphs.ColoredGraph.build(made.n, made.edges())
                space = max(64, g.max_degree() + 1)
                insts = {
                    flavor: generate.make_instance(
                        g, "degree-plus-one", seed=seed, space_size=space, flavor=flavor
                    )
                    for flavor in ("defective", "arbdefective")
                }
                for alg in self.algorithms:
                    cases.append(Case(alg, g, insts[self.flavor_of[alg]],
                                      path=f"{family}-{n}-{self.flavor_of[alg]}.json"))
        # linial ignores the lists and a ring has no random structure, so
        # linial on a ring costs the same at every seed.  Repeated such calls
        # pin the quantiles: six on the 3000-ring hold the median instance,
        # four on a 16000-ring, costlier than any grid call, the 90th
        # percentile.
        ring = next(c for c in cases if c.algorithm == "linial" and c.path.startswith("ring-3000"))
        made = generate.make_graph("ring", 16000, 2, seed=seed, oriented=False)
        g = graphs.ColoredGraph.build(made.n, made.edges())
        inst = generate.make_instance(g, "degree-plus-one", seed=seed, space_size=64)
        big = Case("linial", g, inst, path="ring-16000-defective.json")
        return [cases + [ring] * 5 + [big] * 4]

    def prepare(self, passes: list[list[Case]], work_dir: str) -> list[list[Case]]:
        """Write each instance file once and point the cases at it."""
        placed = []
        for cases in passes:
            row = []
            for case in cases:
                path = os.path.join(work_dir, case.path)
                if not os.path.exists(path):
                    with open(path, "w") as fh:
                        fh.write(graphs.instance_to_json(case.graph, case.inst))
                row.append(Case(case.algorithm, case.graph, case.inst, path))
            placed.append(row)
        return placed

    def execute(self, case: Case, out_dir: str) -> Any:
        return cli.main(["run", "--algorithm", case.algorithm, "--instance", case.path,
                         "--out-dir", out_dir])

    def check(self, case: Case, result: Any, out_dir: str) -> bytes:
        if result == 2:
            with open(os.path.join(out_dir, "report.json")) as fh:
                return b"failfast:" + json.load(fh)["error"].encode()
        if result != 0:
            raise InvalidOutput(f"{case.algorithm} on {case.path}: CLI exit code {result}")
        with open(os.path.join(out_dir, "coloring.json"), "rb") as fh:
            coloring_bytes = fh.read()
        with open(os.path.join(out_dir, "trace.csv"), "rb") as fh:
            trace_bytes = fh.read()
        doc = json.loads(coloring_bytes)
        colors = tuple(doc["colors"])
        orientation = tuple(tuple(e) for e in doc["orientation"]) if doc["orientation"] else None
        out = ColoringOutput(colors, orientation)
        if case.algorithm == "linial":
            # a proper coloring inside the declared palette
            palette = linial_palette(case.graph)
            if len(colors) != case.graph.n or any(
                not isinstance(c, int) or not 0 <= c < palette for c in colors
            ):
                raise InvalidOutput(f"linial on {case.path}: colors outside palette {palette}")
            proper = graphs.LdcInstance.build(
                range(palette), [[c] for c in colors], [{c: 0} for c in colors]
            )
            validate(case, out, proper)
        else:
            validate(case, out)
        return coloring_bytes + b"\n" + trace_bytes


WORKLOADS = {w.name: w for w in (OldcScaled(), Pipeline(), LargeGraph())}
