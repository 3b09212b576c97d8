"""Batch front-end: generate instances, run algorithms, sweep configs.

Exit codes: 0 = validator-passing output on disk (or a proven UNSAT
verdict from the oracle), 2 = fail-fast abort (scaled parameters could
not support the run; nothing invalid was emitted), 1 = genuine error
(bad schema, I/O, unknown arguments).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
from operator import contains
from typing import Optional

from .errors import FailFast, ListDefectError
from .generate import FAMILIES, LIST_MODELS, TARGETS, make_graph, make_instance
from .graphs import (
    FLAVORS,
    ColoredGraph,
    ColoringOutput,
    LdcInstance,
    check_existence_condition,
    instance_from_json,
    instance_to_json,
    validate_ldc,
)
from .linial import linial_coloring, linial_palette
from .oldc_basic import OldcConfig, multi_defect_oldc
from .oldc_main import MainConfig, main_oldc
from .oracle import exhaustive_solve, sequential_arbdefective, sequential_ldc
from .reductions import (
    InnerSolver,
    OldcInner,
    OracleInner,
    StageRow,
    congest_pipeline,
    degree_halving_framework,
    message_preset_p,
    space_reduced_oldc,
)
from .runtime import RoundTrace, network

# Flags of `run`, which a sweep matrix takes as keys with the same
# defaults: name -> (type, default, choices).  The overrides are
# 'tau,tau_prime' pairs of the scaled conflict thresholds.
RUN_OPTIONS = {
    "alpha": (float, 1.0, None),
    "tau_override": (str, None, None),
    "taubar_override": (str, None, None),
    "r": (int, None, None),
    "bits_budget": (int, None, None),
    "inner": (str, "oracle", ("oracle", "basic")),
}
# flags of `generate` that a sweep matrix takes as keys, the same way
INSTANCE_OPTIONS = {
    "degree": (int, 4, None),
    "space": (int, 32, None),
    "k": (int, 4, None),
    "flavor": (str, "defective", FLAVORS),
    "g": (int, 0, None),
    "target": (str, "eq1", TARGETS),
}
# list-valued sweep keys, crossed in this order: name -> (item type, default)
SWEEP_AXES = {
    "families": (str, ["ring"]),
    "ns": (int, [8]),
    "list_models": (str, ["degree-plus-one"]),
    "algorithms": (str, ["seq"]),
    "seeds": (int, [0]),
}
SWEEP_HEADER = "family,n,list_model,algorithm,seed,rounds,max_bits,valid,failure"

Result = tuple[Optional[ColoringOutput], RoundTrace, list[StageRow]]


def _parse_pair(text: Optional[str]) -> Optional[tuple[int, int]]:
    if not text:
        return None
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 2:
        raise ValueError("override must be 'tau,tau_prime'")
    return parts[0], parts[1]


def _run_options(values: dict, verbose: bool) -> dict:
    """The run options with the override pairs parsed."""
    opts = {name: values[name] for name in RUN_OPTIONS}
    opts["tau_override"] = _parse_pair(opts["tau_override"])
    opts["taubar_override"] = _parse_pair(opts["taubar_override"])
    opts["verbose"] = verbose
    return opts


# -- the algorithms: each records its extras in `report` ----------------------


def _basic_config(opts: dict) -> OldcConfig:
    return OldcConfig(alpha=opts["alpha"], scale_override=opts["tau_override"])


def _main_config(opts: dict) -> MainConfig:
    """The full algorithm's config, for oldc-main and the pipeline's inner."""
    scale = opts["tau_override"]
    scale_bar = opts["taubar_override"] or scale
    return MainConfig(
        alpha=opts["alpha"],
        tau_override=scale[0] if scale else None,
        taubar_override=scale_bar[0] if scale_bar else None,
        stage1_scale=scale_bar,
        stage2_scale=scale,
    )


def _inner(opts: dict) -> InnerSolver:
    return OldcInner(_basic_config(opts)) if opts["inner"] == "basic" else OracleInner()


def _seq(graph, inst, opts, report) -> Result:
    out, stats = sequential_ldc(graph, inst)
    report["recolorings"] = stats.recolorings
    report["phi_initial"] = stats.phi_initial
    return out, RoundTrace(), []


def _seq_arb(graph, inst, opts, report) -> Result:
    out, stats = sequential_arbdefective(graph, inst)
    report["recolorings"] = stats.recolorings
    return out, RoundTrace(), []


def _oracle(graph, inst, opts, report) -> Result:
    report["existence_condition"] = check_existence_condition(graph, inst) \
        if inst.flavor in ("defective", "arbdefective") else None
    out = exhaustive_solve(graph, inst)
    report["verdict"] = "SAT" if out is not None else "UNSAT"
    return out, RoundTrace(), []


def _linial(graph, inst, opts, report) -> Result:
    out, trace = linial_coloring(graph)
    report["palette"] = linial_palette(graph)
    return out, trace, []


def _oldc_basic(graph, inst, opts, report) -> Result:
    return *multi_defect_oldc(graph, inst, config=_basic_config(opts)), []


def _oldc_main(graph, inst, opts, report) -> Result:
    return *main_oldc(graph, inst, _main_config(opts)), []


def _space_reduced(graph, inst, opts, report) -> Result:
    p = message_preset_p(len(inst.color_space), 1 if opts["r"] is None else opts["r"])
    report["p"] = p
    return *space_reduced_oldc(graph, inst, p, _inner(opts)), []


def _framework(graph, inst, opts, report) -> Result:
    return degree_halving_framework(graph, inst, _inner(opts))


def _congest_pipeline(graph, inst, opts, report) -> Result:
    return congest_pipeline(graph, inst, _main_config(opts), r=opts["r"])


ALGORITHM_TABLE = {
    "seq": _seq,
    "seq-arb": _seq_arb,
    "oracle": _oracle,
    "linial": _linial,
    "oldc-basic": _oldc_basic,
    "oldc-main": _oldc_main,
    "space-reduced": _space_reduced,
    "framework": _framework,
    "congest-pipeline": _congest_pipeline,
}
ALGORITHMS = tuple(ALGORITHM_TABLE)


def run_algorithm(
    graph: ColoredGraph, inst: LdcInstance, algorithm: str, opts: dict
) -> tuple[ColoringOutput | None, RoundTrace, dict, list[StageRow]]:
    """Run one algorithm and check its output.

    Its engine runs take ``bits_budget`` and ``verbose`` as the network
    setting.  Returns (output or None, trace, report, stage rows).  Unless
    the output is None (an UNSAT verdict), ``report["valid"]`` says
    whether it passed the validator, or for linial whether it is proper.
    A fail-fast abort is returned, not raised: (None, an empty trace, the
    report with ``outcome`` "fail-fast", ``error`` and ``detail``, []).
    """
    report: dict = {"algorithm": algorithm}
    try:
        with network(bits_per_message=opts["bits_budget"], record_messages=opts["verbose"]):
            out, trace, rows = ALGORITHM_TABLE[algorithm](graph, inst, opts, report)
    except FailFast as exc:
        report = {"algorithm": algorithm, "outcome": "fail-fast", "error": type(exc).__name__,
                  "detail": str(exc)}
        return None, RoundTrace(), report, []
    if out is not None and algorithm == "linial":
        near = map(map, itertools.repeat(out.colors.__getitem__), graph.adjacency)
        report["valid"] = not any(map(contains, near, out.colors))  # no edge is monochromatic
    elif out is not None:
        validity = validate_ldc(graph, inst, out)
        report["valid"] = validity.valid
        report["conflicts"] = list(validity.conflicts)
    return out, trace, report, rows


def _write(text: str, *path: str) -> None:
    with open(os.path.join(*path), "w") as fh:
        fh.write(text)


def cmd_run(args: argparse.Namespace) -> int:
    with open(args.instance) as fh:
        graph, inst = instance_from_json(fh.read())
    opts = _run_options(vars(args), args.verbose)
    os.makedirs(args.out_dir, exist_ok=True)
    out, trace, report, rows = run_algorithm(graph, inst, args.algorithm, opts)
    if "error" in report:  # a fail-fast: only its report is written
        _write(json.dumps(report, sort_keys=True, indent=1), args.out_dir, "report.json")
        print(f"fail-fast: {report['error']}: {report['detail']}", file=sys.stderr)
        return 2
    if out is not None and not report["valid"]:
        # an invalid coloring is never written
        print("invalid output produced", file=sys.stderr)
        return 1

    _write(
        json.dumps(
            {
                "colors": list(out.colors) if out is not None else None,
                "orientation": [list(e) for e in out.orientation_out]
                if out is not None and out.orientation_out
                else None,
            },
            sort_keys=True,
        ),
        args.out_dir,
        "coloring.json",
    )
    _write(json.dumps(report, sort_keys=True, indent=1), args.out_dir, "report.json")
    _write(trace.to_csv(), args.out_dir, "trace.csv")
    if args.verbose:
        _write(trace.to_json(verbose=True), args.out_dir, "trace.json")
    if rows:
        lines = [StageRow.header(), *(row.csv() for row in rows)]
        _write("".join(f"{line}\n" for line in lines), args.out_dir, "stages.csv")
    verdict = report.get("verdict")
    print(f"ok: {args.algorithm} " + (f"verdict={verdict}" if verdict else "valid"))
    return 0


def _make_instance(graph, list_model: str, seed: int, values: dict, **extra) -> LdcInstance:
    """``make_instance`` on the INSTANCE_OPTIONS values of a command line or a sweep matrix."""
    return make_instance(graph, list_model, seed, space_size=values["space"], k=values["k"],
                         flavor=values["flavor"], g=values["g"], target=values["target"], **extra)


def cmd_generate(args: argparse.Namespace) -> int:
    graph = make_graph(
        args.family, args.n, args.degree, args.seed, oriented=not args.undirected
    )
    inst = _make_instance(graph, args.list_model, args.seed, vars(args), alpha=args.alpha)
    text = instance_to_json(graph, inst)
    if args.out:
        _write(text, args.out)
    else:
        sys.stdout.write(text)
    return 0


def _checked(key: str, value, kind: type, choices, nullable: bool):
    """A sweep value of the JSON type (an int may stand for a float, a bool
    never for a number) and among the choices, if there are any."""
    if value is None and nullable:
        return value
    ok = isinstance(value, kind) and not isinstance(value, bool)
    ok = ok or (kind is float and type(value) is int)
    if not ok or (choices is not None and value not in choices):
        want = f"one of {', '.join(choices)}" if choices else f"a JSON {kind.__name__}"
        raise ValueError(f"sweep key {key!r}: {value!r} is not {want}")
    return value


def _read_matrix(matrix) -> tuple[list[list], dict]:
    """The sweep axes and options of a matrix, defaults filled in."""
    if not isinstance(matrix, dict):
        raise ValueError("a sweep matrix is a JSON object")
    options = {**INSTANCE_OPTIONS, **RUN_OPTIONS}
    unknown = sorted(set(matrix) - set(options) - set(SWEEP_AXES))
    if unknown:
        raise ValueError(f"unknown sweep keys: {', '.join(unknown)}")
    axes = []
    for key, (kind, default) in SWEEP_AXES.items():
        values = matrix.get(key, default)
        if not isinstance(values, list):
            raise ValueError(f"sweep key {key!r} takes a list, not {values!r}")
        choices = ALGORITHMS if key == "algorithms" else None
        axes.append([_checked(key, v, kind, choices, False) for v in values])
    values = {
        key: _checked(key, matrix.get(key, default), kind, choices, default is None)
        for key, (kind, default, choices) in options.items()
    }
    return axes, values


def cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.config) as fh:
        try:
            matrix = json.load(fh)
        except RecursionError:
            raise ValueError("sweep config JSON nests too deeply") from None
    axes, values = _read_matrix(matrix)
    opts = _run_options(values, verbose=False)
    rows = [SWEEP_HEADER]
    for family, n, list_model, algorithm, seed in itertools.product(*axes):
        cell = f"{family},{n},{list_model},{algorithm},{seed}"
        try:
            graph = make_graph(family, n, values["degree"], seed)
            inst = _make_instance(graph, list_model, seed, values)
            out, trace, report, _ = run_algorithm(graph, inst, algorithm, opts)
            failure = report.get("error")  # set on a fail-fast only
        except ListDefectError as exc:
            failure = f"error:{type(exc).__name__}"
        if failure:
            rows.append(f"{cell},,,False,{failure}")
        else:
            valid = out is None or report["valid"]
            rows.append(f"{cell},{trace.rounds_elapsed},{trace.max_bits()},{valid},")
    text = "\n".join(rows) + "\n"
    if args.out:
        _write(text, args.out)
    else:
        sys.stdout.write(text)
    return 0


def _add_options(sp: argparse.ArgumentParser, options: dict) -> None:
    for name, (kind, default, choices) in options.items():
        sp.add_argument(
            "--" + name.replace("_", "-"), dest=name, type=kind, default=default, choices=choices
        )


def _add_run_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--instance", required=True)
    _add_options(sp, RUN_OPTIONS)
    sp.add_argument("--out-dir", dest="out_dir", default="out")
    sp.add_argument("--verbose", action="store_true")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="listdefect",
        description="list defective coloring simulator and algorithm library",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate", help="emit a JSON instance")
    sp.add_argument("--family", choices=FAMILIES, default="random-gnp")
    sp.add_argument("--n", type=int, default=16)
    sp.add_argument("--list-model", dest="list_model", choices=LIST_MODELS,
                    default="degree-plus-one")
    _add_options(sp, INSTANCE_OPTIONS)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--undirected", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("run", help="run one algorithm on an instance")
    sp.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    _add_run_flags(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("oracle", help="exhaustive solve (shorthand)")
    _add_run_flags(sp)
    sp.set_defaults(func=cmd_run, algorithm="oracle")

    sp = sub.add_parser("sweep", help="run a config matrix, one CSV row per cell")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    # a command builds acyclic data, which reference counting frees
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ListDefectError, OSError, ValueError, KeyError) as exc:  # JSON errors are ValueErrors
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
