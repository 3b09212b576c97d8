"""Per-layer spans and counts for the traced benchmark run.

The tracer replaces the layer-boundary functions of ``listdefect`` by
wrappers that record one span per call: name, start, end and the index
of the enclosing span.  A function is wrapped at every name its callers
look it up under: module globals (``listdefect.reductions.sequential_ldc``
as well as ``listdefect.oracle.sequential_ldc``), class attributes
(``ColoredGraph.build``) and default argument values (the
``FrameworkConfig.subroutine`` default).  ``uninstall`` puts every
original object back.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple, Optional

# (module, attribute path) of every function that gets a span; an entry
# "Class.method" wraps a method or static method of a class in that module
SPANNED = {
    "generate": ("make_graph", "make_instance"),
    "graphs": (
        "ColoredGraph.build",
        "ColoredGraph.subgraph",
        "LdcInstance.build",
        "validate_ldc",
        "instance_from_json",
        "instance_to_json",
    ),
    "conflict": ("build_or_load_type_table", "build_type_table"),
    "runtime": ("run",),
    "linial": ("linial_coloring", "defective_linial"),
    "oracle": ("sequential_ldc", "sequential_arbdefective", "exhaustive_solve"),
    "oldc_basic": ("single_defect_oldc", "multi_defect_oldc"),
    "oldc_main": ("main_oldc", "two_phase_oldc"),
    "reductions": (
        "congest_pipeline",
        "degree_halving_framework",
        "arbdefective_subroutine",
        "space_reduced_oldc",
        "preset_message",
        "OracleInner.solve",
    ),
    "cli": ("main",),
}
# functions that are only counted: they run once per message, too often
# for a span each
COUNTED = {"runtime": ("message_bits",)}
# spans whose return values the metrics inspect
KEPT_RESULTS = {"conflict.build_type_table", "runtime.run", "reductions.congest_pipeline"}

PACKAGE = "listdefect"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    error: Optional[str]  # class name of the exception that ended the call


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its child spans."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _package_modules() -> list[Any]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _package_classes(modules) -> list[type]:
    seen: dict[int, type] = {}
    for mod in modules:
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                seen[id(value)] = value
    return list(seen.values())


def _functions_with_defaults(modules, classes) -> list[Callable]:
    found: dict[int, Callable] = {}
    holders = [vars(m) for m in modules] + [vars(c) for c in classes]
    for ns in holders:
        for value in ns.values():
            fn = getattr(value, "__func__", value)
            if callable(fn) and getattr(fn, "__defaults__", None):
                found[id(fn)] = fn
    return list(found.values())


def bindings_snapshot() -> dict[tuple, int]:
    """Identity of every module attribute, class attribute and default
    value of the package, for checking that tracing leaves nothing behind."""
    modules = _package_modules()
    classes = _package_classes(modules)
    snap: dict[tuple, int] = {}
    for mod in modules:
        for key, value in vars(mod).items():
            snap[("module", mod.__name__, key)] = id(value)
    for cls in classes:
        for key, value in vars(cls).items():
            snap[("class", cls.__module__, cls.__qualname__, key)] = id(value)
    for fn in _functions_with_defaults(modules, classes):
        snap[("defaults", fn.__module__, fn.__qualname__)] = id(fn.__defaults__)
    return snap


class Tracer:
    """Records spans and counts while installed and ``active``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.results: dict[str, list[Any]] = defaultdict(list)
        self.active = True
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, orig: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = self.results[name].append if name in KEPT_RESULTS else None

        def traced(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, error)
            if keep is not None:
                keep(result)
            return result

        traced.__wrapped__ = orig
        return traced

    def _count_wrapper(self, name: str, orig: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return orig(*args, **kwargs)

        counted.__wrapped__ = orig
        return counted

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Wrap every function of SPANNED and COUNTED at all its bindings."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for short in sorted(set(SPANNED) | set(COUNTED)):
            importlib.import_module(f"{PACKAGE}.{short}")
        modules = _package_modules()
        classes = _package_classes(modules)
        defaulted = _functions_with_defaults(modules, classes)
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for short, attrs in table.items():
                mod = sys.modules[f"{PACKAGE}.{short}"]
                for attr in attrs:
                    owner_name, _, fname = attr.rpartition(".")
                    owner = getattr(mod, owner_name) if owner_name else mod
                    raw = vars(owner)[fname]
                    orig = getattr(raw, "__func__", raw)
                    wrapper = make(f"{short}.{attr}", orig)
                    if owner_name:
                        replacement = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
                        self._rebind(owner, fname, replacement)
                        continue
                    for holder in modules + classes:
                        for key, value in list(vars(holder).items()):
                            if value is orig:
                                self._rebind(holder, key, wrapper)
                    for fn in defaulted:
                        if any(d is orig for d in fn.__defaults__):
                            self._redefault(fn, orig, wrapper)

    def _rebind(self, holder: Any, key: str, value: Any) -> None:
        old = vars(holder)[key]
        setattr(holder, key, value)
        self._undo.append(lambda: setattr(holder, key, old))

    def _redefault(self, fn: Callable, orig: Callable, wrapper: Callable) -> None:
        old = fn.__defaults__
        fn.__defaults__ = tuple(wrapper if d is orig else d for d in old)
        self._undo.append(lambda: setattr(fn, "__defaults__", old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def take(self) -> tuple[list[Span], dict[str, int], dict[str, list[Any]]]:
        """Hand over everything recorded so far and start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        results = {name: list(kept) for name, kept in self.results.items()}
        self.spans.clear()
        self.counts.clear()
        for kept in self.results.values():
            kept.clear()
        return spans, counts, results


def layer_metrics(
    spans: list[Span],
    counts: dict[str, int],
    results: dict[str, list[Any]],
    setup_spans: list[Span],
    traced_s: float,
    overhead_frac: float,
    failfast_frac: float,
) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced run.

    ``spans``/``counts``/``results`` cover the traced passes; generation
    happens during set-up, so the ``generate`` metrics read ``setup_spans``.
    Span times are unscaled wall times, as is ``traced_s``, the summed
    instance time of the traced passes.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    errors: dict[tuple[str, Optional[str]], int] = defaultdict(int)
    for span, s in zip(spans, own):
        calls[span.name] += 1
        self_s[span.name] += s
        total_s[span.name] += span.end - span.start
        errors[span.name, span.error] += 1
    setup_total: dict[str, float] = defaultdict(float)
    for span in setup_spans:
        setup_total[span.name] += span.end - span.start

    builds = ("graphs.ColoredGraph.build", "graphs.LdcInstance.build", "graphs.ColoredGraph.subgraph")
    table = "conflict.build_type_table"
    tables = results.get(table, [])
    runs = results.get("runtime.run", [])
    pipelines = results.get("reductions.congest_pipeline", [])
    messages = counts.get("runtime.message_bits", 0)
    attempts = calls["reductions.preset_message"]
    fallbacks = calls["reductions.OracleInner.solve"]
    return {
        "generate.make_graph.s": setup_total["generate.make_graph"],
        "generate.make_instance.s": setup_total["generate.make_instance"],
        "graphs.build.calls": sum(calls[b] for b in builds),
        "graphs.build.self_s": sum(self_s[b] for b in builds),
        "graphs.validate_ldc.calls": calls["graphs.validate_ldc"],
        "graphs.validate_ldc.self_s": self_s["graphs.validate_ldc"],
        "graphs.instance_from_json.self_s": self_s["graphs.instance_from_json"],
        "conflict.build_type_table.calls": calls[table],
        "conflict.build_type_table.self_s": self_s[table],
        "conflict.build_type_table.ok": errors[table, None],
        "conflict.build_type_table.cap_exceeded": errors[table, "CapExceeded"],
        "conflict.build_type_table.greedy_exhausted": errors[table, "GreedyExhausted"],
        "conflict.build_ok_frac": errors[table, None] / calls[table] if calls[table] else 0.0,
        "conflict.types_built": sum(len(t.types) for t in tables),
        "runtime.run.calls": calls["runtime.run"],
        "runtime.run.self_s": self_s["runtime.run"],
        "runtime.messages": messages,
        "runtime.us_per_message": 1e6 * self_s["runtime.run"] / messages if messages else 0.0,
        "runtime.rounds": sum(t.rounds_elapsed for t in runs),
        "runtime.max_bits": max((t.max_bits() for t in runs), default=0),
        "linial.linial_coloring.calls": calls["linial.linial_coloring"],
        "linial.linial_coloring.s": total_s["linial.linial_coloring"],
        "oracle.sequential_ldc.calls": calls["oracle.sequential_ldc"],
        "oracle.sequential_ldc.self_s": self_s["oracle.sequential_ldc"],
        "oracle.sequential_arbdefective.calls": calls["oracle.sequential_arbdefective"],
        "oracle.sequential_arbdefective.self_s": self_s["oracle.sequential_arbdefective"],
        "oldc_basic.single_defect_oldc.self_s": self_s["oldc_basic.single_defect_oldc"],
        "oldc_basic.multi_defect_oldc.self_s": self_s["oldc_basic.multi_defect_oldc"],
        "oldc_main.main_oldc.calls": calls["oldc_main.main_oldc"],
        "oldc_main.main_oldc.self_s": self_s["oldc_main.main_oldc"],
        "reductions.degree_halving_framework.self_s": self_s["reductions.degree_halving_framework"],
        "reductions.arbdefective_subroutine.s": total_s["reductions.arbdefective_subroutine"],
        "reductions.inner_attempts": attempts,
        "reductions.oracle_fallbacks": fallbacks,
        "reductions.distributed_batch_frac": (attempts - fallbacks) / attempts if attempts else 0.0,
        "reductions.zero_round_frac": (
            sum(1 for _, trace, _ in pipelines if trace.rounds_elapsed == 0) / len(pipelines)
            if pipelines else 0.0
        ),
        "cli.main.self_s": self_s["cli.main"],
        "trace.wall_s": traced_s,
        "trace.overhead_frac": overhead_frac,
        "failfast_frac": failfast_frac,
    }
