"""Benchmark runner for listdefect.

    python3 bench/run.py --workload oldc-scaled --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One caller in one process runs whole
passes over the workload's instances back to back (a closed loop) until
``--seconds`` have passed, at least 100 instances are done and the
workload's minimum number of passes has run; every
instance is timed on its own with ``time.perf_counter``, and each pass's
times are scaled by the host speed that a fixed reference loop, timed
before every instance, shows during that pass.  Outputs are checked
between calls, outside the timed calls.  The last line of
standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics from
a traced run.  ``--profile N`` also writes the cProfile top N of one
extra pass.  ``--workload all`` runs every workload, each in its own
process.  Result files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import io
import json
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_INSTANCES = 100
SETUP_REPEATS = 3
# Reported times are wall times scaled to a host on which reference_loop()
# takes REFERENCE_S.  A shared host's speed drifts by tens of percent over
# minutes; the reference loop uses no listdefect code, runs before every
# instance and follows that drift, so the scaled times follow the program.
REFERENCE_S = 0.002
WORKLOAD_NAMES = ("oldc-scaled", "pipeline", "large-graph")


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def reference_loop() -> float:
    """Time a fixed piece of pure-Python work that uses no listdefect code."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(3000):
        key = (i, i * 7 % 13)
        table[key] = i
        acc += len(table) ^ i
    sorted(table, key=lambda k: (k[1], -k[0]))
    return time.perf_counter() - start


def host_scale(samples: list[float]) -> float:
    """Factor from this host's current speed to the reference host's."""
    return REFERENCE_S / statistics.median(samples)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_library():
    """Import the library from this checkout's src/, never an installed copy."""
    if not (SRC / "listdefect" / "__init__.py").is_file():
        raise BenchError(f"no listdefect sources under {SRC}; run from a full checkout")
    # type tables must be built and timed, never loaded from a cache
    os.environ.pop("LISTDEFECT_CACHE", None)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - start
    import listdefect

    if Path(listdefect.__file__).resolve().parent != SRC / "listdefect":
        raise BenchError(f"imported listdefect from {listdefect.__file__}, not {SRC}")
    return workloads, import_s


@dataclass
class Measured:
    raw: list[float]  # instance wall times, s
    scaled: list[float]  # the same, scaled to the reference host
    passes: int


class Session:
    """One workload at one seed: set-up, measured passes, checks, digest."""

    def __init__(self, workload, seed: int, work_dir: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.passes = []
        self.records: dict[tuple[int, int], str] = {}  # (pass, case) -> sha256
        self.digest_parts: list[bytes] = []
        self.failfast: dict[str, int] = {}
        self.calls = 0

    def setup(self) -> float:
        """Generate inputs, write files and run one warm-up instance;
        returns the scaled set-up time."""
        scale = host_scale([reference_loop() for _ in range(9)])
        start = time.perf_counter()
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        self.passes = self.workload.prepare(self.workload.passes(self.seed), str(self.work_dir))
        self.run_case(0, 0)
        elapsed = time.perf_counter() - start
        self.records.clear()
        self.digest_parts.clear()
        self.failfast.clear()
        return elapsed * scale

    def run_case(self, pass_no: int, index: int) -> float:
        stored = pass_no % len(self.passes)
        case = self.passes[stored][index]
        out_dir = str(self.work_dir / f"out{self.calls}")
        self.calls += 1
        start = time.perf_counter()
        result = self.workload.execute(case, out_dir)
        elapsed = time.perf_counter() - start
        with self.paused():
            self.check(stored, index, case, result, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return elapsed

    @contextlib.contextmanager
    def paused(self):
        if self.tracer is None:
            yield
            return
        active, self.tracer.active = self.tracer.active, False
        try:
            yield
        finally:
            self.tracer.active = active

    def check(self, stored: int, index: int, case, result, out_dir: str) -> None:
        record = self.workload.check(case, result, out_dir)
        if record.startswith(b"failfast:"):
            name = record.split(b":", 1)[1].decode()
            self.failfast[name] = self.failfast.get(name, 0) + 1
        key = hashlib.sha256(record).hexdigest()
        first = self.records.setdefault((stored, index), key)
        if first != key:
            raise BenchError(f"pass {stored} case {index} ({case.algorithm}) gave a different output on a repeat")
        if stored == 0 and len(self.digest_parts) < len(self.passes[0]):
            self.digest_parts.append(f"{index}:{case.algorithm}:{key}\n".encode())

    def run_passes(self, seconds: float, min_instances: int, min_passes: int = 1,
                   max_passes: int | None = None) -> Measured:
        """Whole passes until all three minimums are met, or exactly max_passes.

        Each pass scales its instance times by the median of the reference
        loops timed before its instances."""
        got = Measured([], [], 0)
        start = time.perf_counter()
        while True:
            cases = self.passes[got.passes % len(self.passes)]
            raw, refs = [], []
            for index in range(len(cases)):
                refs.append(reference_loop())
                raw.append(self.run_case(got.passes, index))
            scale = host_scale(refs)
            got.raw += raw
            got.scaled += [t * scale for t in raw]
            got.passes += 1
            if max_passes is not None:
                if got.passes >= max_passes:
                    break
            elif (time.perf_counter() - start >= seconds and len(got.raw) >= min_instances
                  and got.passes >= min_passes):
                break
        return got

    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.digest_parts)).hexdigest()

    def profile(self, top: int) -> Path:
        profiler = cProfile.Profile()
        profiler.enable()
        self.run_passes(0, 0, max_passes=1)
        profiler.disable()
        text = io.StringIO()
        stats = pstats.Stats(profiler, stream=text)
        for order in ("cumulative", "tottime"):
            text.write(f"== top {top} by {order} ==\n")
            stats.sort_stats(order).print_stats(top)
        path = OUT / f"profile-{self.workload.name}-seed{self.seed}.txt"
        path.write_text(text.getvalue())
        return path


def timing(times: list[float]) -> dict[str, float]:
    return {
        "instances_per_s": len(times) / sum(times),
        "instance_ms_p50": 1000 * statistics.median(times),
        "instance_ms_p90": 1000 * statistics.quantiles(times, n=10, method="inclusive")[8],
    }


def baseline_digest(workload: str, seed: int) -> str | None:
    path = Path(__file__).resolve().parent / "baseline.json"
    with open(path) as fh:
        return json.load(fh)["digests"].get(workload, {}).get(str(seed))


def with_units(spec_metrics: list[dict], values: dict[str, float]) -> dict:
    names = [m["name"] for m in spec_metrics]
    if sorted(names) != sorted(values):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def run_one(args) -> int:
    spec = load_spec()
    workloads, import_s = import_library()
    import tracer as tracing

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    session = Session(workload, args.seed, work_dir, tracer)
    result_doc: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if not args.trace:
                import_s *= host_scale([reference_loop() for _ in range(9)])
                setups = [session.setup() for _ in range(SETUP_REPEATS)]
                run = session.run_passes(args.seconds, MIN_INSTANCES, workload.min_passes)
                values = timing(run.scaled)
                values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                values["setup_s"] = import_s + statistics.median(setups)
                metrics = with_units(spec["end_to_end"], values)
            else:
                with tracer:
                    session.setup()
                setup_spans, _, _ = tracer.take()
                plain = session.run_passes(args.seconds / 2, 1)
                with tracer:
                    traced = session.run_passes(0, 0, max_passes=plain.passes)
                spans, counts, results = tracer.take()
                run = Measured(plain.raw + traced.raw, plain.scaled + traced.scaled,
                               plain.passes + traced.passes)
                values = tracing.layer_metrics(
                    spans, counts, results, setup_spans, sum(traced.raw),
                    sum(traced.scaled) / sum(plain.scaled) - 1,
                    sum(session.failfast.values()) / len(run.raw),
                )
                metrics = with_units(spec["per_layer"], values)
                result_doc["spans"] = [list(s) for s in spans]
            failfast = dict(session.failfast)
            profile_path = session.profile(args.profile) if args.profile else None
    except workloads.InvalidOutput as exc:
        raise BenchError(f"invalid output: {exc}") from exc
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(run.raw)
    digest = session.digest()
    expected = baseline_digest(args.workload, args.seed)
    match = "no baseline digest for this seed" if expected is None else (
        "matches the baseline" if expected == digest else "DIFFERS from the baseline")
    per_pass = len(session.passes[0])
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} instances "
          f"in {run.passes} passes of {per_pass}, closed loop, 1 caller")
    for name, m in metrics.items():
        note = ""
        if name == "instance_ms_p90":
            note = f", {sum(1 for t in run.scaled if 1000 * t > m['value'])} beyond"
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} n={attempted}{note}")
    raw = ", ".join(f"{k} {v:.6g}" for k, v in timing(run.raw).items())
    print(f"  unscaled wall time: {raw}; host speed factor "
          f"{sum(run.scaled) / sum(run.raw):.4f} (reference loop {REFERENCE_S * 1000:g} ms)")
    if not args.trace:
        kinds = ", ".join(f"{k} {v}" for k, v in sorted(failfast.items())) or "none"
        print(f"  {'failfast_frac':<44} {sum(failfast.values()) / attempted:>14.6g} {'frac':<6} "
              f"n={attempted} ({kinds})")
    print(f"  output digest {digest} over pass 0 ({per_pass} instances): {match}")
    if profile_path:
        print(f"  profile top {args.profile}: {profile_path.relative_to(ROOT)}")

    result = {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}
    result_doc.update(result, digest=digest, failfast=failfast, passes=run.passes,
                      instance_s=run.raw, scaled_instance_s=run.scaled)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result_doc))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--profile", str(args.profile)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="write the cProfile top N of one extra pass")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
