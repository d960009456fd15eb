"""The benchmark's child processes: ``build`` and ``measure``.

``run.py`` starts these with the program's ``src`` directory on
``PYTHONPATH``, so that the process which generates a trace is never the
one whose time and memory are measured::

    python3 perfbench/child.py build WORKLOAD SEED DIR OUT.json [--reference]
    python3 perfbench/child.py measure WORKLOAD SEED DIR SECONDS TRACE OUT.json

``build`` times the program's set-up (imports, then writing the generated
trace into a store and opening it, or building the ingest programs) between
two host-speed probes and, with ``--reference``, computes the expected
findings outside that region.
``measure`` repeats the workload's timed region for SECONDS, checks every
repetition against the reference, and with TRACE=1 alternates untraced and
traced repetitions to give the per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from workloads import INGEST_LEGS, INGEST_SHARD_EVENTS, INGEST_SIZE, WORKLOADS

#: Timed repetitions a run makes even when they outlast SECONDS.
MIN_REPS = 3
#: Traced repetitions a traced run makes at least.
MIN_TRACED_REPS = 2
#: Iterations of the host-speed probe, a fixed pure-Python loop timed
#: between repetitions.  On a shared host the same code runs up to ~40%
#: slower for tens of seconds at a time (CPU time grows with wall time, so
#: it is not steal); the probe slows down with it.
PROBE_ITERATIONS = 300_000
#: The probe's time on the reference host (a 2-vCPU Xeon VM whose
#: neighbours are quiet), ms.  ``scaled_ms`` is a repetition's wall time
#: times ``PROBE_REF_MS`` over the mean of the probes just before and after
#: it: the wall time the repetition would take on the reference host.
PROBE_REF_MS = 40.0


def probe_ms() -> float:
    """Time the host-speed probe once, in ms."""
    t0 = perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return (perf_counter() - t0) * 1000.0


def _expected(report) -> dict:
    """The checked findings, as they read back from JSON (so that a result
    compares exactly with the reference file)."""
    findings = {"counts": report.counts.as_dict(), "potential": report.potential.as_dict()}
    return json.loads(json.dumps(findings))


# --------------------------------------------------------------------- #
# build
# --------------------------------------------------------------------- #
def build(args) -> dict:
    """Time the set-up between two host-speed probes.

    ``setup_s`` is scaled like ``scaled_ms``; ``wall_setup_s`` is the raw
    time.  The reference findings are computed after the second probe.
    """
    before = probe_ms()
    out, reference = _set_up(args)
    after = probe_ms()
    out["wall_setup_s"] = out["setup_s"]
    out["setup_s"] *= PROBE_REF_MS * 2.0 / (before + after)
    out["probe_ms"] = [before, after]
    if args.reference:
        out["reference"] = reference()
    return out


def _set_up(args):
    """The program's set-up; returns its times and a reference function."""
    started = perf_counter()
    import repro  # noqa: F401  (set-up includes importing the program)
    from repro.core.profiler import OMPDataPerf
    from repro.events.store import ShardedTraceStore, shard_trace

    import_s = perf_counter() - started
    spec = WORKLOADS[args.workload]
    if spec["input"] == "ingest":
        return _set_up_ingest(import_s, started)

    import inputs

    if spec["input"] == "dense":
        trace = inputs.make_dense_trace(args.seed)
        shard_events = inputs.DENSE_SHARD_EVENTS
    else:
        trace = inputs.make_sparse_trace(args.seed)
        shard_events = inputs.SPARSE_SHARD_EVENTS
    written = perf_counter()
    shard_trace(trace, args.dir, shard_events=shard_events)
    store = ShardedTraceStore.open(args.dir)
    store_s = perf_counter() - written
    out = {"setup_s": import_s + store_s, "import_s": import_s, "store_s": store_s,
           "shards": store.num_shards, "events": len(trace)}
    return out, lambda: _expected(OMPDataPerf().analyze(trace))


def _ingest_programs():
    from repro.apps.base import AppVariant, ProblemSize
    from repro.apps.registry import get_app

    size = ProblemSize.parse(INGEST_SIZE)
    programs = []
    for name, variant in INGEST_LEGS:
        app = get_app(name)
        variant = AppVariant.parse(variant)
        programs.append(
            (name, app.build_program(size, variant), app.program_name(size, variant))
        )
    return programs


def _set_up_ingest(import_s: float, started: float):
    from repro.apps import registry  # noqa: F401
    from repro.core.collector import TraceCollector  # noqa: F401
    from repro.core.profiler import OMPDataPerf
    from repro.omp.runtime import OffloadRuntime  # noqa: F401
    from repro.ompt.interface import OmptInterface  # noqa: F401

    programs = _ingest_programs()
    out = {"setup_s": perf_counter() - started, "import_s": import_s}
    return out, lambda: {
        name: _expected(OMPDataPerf().profile(program, program_name=pname).analysis)
        for name, program, pname in programs
    }


# --------------------------------------------------------------------- #
# measure
# --------------------------------------------------------------------- #
class Repetitions:
    """Times, checks and counts the repetitions of one measuring run."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, body) -> float | None:
        """Run one repetition; return its time in ms, ``None`` if it failed.

        ``body()`` returns ``(seconds, expected-shape results)``; a result
        that differs from the reference, or an exception, is a failure.
        """
        self.attempted += 1
        gc.collect()
        try:
            seconds, results = body()
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return None
        if results != self.reference:
            self.failed += 1
            self.errors.append(f"findings differ from the reference: {results!r}")
            return None
        return seconds * 1000.0


def measure(args) -> dict:
    import layers
    from spans import Tracer

    spec = WORKLOADS[args.workload]
    reference = json.loads(Path(args.dir, "reference.json").read_text())
    reps = Repetitions(reference)
    tracer = Tracer()
    engine_stats: dict = {}

    @contextmanager
    def region(root: str, traced: bool):
        """The timed region, traced under ``root`` when ``traced``."""
        if not traced:
            yield
            return
        tracer.reset()
        layers.install(tracer)
        try:
            with tracer.span(root):
                yield
        finally:
            tracer.uninstall()

    if spec["input"] == "ingest":
        timed, native, root = _ingest_body(args, region)
    else:
        timed, native, root = _store_body(args, spec, region, engine_stats)

    reps.run(lambda: timed(False))  # warm-up: lazy imports, page cache
    untraced: list[float] = []
    scaled: list[float] = []
    probes = [probe_ms()]
    traced: list[float] = []
    layer_values: dict[str, list[float]] = {}
    native_ms: list[float] = []
    spans = None
    started = perf_counter()

    def more() -> bool:
        done = len(traced) >= MIN_TRACED_REPS if args.trace else len(untraced) >= MIN_REPS
        # Failed repetitions are reported, never retried past the budget.
        return perf_counter() - started < args.seconds or not (done or reps.failed)

    while more():
        ms = reps.run(lambda: timed(False))
        probes.append(probe_ms())
        if ms is not None:
            untraced.append(ms)
            scaled.append(ms * PROBE_REF_MS * 2.0 / (probes[-2] + probes[-1]))
        if not args.trace:
            continue
        ms = reps.run(lambda: timed(True))
        probes.append(probe_ms())
        if ms is None:
            continue
        traced.append(ms)
        for name, value in layers.metrics(tracer, engine_stats, root).items():
            layer_values.setdefault(name, []).append(value)
        spans = tracer.to_json()
        native_ms.append(native() * 1000.0)

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "attempted": reps.attempted,
        "failed": reps.failed,
        "errors": reps.errors[:5],
        "wall_ms": untraced,
        "scaled_ms": scaled,
        "probe_ms": probes,
        "peak_mb": (usage_self + usage_children) / 1024.0,
    }
    if args.trace:
        layer_values["omp.native_ms"] = native_ms
        out.update(traced_ms=traced, layers=layer_values, spans=spans)
    return out


def _store_body(args, spec, region, engine_stats: dict):
    """The store workloads' timed region: opened store -> rendered text."""
    from repro.core.profiler import OMPDataPerf
    from repro.events.store import ShardedTraceStore

    store = ShardedTraceStore.open(Path(args.dir, "store"))
    tool = OMPDataPerf()

    def timed(traced: bool):
        with region("report", traced):
            t0 = perf_counter()
            report = tool.analyze_stream(store, engine=spec["engine"], jobs=spec["jobs"])
            text = report.render()
            seconds = perf_counter() - t0
        engine_stats.clear()
        engine_stats.update(report.engine_stats)
        if not text:
            raise RuntimeError("empty report")
        return seconds, _expected(report)

    return timed, lambda: 0.0, "report"


def _ingest_body(args, region):
    """The ingest timed region: runtime creation -> both stores closed."""
    from repro.core.collector import TraceCollector
    from repro.core.profiler import OMPDataPerf, run_uninstrumented
    from repro.events.store import TraceWriter
    from repro.omp.runtime import OffloadRuntime
    from repro.ompt.interface import OmptInterface

    programs = _ingest_programs()
    tool = OMPDataPerf()
    rep_dir = Path(args.dir, "collected")

    def timed(traced: bool):
        shutil.rmtree(rep_dir, ignore_errors=True)
        os.sync()
        stores = {}
        with region("collect", traced):
            t0 = perf_counter()
            for name, program, pname in programs:
                writer = TraceWriter(
                    rep_dir / name, shard_events=INGEST_SHARD_EVENTS, program_name=pname
                )
                ompt = OmptInterface()
                collector = TraceCollector(writer=writer)
                ompt.connect_tool(collector)
                runtime = OffloadRuntime(
                    num_devices=1, ompt=ompt, device_memory_capacity=40 * (1 << 30),
                    program_name=pname,
                )
                program(runtime)
                total = runtime.finish()
                stores[name] = collector.finish_store(total_runtime=total, program_name=pname)
            seconds = perf_counter() - t0
        results = {name: _expected(tool.analyze_stream(store)) for name, store in stores.items()}
        return seconds, results

    def native() -> float:
        t0 = perf_counter()
        for _name, program, pname in programs:
            run_uninstrumented(program, program_name=pname)
        return perf_counter() - t0

    return timed, native, "collect"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    b = sub.add_parser("build")
    b.add_argument("workload", choices=sorted(WORKLOADS))
    b.add_argument("seed", type=int)
    b.add_argument("dir")
    b.add_argument("out")
    b.add_argument("--reference", action="store_true")
    m = sub.add_parser("measure")
    m.add_argument("workload", choices=sorted(WORKLOADS))
    m.add_argument("seed", type=int)
    m.add_argument("dir")
    m.add_argument("seconds", type=float)
    m.add_argument("trace", type=int, choices=(0, 1))
    m.add_argument("out")
    args = parser.parse_args(argv)
    result = build(args) if args.command == "build" else measure(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
