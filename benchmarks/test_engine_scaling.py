"""Execution-engine scaling on the million-event synthetic trace.

Analyzes the same sharded store with every execution engine — the serial
single-scan pipeline, process pass groups, and the distributed
coordinator/worker engine (loopback worker processes leasing the same
pass-group tasks from a local-dir queue) — at 1, 2 and 4 workers,
verifies the findings stay bit-identical to the serial path, and writes a
machine-readable record to ``BENCH_engine.json`` under
``$OMPDATAPERF_BENCH_DIR`` (default: a fresh temp dir).  The
distributed leg measures the queue protocol's overhead against the
process pool: same pass groups, same folds, plus blob leases, heartbeats
and worker start-up.

The headline claim is the process engine's: the detector folds are
GIL-bound Python/NumPy, so only process workers can scale them across
cores.  On hardware with at least ``MIN_CORES_FOR_SPEEDUP`` cores the
benchmark *enforces* a ``MIN_PROCESS_SPEEDUP``× speedup over the serial
streaming analysis at 4 process workers; on smaller machines (including
single-core CI containers, where no parallel speedup is physically
possible) the measurement is still recorded, with ``speedup_enforced:
false`` in the record, mirroring how the other benchmarks relax their
bars through the environment.

Wall-clock speedup is hardware-bound, but the per-task *constants* are
not: every process-engine measurement additionally records the overhead
breakdown from ``ProcessEngine.stats`` (``spawn_count`` and spawn / open
/ map / fold seconds), which is observable even on a
single-core container.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.analysis import analyze_stream
from repro.core.distributed import DistributedEngine
from repro.core.engine import ProcessEngine
from repro.events.store import shard_trace
from repro.events.stream import DEFAULT_SHARD_EVENTS
from repro.events.synth import make_synthetic_columnar_trace

pytestmark = pytest.mark.slow  # 1M-event benchmark: skipped by -m "not slow"

#: Trace size and worker sweep are environment-tunable so the nightly CI
#: can run a larger sweep than the per-push gate without a code change.
NUM_EVENTS = int(os.environ.get("OMPDATAPERF_BENCH_ENGINE_EVENTS", 1_000_000))
WORKER_COUNTS = tuple(
    int(n)
    for n in os.environ.get("OMPDATAPERF_BENCH_WORKER_COUNTS", "1,2,4").split(",")
)
ENGINES = ("serial", "process", "distributed")

#: Acceptance bar for the process engine at 4 workers, relaxable on shared
#: runners via the environment like the other benchmark bars.
MIN_PROCESS_SPEEDUP = float(
    os.environ.get("OMPDATAPERF_BENCH_MIN_PROCESS_SPEEDUP", "1.5")
)

#: The speedup bar only binds where the hardware can deliver one.
MIN_CORES_FOR_SPEEDUP = 4


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    trace = make_synthetic_columnar_trace(NUM_EVENTS)
    path = tmp_path_factory.mktemp("engine-bench") / "trace.store"
    return shard_trace(trace, path, shard_events=DEFAULT_SHARD_EVENTS)


def _findings(report):
    return (
        report.counts,
        report.duplicate_groups,
        report.round_trip_groups,
        report.repeated_alloc_groups,
        report.unused_allocations,
        report.unused_transfers,
    )


def test_engine_scaling_and_write_record(store, bench_dir):
    t0 = time.perf_counter()
    serial_report = analyze_stream(store)
    serial_seconds = time.perf_counter() - t0
    expected = _findings(serial_report)

    results: dict[str, dict[str, dict]] = {}
    for engine in ENGINES:
        if engine == "serial":
            continue  # the baseline above IS the serial measurement
        per_jobs: dict[str, dict] = {}
        for jobs in WORKER_COUNTS:
            # A fresh engine object per measurement so its .stats (the
            # overhead breakdown / coordination counters) can ride along
            # in the record.
            if engine == "process":
                runner = ProcessEngine()
            elif engine == "distributed":
                runner = DistributedEngine()
            else:
                runner = engine
            t0 = time.perf_counter()
            report = analyze_stream(store, engine=runner, jobs=jobs)
            seconds = time.perf_counter() - t0
            assert _findings(report) == expected, (
                f"{engine} engine at {jobs} workers diverged from the "
                f"serial streaming findings"
            )
            per_jobs[str(jobs)] = {
                "seconds": seconds,
                "events_per_sec": NUM_EVENTS / seconds,
                "speedup_vs_serial": serial_seconds / seconds,
            }
            if engine == "process":
                per_jobs[str(jobs)]["overhead"] = dict(runner.stats)
            elif engine == "distributed" and runner.stats:
                # Coordination counters: requeues, respawns, speculation,
                # debris and duplicate results.
                per_jobs[str(jobs)]["coordination"] = dict(runner.stats)
        results[engine] = per_jobs

    results["serial"] = {
        "1": {
            "seconds": serial_seconds,
            "events_per_sec": NUM_EVENTS / serial_seconds,
            "speedup_vs_serial": 1.0,
        }
    }

    cores = _available_cores()
    enforce = cores >= MIN_CORES_FOR_SPEEDUP
    record = {
        "benchmark": "engine_scaling",
        "num_events": NUM_EVENTS,
        "num_shards": store.num_shards,
        "shard_events": DEFAULT_SHARD_EVENTS,
        "worker_counts": list(WORKER_COUNTS),
        "available_cores": cores,
        "min_process_speedup": MIN_PROCESS_SPEEDUP,
        "speedup_enforced": enforce,
        "engines": results,
    }
    out_path = bench_dir / "BENCH_engine.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    peak_workers = max(WORKER_COUNTS)
    process_at_4 = results["process"][str(peak_workers)]["speedup_vs_serial"]
    if enforce:
        assert process_at_4 >= MIN_PROCESS_SPEEDUP, (
            f"process engine at {peak_workers} workers reaches only "
            f"{process_at_4:.2f}x of serial streaming analysis (need >= "
            f"{MIN_PROCESS_SPEEDUP}x on {cores} cores); see {out_path}"
        )
    else:
        # Not enough cores for a parallel speedup: the record documents
        # the measurement, and correctness was asserted above regardless.
        assert process_at_4 > 0
