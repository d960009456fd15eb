"""Hostile-trace throughput: generation rate and analysis over hostile stores.

The nightly fuzz leg pushes multi-million-event adversarial traces through
every engine, so the *generator* and the *hostile-layout* analysis path
both need a tracked throughput record.  Measures events/sec for
:func:`make_hostile_trace`, for writing the shard-boundary-hostile store
layout (random cuts, spliced empty shards), and for
analysing that layout serially — written to ``BENCH_hostile.json`` under
``$OMPDATAPERF_BENCH_DIR`` (default: a fresh temp dir) for the
benchmark-regression gate.

Env knobs: ``OMPDATAPERF_BENCH_HOSTILE_EVENTS`` (default 300000) and
``OMPDATAPERF_BENCH_HOSTILE_SEED`` (default 20260808).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from time import perf_counter

import pytest

from repro.core.analysis import analyze_stream, analyze_trace
from repro.events.hostile import make_hostile_trace, write_hostile_store
from repro.events.validation import validate_trace

pytestmark = pytest.mark.slow

NUM_EVENTS = int(os.environ.get("OMPDATAPERF_BENCH_HOSTILE_EVENTS", 300_000))
SEED = int(os.environ.get("OMPDATAPERF_BENCH_HOSTILE_SEED", 20260808))

#: The generator must stay fast enough for multi-million-event nightly
#: sweeps: floor on generated events per second.
MIN_GENERATE_RATE = float(
    os.environ.get("OMPDATAPERF_BENCH_HOSTILE_MIN_RATE", "20000")
)


def test_hostile_generation_and_analysis_throughput(bench_dir):
    started = perf_counter()
    trace = make_hostile_trace(NUM_EVENTS, seed=SEED)
    generate_seconds = perf_counter() - started
    num_events = len(trace)

    started = perf_counter()
    validate_trace(trace)
    validate_seconds = perf_counter() - started

    with tempfile.TemporaryDirectory(prefix="ompdataperf-hostile-bench-") as scratch:
        started = perf_counter()
        store = write_hostile_store(trace, Path(scratch) / "store", seed=SEED)
        write_seconds = perf_counter() - started

        started = perf_counter()
        report = analyze_stream(store)
        analyze_store_seconds = perf_counter() - started

    started = perf_counter()
    baseline = analyze_trace(trace)
    analyze_columnar_seconds = perf_counter() - started
    assert report.counts == baseline.counts  # hostile layout changes nothing

    record = {
        "benchmark": "hostile_throughput",
        "seed": SEED,
        "num_events": num_events,
        "num_shards": store.num_shards,
        "generate_seconds": generate_seconds,
        "generate_events_per_sec": num_events / generate_seconds,
        "validate_seconds": validate_seconds,
        "write_store_seconds": write_seconds,
        "analyze_store_seconds": analyze_store_seconds,
        "analyze_store_events_per_sec": num_events / analyze_store_seconds,
        "analyze_columnar_seconds": analyze_columnar_seconds,
        "hostile_layout_overhead": analyze_store_seconds / analyze_columnar_seconds,
    }
    out_path = bench_dir / "BENCH_hostile.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    rate = record["generate_events_per_sec"]
    assert rate >= MIN_GENERATE_RATE, (
        f"hostile generator produced only {rate:.0f} events/sec "
        f"(need >= {MIN_GENERATE_RATE:.0f}); see {out_path}"
    )
