"""Streaming pipeline throughput and memory on a million-event trace.

Replays the 1M-event synthetic trace through the sharded store and the
incremental streaming detectors at several shard sizes, verifies the
findings are bit-identical to the in-memory columnar path, and writes a
machine-readable record to ``BENCH_streaming.json`` under
``$OMPDATAPERF_BENCH_DIR`` (default: a fresh temp dir).

Three claims are measured and enforced:

* **Bounded-memory ingest.**  Writing the trace through a
  :class:`~repro.events.store.TraceWriter` allocates O(shard_events)
  memory — the traced peak scales with the shard size, not the trace.
* **Streaming throughput.**  At the default shard size the five
  incremental detector passes (one scan of the store, fold + finalize)
  reach at least ``MIN_STREAMING_RATIO`` of the in-memory columnar
  throughput (load the whole store, run the detectors over it as one
  batch).
* **Streaming analysis memory.**  The streaming path peaks below the
  in-memory path; what remains is the shard buffer plus the detector
  carries (key tables, pending legs — see ``docs/architecture.md``),
  which do not grow when the same trace is cut into more shards.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import tracemalloc

import pytest

from repro.core.analysis import analyze_stream
from repro.core.detectors.duplicates import find_duplicate_transfers_streaming
from repro.core.detectors.repeated_allocs import find_repeated_allocations_streaming
from repro.core.detectors.roundtrips import find_round_trips_streaming
from repro.core.detectors.unused_allocs import find_unused_allocations_streaming
from repro.core.detectors.unused_transfers import find_unused_transfers_streaming
from repro.events.store import TraceWriter, shard_trace
from repro.events.stream import DEFAULT_SHARD_EVENTS, iter_trace_slices
from repro.events.synth import make_synthetic_columnar_trace

pytestmark = pytest.mark.slow  # 1M-event benchmark: skipped by -m "not slow"

NUM_EVENTS = 1_000_000
SHARD_SIZES = (32_768, DEFAULT_SHARD_EVENTS, 524_288)

#: Acceptance bar on dedicated hardware; shared CI runners can relax it via
#: the environment, mirroring the detector-throughput benchmark.
MIN_STREAMING_RATIO = float(os.environ.get("OMPDATAPERF_BENCH_MIN_STREAMING_RATIO", "0.5"))

#: The flat format's whole point: streaming a local ``.odpf`` store must
#: be at least as fast as streaming the legacy ``.npz`` store it replaces
#: (>= 1.0x) — mmapped shards decode nothing, so the storage format
#: contributes zero to the scan.  (Against the *in-memory* scan the
#: incremental fold itself is the limit at the default shard size; that
#: ratio is recorded per format and gated by ``MIN_STREAMING_RATIO``.)
MIN_ODPF_STREAMING_RATIO = float(
    os.environ.get("OMPDATAPERF_BENCH_MIN_ODPF_RATIO", "1.0")
)

_RECORD: dict = {}


@pytest.fixture(scope="module")
def trace():
    return make_synthetic_columnar_trace(NUM_EVENTS)


@pytest.fixture(scope="module")
def stores(trace, tmp_path_factory):
    base = tmp_path_factory.mktemp("streaming-bench")
    return {
        shard_events: shard_trace(
            trace, base / f"shard-{shard_events}", shard_events=shard_events
        )
        for shard_events in SHARD_SIZES
    }


def _run_columnar(full):
    """The five detectors over the whole in-memory trace as one batch."""
    return (
        find_duplicate_transfers_streaming(full),
        find_round_trips_streaming(full),
        find_repeated_allocations_streaming(full),
        find_unused_allocations_streaming(full, full.num_devices),
        find_unused_transfers_streaming(full, full.num_devices),
    )


def _report_findings(report):
    return (
        report.duplicate_groups,
        report.round_trip_groups,
        report.repeated_alloc_groups,
        report.unused_allocations,
        report.unused_transfers,
    )


def test_ingest_memory_is_shard_bounded(trace, tmp_path_factory):
    """TraceWriter ingest peaks scale with shard size, not trace size."""
    base = tmp_path_factory.mktemp("ingest-bench")
    peaks: dict[int, int] = {}
    for shard_events in SHARD_SIZES:
        # The source trace pre-exists tracing, so only writer-side
        # allocations (buffer, slice, savez) count toward the peak.
        tracemalloc.start()
        writer = TraceWriter(
            base / f"in-{shard_events}", shard_events=shard_events, num_devices=1
        )
        for piece in iter_trace_slices(trace, shard_events):
            writer.write_batch(piece)
        writer.close(total_runtime=trace.total_runtime)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[shard_events] = peak

    _RECORD["ingest"] = {
        str(shard_events): {"peak_traced_bytes": peaks[shard_events]}
        for shard_events in SHARD_SIZES
    }
    smallest, largest = SHARD_SIZES[0], SHARD_SIZES[-1]
    # Peak grows with the shard, and the small-shard ingest of a 1M-event
    # trace stays far below the trace's in-memory footprint (~70 MB).
    assert peaks[smallest] < peaks[largest]
    assert peaks[smallest] < 40 * 1024 * 1024, (
        f"ingest at {smallest}-event shards peaked at {peaks[smallest] / 1e6:.1f} MB"
    )


def test_streaming_matches_columnar_and_measures_throughput(trace, stores):
    store = stores[DEFAULT_SHARD_EVENTS]

    t0 = time.perf_counter()
    full = store.load()
    expected = _run_columnar(full)
    in_memory_seconds = time.perf_counter() - t0
    del full

    per_shard: dict[str, dict] = {}
    for shard_events in SHARD_SIZES:
        t0 = time.perf_counter()
        report = analyze_stream(stores[shard_events])
        seconds = time.perf_counter() - t0
        assert _report_findings(report) == expected, (
            f"streaming findings differ from the in-memory one-batch run at "
            f"shard_events={shard_events}"
        )
        per_shard[str(shard_events)] = {
            "seconds": seconds,
            "events_per_sec": NUM_EVENTS / seconds,
            "ratio_vs_in_memory": in_memory_seconds / seconds,
        }

    _RECORD["in_memory"] = {
        "seconds": in_memory_seconds,
        "events_per_sec": NUM_EVENTS / in_memory_seconds,
    }
    _RECORD["streaming"] = per_shard

    default = per_shard[str(DEFAULT_SHARD_EVENTS)]
    assert default["ratio_vs_in_memory"] >= MIN_STREAMING_RATIO, (
        f"streaming analysis at the default shard size reaches only "
        f"{default['ratio_vs_in_memory']:.2f}x of the in-memory columnar "
        f"throughput (need >= {MIN_STREAMING_RATIO})"
    )


#: Timed streaming analyses per format, alternating npz and odpf, whose
#: medians the cross-format ratio compares: one sample each read 0.91x on
#: a loaded 2-vCPU host, where the median holds.
FORMAT_REPEATS = 5


def test_shard_format_legs_open_latency_and_throughput(trace, tmp_path_factory):
    """Legacy ``.npz`` vs flat ``.odpf`` shards, same trace, same size.

    Three measurements per format: time to open the store and materialise
    its first shard (the decode-vs-mmap difference in isolation), the
    full streaming analysis throughput (the median of ``FORMAT_REPEATS``
    analyses, the two formats alternating), and its ratio against the
    same-format in-memory path (load the whole store, run the detectors
    over it as one batch).  The gated claim compares across formats: streaming the
    flat ``.odpf`` store must be at least as fast as streaming the legacy
    ``.npz`` store it replaces (``ratio_vs_npz_streaming >= 1.0`` — the
    decode cost is gone and nothing replaced it), and mmapping the first
    flat shard must beat decoding the first npz shard.
    """
    from repro.events.store import ShardedTraceStore

    base = tmp_path_factory.mktemp("format-bench")
    legs: dict[str, dict] = {}
    stores = {}
    expected = None
    for fmt in ("npz", "odpf"):
        store = stores[fmt] = shard_trace(
            trace,
            base / f"fmt-{fmt}",
            shard_events=DEFAULT_SHARD_EVENTS,
            shard_format=fmt,
        )

        t0 = time.perf_counter()
        fresh = ShardedTraceStore.open(store.path)
        fresh.load_batch(0)
        open_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        full = store.load()
        findings = _run_columnar(full)
        in_memory_seconds = time.perf_counter() - t0
        if expected is None:
            expected = findings
        assert findings == expected
        del full
        legs[fmt] = {
            "open_to_first_batch_seconds": open_seconds,
            "in_memory_seconds": in_memory_seconds,
            "streaming_samples": [],
        }

    for _ in range(FORMAT_REPEATS):
        for fmt, store in stores.items():
            t0 = time.perf_counter()
            report = analyze_stream(store)
            legs[fmt]["streaming_samples"].append(time.perf_counter() - t0)
            assert _report_findings(report) == expected

    for fmt, store in stores.items():
        leg = legs[fmt]
        seconds = statistics.median(leg["streaming_samples"])
        leg.update(
            seconds=seconds,
            events_per_sec=NUM_EVENTS / seconds,
            ratio_vs_in_memory=leg["in_memory_seconds"] / seconds,
            decode_count=store.decode_count,
            map_count=store.map_count,
        )

    legs["odpf"]["ratio_vs_npz_streaming"] = (
        legs["npz"]["seconds"] / legs["odpf"]["seconds"]
    )
    _RECORD["formats"] = legs
    assert legs["odpf"]["decode_count"] == 0
    assert legs["odpf"]["map_count"] > 0
    assert legs["npz"]["decode_count"] > 0
    assert (
        legs["odpf"]["open_to_first_batch_seconds"]
        <= legs["npz"]["open_to_first_batch_seconds"]
    ), "mmapping the first flat shard should beat decoding the first npz shard"
    assert legs["odpf"]["ratio_vs_npz_streaming"] >= MIN_ODPF_STREAMING_RATIO, (
        f"streaming a flat .odpf store reaches only "
        f"{legs['odpf']['ratio_vs_npz_streaming']:.2f}x of the legacy .npz "
        f"streaming leg, median of {FORMAT_REPEATS} (need >= {MIN_ODPF_STREAMING_RATIO})"
    )


def test_streaming_memory_below_in_memory_and_write_record(trace, stores, bench_dir):
    assert "streaming" in _RECORD, "throughput benchmark must run first"
    store = stores[DEFAULT_SHARD_EVENTS]

    tracemalloc.start()
    analyze_stream(store)
    _, streaming_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    full = store.load()
    _run_columnar(full)
    _, in_memory_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del full

    # Cutting the same trace into 4x smaller shards must not grow the
    # analysis peak: it is carry + shard buffer, not trace size.
    tracemalloc.start()
    analyze_stream(stores[SHARD_SIZES[0]])
    _, small_shard_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    _RECORD["memory"] = {
        "streaming_peak_traced_bytes": streaming_peak,
        "streaming_small_shard_peak_traced_bytes": small_shard_peak,
        "in_memory_peak_traced_bytes": in_memory_peak,
    }
    record = {
        "benchmark": "streaming_throughput",
        "num_events": NUM_EVENTS,
        "shard_sizes": list(SHARD_SIZES),
        "default_shard_events": DEFAULT_SHARD_EVENTS,
        "min_streaming_ratio": MIN_STREAMING_RATIO,
        "min_odpf_streaming_ratio": MIN_ODPF_STREAMING_RATIO,
        **_RECORD,
    }
    out_path = bench_dir / "BENCH_streaming.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    assert streaming_peak < in_memory_peak, (
        f"streaming analysis peaked at {streaming_peak / 1e6:.1f} MB, above the "
        f"in-memory path's {in_memory_peak / 1e6:.1f} MB; see {out_path}"
    )
    assert small_shard_peak < 1.25 * streaming_peak, (
        "analysis peak grew when the trace was cut into smaller shards — "
        "memory is supposed to be carry + shard buffer, not trace size"
    )
