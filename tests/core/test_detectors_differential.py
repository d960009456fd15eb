"""Differential property test: object oracle vs streaming passes vs engines.

Every detector has two implementations — the object-based reference
oracle and the incremental streaming pass — and the pass is checked over
an in-memory columnar trace as ONE batch and over the same trace cut into
random shards, which are independent legs (a single fold never crosses a
batch boundary).  The streaming pass additionally runs on the three
execution engines (the serial scan, process pass groups over an on-disk
store, and the distributed coordinator/worker engine leasing the same
pass-group tasks from a transport queue).  For any well-formed trace every
path must return *identical* findings (same finding objects, in the same
order, holding equal events), for every shard size and pass-group split.
Hypothesis generates random multi-device mapping histories plus a shard
size (and worker count) and the tests assert equality detector by
detector, plus at the aggregated analysis level: object, one batch,
multi-batch stream, process-engine and queue-fed distributed execution.
"""

from __future__ import annotations

import copy
import dataclasses
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import analyze_stream, analyze_trace
from repro.core.detectors._streaming import FOLD_BATCH_EVENTS, fold_batch_target
from repro.core.distributed import DistributedEngine
from repro.core.detectors.duplicates import (
    find_duplicate_transfers,
    find_duplicate_transfers_streaming,
)
from repro.core.detectors.repeated_allocs import (
    find_repeated_allocations,
    find_repeated_allocations_streaming,
)
from repro.core.detectors.roundtrips import (
    find_round_trips,
    find_round_trips_streaming,
)
from repro.core.detectors.unused_allocs import (
    find_unused_allocations,
    find_unused_allocations_streaming,
)
from repro.core.detectors.unused_transfers import (
    find_unused_transfers,
    find_unused_transfers_streaming,
)
from repro.events.columnar import ColumnarTrace
from repro.events.store import shard_trace
from repro.events.stream import as_event_stream
from repro.events.transport import FakeObjectStoreTransport

from tests.conftest import TraceBuilder

pytestmark = pytest.mark.slow

# One step of a variable's history: which operation happens next.
_STEP = st.sampled_from(["h2d", "d2h", "kernel", "remap", "idle", "double_h2d"])

# Shard sizes for the streaming variants: exercise one-event shards, shards
# cutting through the middle of a trace, and single-batch streams.
_SHARDS = st.integers(min_value=1, max_value=40)

# Detector fold targets for the multi-batch legs: per shard, a small target
# that coalesces a few shards, and the default.
_FOLD_TARGETS = st.one_of(
    st.just(1), st.integers(min_value=2, max_value=64), st.just(FOLD_BATCH_EVENTS)
)

# Worker counts for the serial engine (validated, then ignored) and the
# distributed engine: one task up to four pass groups.
_WORKERS = st.integers(min_value=1, max_value=4)

# Process-engine jobs: one to six pass groups (five detectors plus the
# validation guard), so every split the engine can make is drawn.
_PASS_JOBS = st.integers(min_value=1, max_value=6)


@st.composite
def mapping_traces(draw):
    """Generate a well-formed mapping history over one or two devices."""
    num_devices = draw(st.integers(min_value=1, max_value=2))
    num_vars = draw(st.integers(min_value=1, max_value=4))
    steps = draw(st.lists(st.tuples(st.integers(0, num_vars - 1), _STEP),
                          min_size=1, max_size=50))
    hash_pool = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))

    b = TraceBuilder(num_devices=num_devices)
    mapped: dict[int, int] = {}  # var -> device addr
    device_of_var = {v: v % num_devices for v in range(num_vars)}
    next_addr = 0xA000
    for var, step in steps:
        host_addr = 0x100 + var * 0x10
        device = device_of_var[var]
        if step == "kernel":
            b.kernel(device=device)
            continue
        if step == "idle":
            b.idle(1e-5)
            continue
        if var not in mapped:
            mapped[var] = next_addr
            next_addr += 0x100
            b.alloc(host_addr, mapped[var], device=device)
        content = hash_pool[(var + len(b.trace.data_op_events)) % len(hash_pool)]
        if step == "h2d":
            b.h2d(host_addr, mapped[var], content_hash=content, device=device)
        elif step == "double_h2d":
            b.h2d(host_addr, mapped[var], content_hash=content, device=device)
            b.h2d(host_addr, mapped[var], content_hash=content + 100, device=device)
        elif step == "d2h":
            b.d2h(host_addr, mapped[var], content_hash=content, device=device)
        elif step == "remap":
            b.delete(host_addr, mapped[var], device=device)
            b.alloc(host_addr, mapped[var], device=device)
    for var, addr in mapped.items():
        b.delete(0x100 + var * 0x10, addr, device=device_of_var[var])
    return b.build()


@settings(max_examples=120, deadline=None)
@given(mapping_traces(), _SHARDS, _FOLD_TARGETS)
def test_all_detectors_identical_across_representations(trace, shard_events, fold):
    with fold_batch_target(fold):
        ct = ColumnarTrace.from_trace(trace)
        stream = as_event_stream(ct, shard_events)
        data_ops = trace.data_op_events
        targets = trace.target_events
        n = trace.num_devices

        expected = find_duplicate_transfers(data_ops)
        assert expected == find_duplicate_transfers_streaming(ct)
        assert expected == find_duplicate_transfers_streaming(stream)

        expected = find_round_trips(data_ops)
        assert expected == find_round_trips_streaming(ct)
        assert expected == find_round_trips_streaming(stream)

        expected = find_repeated_allocations(data_ops)
        assert expected == find_repeated_allocations_streaming(ct)
        assert expected == find_repeated_allocations_streaming(stream)

        expected = find_unused_allocations(targets, data_ops, n)
        assert expected == find_unused_allocations_streaming(ct, n)
        assert expected == find_unused_allocations_streaming(stream, n)

        expected = find_unused_transfers(targets, data_ops, n)
        assert expected == find_unused_transfers_streaming(ct, n)
        assert expected == find_unused_transfers_streaming(stream, n)


@settings(max_examples=60, deadline=None)
@given(mapping_traces(), st.integers(min_value=0, max_value=2048), _SHARDS, _FOLD_TARGETS)
def test_duplicate_min_bytes_threshold_identical(trace, min_bytes, shard_events, fold):
    with fold_batch_target(fold):
        ct = ColumnarTrace.from_trace(trace)
        expected = find_duplicate_transfers(trace.data_op_events, min_bytes=min_bytes)
        assert expected == find_duplicate_transfers_streaming(ct, min_bytes=min_bytes)
        assert expected == find_duplicate_transfers_streaming(
            as_event_stream(ct, shard_events), min_bytes=min_bytes
        )


@settings(max_examples=60, deadline=None)
@given(mapping_traces(), _SHARDS, _FOLD_TARGETS)
def test_roundtrip_nonchronological_mode_identical(trace, shard_events, fold):
    with fold_batch_target(fold):
        ct = ColumnarTrace.from_trace(trace)
        expected = find_round_trips(trace.data_op_events, require_chronological=False)
        assert expected == find_round_trips_streaming(ct, require_chronological=False)
        assert expected == find_round_trips_streaming(
            as_event_stream(ct, shard_events), require_chronological=False
        )


@settings(max_examples=60, deadline=None)
@given(mapping_traces(), _SHARDS, _FOLD_TARGETS)
def test_repeated_allocs_keep_undeleted_mode_identical(trace, shard_events, fold):
    with fold_batch_target(fold):
        ct = ColumnarTrace.from_trace(trace)
        expected = find_repeated_allocations(trace.data_op_events, require_deletion=False)
        assert expected == find_repeated_allocations_streaming(ct, require_deletion=False)
        assert expected == find_repeated_allocations_streaming(
            as_event_stream(ct, shard_events), require_deletion=False
        )


def _assert_reports_equal(obj_report, report):
    assert obj_report.counts == report.counts
    assert obj_report.potential == report.potential
    assert obj_report.duplicate_groups == report.duplicate_groups
    assert obj_report.round_trip_groups == report.round_trip_groups
    assert obj_report.repeated_alloc_groups == report.repeated_alloc_groups
    assert obj_report.unused_allocations == report.unused_allocations
    assert obj_report.unused_transfers == report.unused_transfers
    assert obj_report.render() == report.render()


@settings(max_examples=40, deadline=None)
@given(mapping_traces(), _SHARDS, _WORKERS, st.randoms(use_true_random=False), _FOLD_TARGETS)
def test_full_analysis_identical_across_representations(
    trace, shard_events, workers, rng, fold
):
    # Negative first: a transfer without its content hash fails both paths
    # with the same message, naming the same event.
    broken = ColumnarTrace.from_trace(trace)
    transfers = np.flatnonzero(broken.transfer_mask())
    if transfers.size:
        row = rng.choice(transfers.tolist())
        broken.do_has_content_hash[row] = False
        # Event construction rejects a hashless transfer, so unhash a copy.
        hashless = copy.copy(trace.data_op_events[row])
        object.__setattr__(hashless, "content_hash", None)
        data_ops = list(trace.data_op_events)
        data_ops[row] = hashless
        broken_objects = dataclasses.replace(trace, data_op_events=data_ops)
        message = f"transfer event seq={hashless.seq} is missing its content hash"
        with pytest.raises(ValueError, match=re.escape(message)):
            analyze_trace(broken_objects)
        with pytest.raises(ValueError, match=re.escape(message)):
            analyze_trace(broken)

    obj_report = analyze_trace(trace)
    col_report = analyze_trace(ColumnarTrace.from_trace(trace))
    stream = as_event_stream(ColumnarTrace.from_trace(trace), shard_events)
    with fold_batch_target(fold):
        stream_report = analyze_stream(stream)
        prefetch_report = analyze_stream(stream, jobs=workers)
    for report in (col_report, stream_report, prefetch_report):
        _assert_reports_equal(obj_report, report)


@settings(max_examples=25, deadline=None)
@given(mapping_traces(), _SHARDS, _PASS_JOBS, _FOLD_TARGETS)
def test_process_engine_identical_over_stores(trace, shard_events, jobs, fold):
    """The fourth way: process workers folding pass groups of a real store.

    The trace goes to disk as a sharded store, the process engine splits
    the passes into ``jobs`` groups and each worker folds its group over
    the whole store in one scan; the result must equal the object oracle
    bit for bit, also with the validation guard folded into one group.
    """
    obj_report = analyze_trace(trace)
    scratch = tempfile.mkdtemp(prefix="ompdataperf-diff-")
    try:
        store = shard_trace(
            ColumnarTrace.from_trace(trace),
            Path(scratch) / "t.store",
            shard_events=shard_events,
        )
        with fold_batch_target(fold):  # the forked workers inherit it
            process_report = analyze_stream(store, engine="process", jobs=jobs)
            validated_report = analyze_stream(
                store, engine="process", jobs=jobs, validate=True
            )
        _assert_reports_equal(obj_report, process_report)
        _assert_reports_equal(obj_report, validated_report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


@settings(max_examples=20, deadline=None)
@given(mapping_traces(), _SHARDS, _WORKERS, _FOLD_TARGETS)
def test_distributed_engine_identical_over_stores(trace, shard_events, workers, fold):
    """The fifth leg: coordinator/worker execution over a task queue.

    The trace goes to disk as a sharded store, a distributed coordinator
    publishes pass-group tasks into a scratch queue, thread-mode workers
    lease them over the full blob protocol (claim renames, heartbeats,
    pickled finding parts and the folded guard), and the gathered
    result must equal the object oracle bit for bit — for random shard
    sizes and group counts, with and without the validation guard.
    """
    obj_report = analyze_trace(trace)
    scratch = tempfile.mkdtemp(prefix="ompdataperf-diff-")
    try:
        store = shard_trace(
            ColumnarTrace.from_trace(trace),
            Path(scratch) / "t.store",
            shard_events=shard_events,
        )
        engine = DistributedEngine(
            worker_mode="thread", poll_interval=0.01, run_timeout=120.0
        )
        with fold_batch_target(fold):
            report = analyze_stream(store, engine=engine, jobs=workers)
            validated_report = analyze_stream(
                store, engine=engine, jobs=workers, validate=True
            )
        _assert_reports_equal(obj_report, report)
        _assert_reports_equal(obj_report, validated_report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


@settings(max_examples=15, deadline=None)
@given(mapping_traces(), _SHARDS, _WORKERS, _FOLD_TARGETS)
def test_distributed_engine_identical_over_remote_transports(
    trace, shard_events, workers, fold
):
    """The fifth leg over non-local storage: the store's shards live in a
    zip archive or an S3-like object store, and for the latter the queue
    itself is object-store backed too (claims become copy-then-delete)."""
    obj_report = analyze_trace(trace)
    scratch = tempfile.mkdtemp(prefix="ompdataperf-diff-")
    try:
        zip_store = shard_trace(
            ColumnarTrace.from_trace(trace),
            Path(scratch) / "t.zip",
            shard_events=shard_events,
        )
        engine = DistributedEngine(
            worker_mode="thread", poll_interval=0.01, run_timeout=120.0
        )
        with fold_batch_target(fold):
            report = analyze_stream(zip_store, engine=engine, jobs=workers)
        _assert_reports_equal(obj_report, report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    remote_store = shard_trace(
        ColumnarTrace.from_trace(trace),
        FakeObjectStoreTransport(),
        shard_events=shard_events,
    )
    engine = DistributedEngine(
        queue=FakeObjectStoreTransport(),
        workers=workers,
        worker_mode="thread",
        poll_interval=0.01,
        run_timeout=120.0,
    )
    with fold_batch_target(fold):
        report = analyze_stream(remote_store, engine=engine, jobs=workers)
    _assert_reports_equal(obj_report, report)


@settings(max_examples=25, deadline=None)
@given(mapping_traces(), _SHARDS, _WORKERS, _FOLD_TARGETS)
def test_process_engine_identical_over_remote_transport(
    trace, shard_events, workers, fold
):
    """The fourth way again, with the store behind a non-local transport.

    The shards live in a fake object store (S3-like get/put/list), the
    workers reopen it from its picklable transport spec, and both the
    folds and the finalize-side materialisation scans run against the
    remote blobs — findings must still equal the object oracle bit for
    bit.
    """
    obj_report = analyze_trace(trace)
    remote = FakeObjectStoreTransport()
    store = shard_trace(
        ColumnarTrace.from_trace(trace), remote, shard_events=shard_events
    )
    with fold_batch_target(fold):  # the forked workers inherit it
        process_report = analyze_stream(store, engine="process", jobs=workers)
    _assert_reports_equal(obj_report, process_report)
