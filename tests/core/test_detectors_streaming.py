"""Targeted tests for the incremental (streaming) detector variants.

The three-way differential property test covers random traces; these tests
pin down the cross-shard mechanics — carries that must survive a shard
boundary — plus the stream-level analysis entry point.  The shard-size
sweeps run at every ``fold_target`` (see ``tests/conftest.py``), so the
carries are crossed whether the detectors fold each shard alone or a few
coalesced shards at a time.
"""

from __future__ import annotations

import pytest

from repro.core.analysis import analyze_stream, analyze_trace
from repro.core.detectors.duplicates import (
    find_duplicate_transfers,
    find_duplicate_transfers_streaming,
)
from repro.core.detectors.repeated_allocs import (
    find_repeated_allocations,
    find_repeated_allocations_streaming,
)
from repro.core.detectors.roundtrips import find_round_trips, find_round_trips_streaming
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

from tests.conftest import TraceBuilder


def _stream(trace, shard_events):
    return as_event_stream(ColumnarTrace.from_trace(trace), shard_events)


def _assert_all_shard_sizes(trace, finder, expected):
    """``finder(stream)`` must equal ``expected`` for every shard size."""
    for shard_events in range(1, len(trace) + 2):
        got = finder(_stream(trace, shard_events))
        assert got == expected, f"shard_events={shard_events}"


@pytest.mark.usefixtures("fold_target")
def test_duplicate_group_spanning_shards(builder):
    # Three receipts of the same payload, far apart: the key must cross the
    # two-member threshold mid-stream and recover its first occurrence.
    b = builder
    b.alloc(0x100, 0xA000)
    b.h2d(0x100, 0xA000, content_hash=7)
    b.kernel()
    b.h2d(0x100, 0xA000, content_hash=7)
    b.kernel()
    b.h2d(0x100, 0xA000, content_hash=7)
    b.delete(0x100, 0xA000)
    trace = b.build()
    expected = find_duplicate_transfers(trace.data_op_events)
    assert len(expected) == 1 and len(expected[0].events) == 3

    _assert_all_shard_sizes(trace, find_duplicate_transfers_streaming, expected)


def test_missing_hash_raises_in_streaming(builder):
    b = builder
    b.alloc(0x100, 0xA000)
    b.h2d(0x100, 0xA000, content_hash=1)
    trace = b.build()
    ct = ColumnarTrace.from_trace(trace)
    ct.do_has_content_hash[1] = False  # corrupt in place
    with pytest.raises(ValueError, match="missing its content hash"):
        find_duplicate_transfers_streaming(as_event_stream(ct, 1))
    with pytest.raises(ValueError, match="missing its content hash"):
        find_round_trips_streaming(as_event_stream(ct, 1))


@pytest.mark.usefixtures("fold_target")
def test_round_trip_legs_in_different_shards(builder):
    b = builder
    b.alloc(0x100, 0xA000)
    b.h2d(0x100, 0xA000, content_hash=42)
    b.kernel()
    b.idle(1e-4)
    b.d2h(0x100, 0xA000, content_hash=42)  # unmodified payload travels back
    b.delete(0x100, 0xA000)
    trace = b.build()
    expected = find_round_trips(trace.data_op_events)
    assert sum(g.num_trips for g in expected) == 1

    _assert_all_shard_sizes(trace, find_round_trips_streaming, expected)


@pytest.mark.usefixtures("fold_target")
def test_repeated_alloc_pair_spanning_shards(builder):
    # alloc in one shard, delete shards later; the same (addr, device, size)
    # key repeats, so the pairer's open-alloc carry and the counter's
    # first-pair payload both cross boundaries.
    b = builder
    for _ in range(3):
        b.alloc(0x100, 0xA000)
        b.h2d(0x100, 0xA000, content_hash=1)
        b.kernel()
        b.delete(0x100, 0xA000)
    trace = b.build()
    expected = find_repeated_allocations(trace.data_op_events)
    assert len(expected) == 1 and len(expected[0].allocations) == 3

    _assert_all_shard_sizes(trace, find_repeated_allocations_streaming, expected)


@pytest.mark.usefixtures("fold_target")
def test_repeated_alloc_overlapping_lifetimes_deletes_across_shards(builder):
    # Two overlapping allocations of the same (host addr, device, size) key
    # whose deletes land in reverse order: the pairs complete out of alloc
    # order, so the key's retained first pair is NOT the minimal-gpos one
    # when the second pair arrives.  Regression test for the crossed-key
    # recovery returning the wrong member.
    b = builder
    a1 = b.alloc(0x1000, 0x500)
    a2 = b.alloc(0x1000, 0x600)  # same key, overlapping lifetime
    b.kernel()
    b.delete(0x1000, 0x600)  # closes a2 first...
    b.delete(0x1000, 0x500)  # ...a1 completes later (possibly shards later)
    trace = b.build()
    expected = find_repeated_allocations(trace.data_op_events)
    assert len(expected) == 1
    assert [p.alloc_event.seq for p in expected[0].allocations] == [a1.seq, a2.seq]

    _assert_all_shard_sizes(trace, find_repeated_allocations_streaming, expected)


@pytest.mark.usefixtures("fold_target")
def test_unused_alloc_decided_only_at_finalize(builder):
    # The second allocation's lifetime starts after the last kernel: its
    # cursor never resolves and it must fall out of finalize as unused.
    b = builder
    b.alloc(0x100, 0xA000)
    b.kernel()
    b.delete(0x100, 0xA000)
    b.alloc(0x200, 0xB000)  # never deleted, after the last kernel
    trace = b.build()
    expected = find_unused_allocations(trace.target_events, trace.data_op_events, 1)
    assert len(expected) == 1

    _assert_all_shard_sizes(
        trace, lambda s: find_unused_allocations_streaming(s, 1), expected
    )


@pytest.mark.usefixtures("fold_target")
def test_unused_transfer_epoch_spanning_shards(builder):
    # Two same-address transfers in one epoch (overwrite), separated so the
    # candidate map must survive a shard boundary, plus an after-last tail.
    b = builder
    b.alloc(0x100, 0xA000)
    b.alloc(0x200, 0xB000)
    b.h2d(0x100, 0xA000, content_hash=1)
    b.h2d(0x200, 0xB000, content_hash=2)
    b.h2d(0x100, 0xA000, content_hash=3)  # overwrites the first, unread
    b.kernel()
    b.idle(1e-3)
    b.h2d(0x100, 0xA000, content_hash=4)  # after the last kernel
    b.delete(0x100, 0xA000)
    b.delete(0x200, 0xB000)
    trace = b.build()
    expected = find_unused_transfers(trace.target_events, trace.data_op_events, 1)
    reasons = sorted(f.reason for f in expected)
    assert reasons == ["after_last_kernel", "overwritten"]

    _assert_all_shard_sizes(
        trace, lambda s: find_unused_transfers_streaming(s, 1), expected
    )


def test_streaming_detectors_handle_empty_stream():
    empty = ColumnarTrace(num_devices=2)
    stream = as_event_stream(empty)
    assert find_duplicate_transfers_streaming(stream) == []
    assert find_round_trips_streaming(stream) == []
    assert find_repeated_allocations_streaming(stream) == []
    assert find_unused_allocations_streaming(stream) == []
    assert find_unused_transfers_streaming(stream) == []


def test_streaming_num_devices_validation():
    empty = ColumnarTrace(num_devices=0)
    with pytest.raises(ValueError, match="at least 1"):
        find_unused_allocations_streaming(as_event_stream(empty))
    with pytest.raises(ValueError, match="at least 1"):
        find_unused_transfers_streaming(as_event_stream(empty))


# --------------------------------------------------------------------- #
# analyze_stream
# --------------------------------------------------------------------- #
def _issue_rich_trace():
    b = TraceBuilder(num_devices=2)
    for i in range(12):
        dev = i % 2
        host, daddr = 0x100 + dev * 0x10, 0xA000 + i * 0x100
        b.alloc(host, daddr, device=dev)
        b.h2d(host, daddr, content_hash=1 + (i % 2), device=dev)
        if i % 3 != 0:
            b.kernel(device=dev)
        b.d2h(host, daddr, content_hash=1 + (i % 2), device=dev)
        b.delete(host, daddr, device=dev)
    return b.build()


@pytest.mark.parametrize("jobs", [1, 3])
def test_analyze_stream_matches_analyze_trace(tmp_path, jobs):
    trace = _issue_rich_trace()
    ct = ColumnarTrace.from_trace(trace)
    expected = analyze_trace(trace)
    store = shard_trace(ct, tmp_path / f"t{jobs}.store", shard_events=9)
    report = analyze_stream(store, jobs=jobs)

    assert report.counts == expected.counts
    assert report.potential == expected.potential
    assert report.duplicate_groups == expected.duplicate_groups
    assert report.round_trip_groups == expected.round_trip_groups
    assert report.repeated_alloc_groups == expected.repeated_alloc_groups
    assert report.unused_allocations == expected.unused_allocations
    assert report.unused_transfers == expected.unused_transfers
    # The report's trace view answers the aggregate surface from the manifest
    # and renders without materialising events.
    assert report.trace.summary() == ct.summary()
    assert "Optimization Potential" in report.render()


def test_analyze_stream_rejects_bad_jobs():
    with pytest.raises(ValueError, match="jobs"):
        analyze_stream(as_event_stream(ColumnarTrace()), jobs=0)


# --------------------------------------------------------------------- #
# StreamAnalysisReport (the structured analyze_stream return)
# --------------------------------------------------------------------- #
def test_analyze_stream_returns_structured_report(builder):
    import warnings

    from repro.core.analysis import AnalysisReport, StreamAnalysisReport

    b = builder
    b.alloc(0x100, 0xA000)
    b.h2d(0x100, 0xA000, content_hash=7)
    b.kernel()
    b.h2d(0x100, 0xA000, content_hash=7)
    b.delete(0x100, 0xA000)
    trace = b.build()
    report = analyze_stream(_stream(trace, 3))

    assert isinstance(report, StreamAnalysisReport)
    assert isinstance(report, AnalysisReport)  # drop-in for old callers
    assert report.engine_name == "serial"
    assert isinstance(report.engine_stats, dict)
    timings = report.timings
    assert set(timings) == {"wall_seconds", "engine_seconds", "overhead_seconds"}
    assert timings["wall_seconds"] >= timings["engine_seconds"] >= 0.0
    assert timings["overhead_seconds"] >= 0.0

    by_pass = report.findings_by_pass
    assert list(by_pass) == [
        "duplicate_transfers", "round_trips", "repeated_allocations",
        "unused_allocations", "unused_transfers",
    ]
    assert by_pass["duplicate_transfers"] == report.duplicate_groups
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bool(report)
