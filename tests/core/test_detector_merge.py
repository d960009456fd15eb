"""Targeted tests for the per-detector partition-merge contracts.

The execution engines fold disjoint contiguous shard ranges on independent
workers and combine the carries with ``StreamingPass.merge``.  These tests
pin the contracts down without any engine in the loop: a stream is folded
in two (or three) deferred-mode partition passes, merged, finalized, and
the findings must be identical to the sequential streaming fold — at every
possible cut point, and specifically at the boundary cases each contract
exists for (an allocation open across the cut, a round-trip leg split
across partitions, a duplicate key counted once on each side, an empty
partition, nested allocations spanning the cut).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.detectors._streaming import DeviceKernels
from repro.core.detectors.duplicates import (
    DuplicateTransferPass,
    find_duplicate_transfers_streaming,
)
from repro.core.detectors.repeated_allocs import (
    RepeatedAllocationPass,
    find_repeated_allocations_streaming,
)
from repro.core.detectors.roundtrips import (
    RoundTripPass,
    find_round_trips_streaming,
)
from repro.core.detectors.unused_allocs import (
    UnusedAllocationPass,
    find_unused_allocations_streaming,
)
from repro.core.detectors.table import part_objects
from repro.core.detectors.unused_transfers import (
    UnusedTransferPass,
    find_unused_transfers_streaming,
)
from repro.events.columnar import ColumnarTrace
from repro.events.stream import as_event_stream, materialize_data_op_events

from tests.conftest import TraceBuilder


def _pass_builders(num_devices: int):
    return {
        "duplicates": DuplicateTransferPass,
        "roundtrips": RoundTripPass,
        "repeated": RepeatedAllocationPass,
        "unused_allocs": lambda: UnusedAllocationPass(num_devices),
        "unused_transfers": lambda: UnusedTransferPass(num_devices),
    }


def _sequential(stream, num_devices: int):
    return {
        "duplicates": find_duplicate_transfers_streaming(stream),
        "roundtrips": find_round_trips_streaming(stream),
        "repeated": find_repeated_allocations_streaming(stream),
        "unused_allocs": find_unused_allocations_streaming(stream, num_devices),
        "unused_transfers": find_unused_transfers_streaming(stream, num_devices),
    }


def _fold_partitioned(build, stream, cuts: tuple[int, ...]):
    """Fold one pass per partition (deferred mode), merge left to right."""
    batches = list(stream.batches())
    offsets = [0]
    for batch in batches:
        offsets.append(offsets[-1] + batch.num_data_op_events)
    bounds = [0, *cuts, len(batches)]
    partitions = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        pass_ = build()
        pass_.eager = False
        for index in range(lo, hi):
            pass_.fold(batches[index], offsets[index])
        partitions.append(pass_)
    head = partitions[0]
    for tail in partitions[1:]:
        head.merge(tail)
    part = head.finalize()
    return part_objects(part, materialize_data_op_events(stream, part.labels()))


def _assert_partitioned_matches(trace, shard_events: int, cuts: tuple[int, ...]):
    ct = ColumnarTrace.from_trace(trace) if not isinstance(trace, ColumnarTrace) else trace
    stream = as_event_stream(ct, shard_events)
    num_devices = max(ct.num_devices, 1)
    expected = _sequential(stream, num_devices)
    for name, build in _pass_builders(num_devices).items():
        got = _fold_partitioned(build, stream, cuts)
        assert got == expected[name], (
            f"{name}: partitioned fold (cuts={cuts}, shard_events="
            f"{shard_events}) differs from the sequential streaming fold"
        )


def _rich_trace():
    """One trace that produces findings for all five detectors."""
    b = TraceBuilder(num_devices=2)
    b.alloc(0x100, 0xA000, device=0)
    b.h2d(0x100, 0xA000, content_hash=5, device=0)
    b.kernel(device=0)
    b.h2d(0x100, 0xA000, content_hash=5, device=0)      # duplicate transfer
    b.d2h(0x100, 0xA000, content_hash=5, device=0)      # round-trip return
    b.alloc(0x200, 0xB000, device=1)
    b.h2d(0x200, 0xB000, content_hash=7, device=1)
    b.h2d(0x200, 0xB000, content_hash=9, device=1)      # overwrites hash 7
    b.kernel(device=1)
    b.delete(0x200, 0xB000, device=1)
    b.alloc(0x200, 0xB000, device=1)                    # repeated mapping key
    b.delete(0x200, 0xB000, device=1)
    b.alloc(0x300, 0xC000, device=0)                    # kernel-free lifetime
    b.delete(0x300, 0xC000, device=0)
    b.h2d(0x100, 0xA000, content_hash=11, device=0)     # after the last kernel
    b.delete(0x100, 0xA000, device=0)
    return b.build()


def test_every_cut_matches_sequential():
    """Two-partition merge equals the sequential fold at every cut point."""
    trace = _rich_trace()
    for shard_events in (1, 3, 7, 50):
        num_batches = len(list(as_event_stream(
            ColumnarTrace.from_trace(trace), shard_events).batches()))
        for cut in range(num_batches + 1):
            _assert_partitioned_matches(trace, shard_events, (cut,))


def test_three_partition_chain_matches_sequential():
    trace = _rich_trace()
    stream = as_event_stream(ColumnarTrace.from_trace(trace), 2)
    num_batches = len(list(stream.batches()))
    assert num_batches >= 4
    third = num_batches // 3
    _assert_partitioned_matches(trace, 2, (third, 2 * third))


def test_empty_partition_merges_are_identity():
    """Merging a never-folded pass on either side changes nothing."""
    trace = _rich_trace()
    num_batches = len(list(as_event_stream(
        ColumnarTrace.from_trace(trace), 3).batches()))
    # cut 0: the first partition is empty; cut num_batches: the second is.
    _assert_partitioned_matches(trace, 3, (0,))
    _assert_partitioned_matches(trace, 3, (num_batches,))
    _assert_partitioned_matches(trace, 3, (0, num_batches))


def test_allocation_open_across_the_cut():
    """An alloc in partition A whose delete lands in partition B.

    Exercises the pairer's pending-delete stitching for both passes that
    pair allocations: the repeated-allocation group must still form, and
    the unused-allocation verdict must still consider the full lifetime.
    """
    b = TraceBuilder(num_devices=1)
    b.alloc(0x100, 0xA000, device=0)    # batch 0 (shard_events=2 => 1 batch/2 events)
    b.idle(1e-4)
    b.delete(0x100, 0xA000, device=0)   # pairs across any cut in between
    b.alloc(0x100, 0xA000, device=0)    # same (host, device, size) key again
    b.kernel(device=0)                  # overlaps the second lifetime only
    b.delete(0x100, 0xA000, device=0)
    trace = b.build()
    stream = as_event_stream(ColumnarTrace.from_trace(trace), 1)
    num_batches = len(list(stream.batches()))
    for cut in range(num_batches + 1):
        _assert_partitioned_matches(trace, 1, (cut,))
    # Sanity: the scenario really produces the boundary findings.
    assert len(find_repeated_allocations_streaming(stream)) == 1
    assert len(find_unused_allocations_streaming(stream, 1)) == 1


def test_nested_allocations_across_the_cut():
    """LIFO stitching when the same (device, address) is open twice."""
    b = TraceBuilder(num_devices=1)
    b.alloc(0x100, 0xA000, device=0)
    b.alloc(0x180, 0xA000, device=0)    # nested: same device address
    b.delete(0x180, 0xA000, device=0)   # must pop the inner allocation
    b.delete(0x100, 0xA000, device=0)
    b.alloc(0x100, 0xA000, device=0)    # repeat of the outer key
    b.delete(0x100, 0xA000, device=0)
    trace = b.build()
    stream = as_event_stream(ColumnarTrace.from_trace(trace), 1)
    num_batches = len(list(stream.batches()))
    for cut in range(num_batches + 1):
        _assert_partitioned_matches(trace, 1, (cut,))
    assert len(find_repeated_allocations_streaming(stream)) == 1


def test_round_trip_legs_split_across_partitions():
    """Outbound leg in partition A, return leg in partition B."""
    b = TraceBuilder(num_devices=1)
    b.alloc(0x100, 0xA000, device=0)
    b.h2d(0x100, 0xA000, content_hash=42, device=0)   # outbound
    b.kernel(device=0)
    b.d2h(0x100, 0xA000, content_hash=42, device=0)   # return, later batch
    b.delete(0x100, 0xA000, device=0)
    trace = b.build()
    stream = as_event_stream(ColumnarTrace.from_trace(trace), 1)
    num_batches = len(list(stream.batches()))
    for cut in range(num_batches + 1):
        _assert_partitioned_matches(trace, 1, (cut,))
    assert len(find_round_trips_streaming(stream)) == 1


def test_duplicate_singletons_promote_across_the_cut():
    """A (hash, device) key counted once on each side of the cut.

    Neither partition records members (both are below the group
    threshold); the merge must recover both retained rows from the key
    tables — the promotion half of the CompositeKeyCounter contract.
    """
    b = TraceBuilder(num_devices=1)
    b.alloc(0x100, 0xA000, device=0)
    b.h2d(0x100, 0xA000, content_hash=77, device=0)
    b.kernel(device=0)
    b.h2d(0x100, 0xA000, content_hash=77, device=0)
    b.kernel(device=0)
    b.delete(0x100, 0xA000, device=0)
    trace = b.build()
    stream = as_event_stream(ColumnarTrace.from_trace(trace), 2)
    groups = find_duplicate_transfers_streaming(stream)
    assert len(groups) == 1 and len(groups[0].events) == 2
    num_batches = len(list(stream.batches()))
    for cut in range(num_batches + 1):
        _assert_partitioned_matches(trace, 2, (cut,))


def test_unused_transfer_epoch_spans_the_cut():
    """Candidate staged in partition A, overwritten in partition B.

    The open epoch (surviving candidates, previous cursor) must splice
    across the merge for the overwrite to be detected; the trailing
    transfer lands after the last kernel and must classify as such even
    though its partition contains no kernel at all.
    """
    b = TraceBuilder(num_devices=1)
    b.alloc(0x100, 0xA000, device=0)
    b.kernel(device=0)
    b.idle(1e-5)                                     # clear of the kernel
    b.h2d(0x100, 0xA000, content_hash=1, device=0)   # candidate
    b.h2d(0x100, 0xA000, content_hash=2, device=0)   # overwrites it
    b.idle(1e-5)
    b.kernel(device=0)
    b.idle(1e-5)
    b.h2d(0x100, 0xA000, content_hash=3, device=0)   # after the last kernel
    b.delete(0x100, 0xA000, device=0)
    trace = b.build()
    stream = as_event_stream(ColumnarTrace.from_trace(trace), 1)
    findings = find_unused_transfers_streaming(stream, 1)
    assert sorted(f.reason for f in findings) == ["after_last_kernel", "overwritten"]
    num_batches = len(list(stream.batches()))
    for cut in range(num_batches + 1):
        _assert_partitioned_matches(trace, 1, (cut,))


def test_merge_rejects_eager_right_hand_side():
    """The absorbed pass must have deferred its classifications."""
    left = UnusedAllocationPass(1)
    right = UnusedAllocationPass(1)   # eager by default
    with pytest.raises(ValueError, match="eager=False"):
        left.merge(right)
    left = UnusedTransferPass(1)
    right = UnusedTransferPass(1)
    with pytest.raises(ValueError, match="eager=False"):
        left.merge(right)


def test_device_kernels_merge_rebases_running_max():
    """The later partition's cursor base lifts to the earlier maximum."""
    a = DeviceKernels()
    a.extend(np.array([0.0, 1.0]), np.array([10.0, 2.0]))   # runmax [10, 10]
    b = DeviceKernels()
    b.extend(np.array([3.0, 4.0]), np.array([5.0, 6.0]))    # local runmax [5, 6]
    a.merge(b)
    assert a.count == 4
    assert a.runmax.view().tolist() == [10.0, 10.0, 10.0, 10.0]
    assert a.last == 10.0

    c = DeviceKernels()
    c.extend(np.array([7.0]), np.array([20.0]))
    a.merge(c)
    assert a.runmax.view().tolist() == [10.0, 10.0, 10.0, 10.0, 20.0]
    assert a.last == 20.0

    empty = DeviceKernels()
    a.merge(empty)
    assert a.count == 5
    empty.merge(a)
    assert empty.count == 5 and empty.last == 20.0
