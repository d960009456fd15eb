"""Targeted tests for the state every detector carries across shard cuts.

Each engine folds a pass over ONE scan of the whole stream, so a pass's
carry is what crosses a shard boundary: the allocation pairer's open
allocations, the key counters' retained singletons, the unused-transfer
epoch and the kernel cursor base.  The scenarios below place a finding's
two halves in different shards — an allocation open across the cut, a
round-trip leg in a later shard, a duplicate key seen once on each side,
nested allocations, an overwrite in a later shard — and every detector
must return the object oracle's findings at every shard size, with each
shard folded on its own and with shards coalesced into one fold batch,
and through every pass-group split the parallel engines run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.detectors._streaming import (
    FOLD_BATCH_EVENTS,
    DeviceKernels,
    fold_batch_target,
)
from repro.core.detectors.duplicates import (
    DuplicateTransferPass,
    find_duplicate_transfers,
    find_duplicate_transfers_streaming,
)
from repro.core.detectors.repeated_allocs import (
    RepeatedAllocationPass,
    find_repeated_allocations,
    find_repeated_allocations_streaming,
)
from repro.core.detectors.roundtrips import (
    RoundTripPass,
    find_round_trips,
    find_round_trips_streaming,
)
from repro.core.detectors.unused_allocs import (
    UnusedAllocationPass,
    find_unused_allocations,
    find_unused_allocations_streaming,
)
from repro.core.detectors.unused_transfers import (
    UnusedTransferPass,
    find_unused_transfers,
    find_unused_transfers_streaming,
)
from repro.core.engine import (
    PassSpec,
    SerialEngine,
    gather_groups,
    pass_groups,
    run_pass_group,
)
from repro.events.columnar import ColumnarTrace
from repro.events.stream import as_event_stream

from tests.conftest import TraceBuilder


def _rich():
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


def _allocation_open():
    """An alloc whose delete lands in a later shard, then the same
    (host, device, size) key again: the pairer's open allocations carry
    the first lifetime across the cut."""
    b = TraceBuilder(num_devices=1)
    b.alloc(0x100, 0xA000, device=0)
    b.idle(1e-4)
    b.delete(0x100, 0xA000, device=0)
    b.alloc(0x100, 0xA000, device=0)
    b.kernel(device=0)                  # overlaps the second lifetime only
    b.delete(0x100, 0xA000, device=0)
    return b.build()


def _nested():
    """The same (device, address) open twice: a delete pops the inner
    allocation, whichever shard the outer one was opened in."""
    b = TraceBuilder(num_devices=1)
    b.alloc(0x100, 0xA000, device=0)
    b.alloc(0x180, 0xA000, device=0)
    b.delete(0x180, 0xA000, device=0)
    b.delete(0x100, 0xA000, device=0)
    b.alloc(0x100, 0xA000, device=0)    # repeat of the outer key
    b.delete(0x100, 0xA000, device=0)
    return b.build()


def _round_trip():
    """The outbound leg in one shard, the return leg in a later one."""
    b = TraceBuilder(num_devices=1)
    b.alloc(0x100, 0xA000, device=0)
    b.h2d(0x100, 0xA000, content_hash=42, device=0)
    b.kernel(device=0)
    b.d2h(0x100, 0xA000, content_hash=42, device=0)
    b.delete(0x100, 0xA000, device=0)
    return b.build()


def _duplicate_singletons():
    """A (hash, device) key seen once on each side of a cut: the counter
    retains the first row as a singleton until the second arrives."""
    b = TraceBuilder(num_devices=1)
    b.alloc(0x100, 0xA000, device=0)
    b.h2d(0x100, 0xA000, content_hash=77, device=0)
    b.kernel(device=0)
    b.h2d(0x100, 0xA000, content_hash=77, device=0)
    b.kernel(device=0)
    b.delete(0x100, 0xA000, device=0)
    return b.build()


def _transfer_epoch():
    """A candidate staged in one shard and overwritten in a later one; the
    trailing transfer lands after the last kernel, in a shard that holds
    no kernel at all."""
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
    return b.build()


SCENARIOS = {
    "rich": _rich,
    "allocation_open": _allocation_open,
    "nested": _nested,
    "round_trip": _round_trip,
    "duplicate_singletons": _duplicate_singletons,
    "transfer_epoch": _transfer_epoch,
}

#: Events per shard: one event per shard puts a cut between every pair of
#: events; the largest size leaves every scenario in one shard.
SHARD_SIZES = (1, 2, 3, 7, 50)


def _oracle(trace) -> dict:
    data_ops, targets, n = trace.data_op_events, trace.target_events, trace.num_devices
    return {
        "duplicates": find_duplicate_transfers(data_ops),
        "roundtrips": find_round_trips(data_ops),
        "repeated": find_repeated_allocations(data_ops),
        "unused_allocs": find_unused_allocations(targets, data_ops, n),
        "unused_transfers": find_unused_transfers(targets, data_ops, n),
    }


def _streaming(stream, num_devices: int) -> dict:
    return {
        "duplicates": find_duplicate_transfers_streaming(stream),
        "roundtrips": find_round_trips_streaming(stream),
        "repeated": find_repeated_allocations_streaming(stream),
        "unused_allocs": find_unused_allocations_streaming(stream, num_devices),
        "unused_transfers": find_unused_transfers_streaming(stream, num_devices),
    }


def _specs(num_devices: int) -> tuple[PassSpec, ...]:
    return (
        PassSpec(DuplicateTransferPass),
        PassSpec(RoundTripPass),
        PassSpec(RepeatedAllocationPass),
        PassSpec(UnusedAllocationPass, {"num_devices": num_devices}),
        PassSpec(UnusedTransferPass, {"num_devices": num_devices}),
    )


@pytest.mark.parametrize("shard_events", SHARD_SIZES)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_findings_survive_every_shard_cut(scenario, shard_events):
    trace = SCENARIOS[scenario]()
    expected = _oracle(trace)
    stream = as_event_stream(ColumnarTrace.from_trace(trace), shard_events)
    num_devices = max(trace.num_devices, 1)
    for fold in (1, FOLD_BATCH_EVENTS):
        with fold_batch_target(fold):
            got = _streaming(stream, num_devices)
        for name in expected:
            assert got[name] == expected[name], (
                f"{name}: {shard_events} events per shard, fold target {fold}"
            )

    # The pass groups of the parallel engines: every split folds each pass
    # over the whole scan, so the gathered table is the serial one.
    specs = _specs(num_devices)
    serial = SerialEngine().run(specs, stream)
    with fold_batch_target(1):
        for jobs in range(1, len(specs) + 1):
            groups = pass_groups(specs, jobs)
            landed = {
                position: run_pass_group(stream, [specs[i] for i in group])
                for position, group in enumerate(groups)
            }
            assert gather_groups(specs, groups, landed, stream) == serial, jobs


@pytest.mark.parametrize(
    "scenario, finding, count",
    [
        ("allocation_open", "repeated", 1),
        ("allocation_open", "unused_allocs", 1),
        ("nested", "repeated", 1),
        ("round_trip", "roundtrips", 1),
        ("duplicate_singletons", "duplicates", 1),
        ("transfer_epoch", "unused_transfers", 2),
    ],
)
def test_scenario_produces_its_boundary_finding(scenario, finding, count):
    """Each scenario really holds the finding whose halves the cuts split,
    so the shard-cut test above cannot pass on empty results."""
    assert len(_oracle(SCENARIOS[scenario]())[finding]) == count


def test_transfer_epoch_reasons():
    found = _oracle(_transfer_epoch())["unused_transfers"]
    assert sorted(f.reason for f in found) == ["after_last_kernel", "overwritten"]


def test_device_kernels_running_max_carries_across_extends():
    """A later shard's kernels keep the cursor base monotone: its running
    max starts from the largest end seen in earlier shards."""
    kernels = DeviceKernels()
    kernels.extend(np.array([0.0, 1.0]), np.array([10.0, 2.0]))
    kernels.extend(np.array([3.0, 4.0]), np.array([5.0, 6.0]))
    assert kernels.count == 4
    assert kernels.runmax.view().tolist() == [10.0, 10.0, 10.0, 10.0]
    assert kernels.last == 10.0

    kernels.extend(np.array([7.0]), np.array([20.0]))
    assert kernels.runmax.view().tolist() == [10.0, 10.0, 10.0, 10.0, 20.0]
    assert kernels.start.view().tolist() == [0.0, 1.0, 3.0, 4.0, 7.0]
    assert kernels.last == 20.0

    kernels.extend(np.array([]), np.array([]))  # a shard without kernels
    assert kernels.count == 5 and kernels.last == 20.0
