"""Algorithm 4: identify unused device memory allocations.

A data mapping is unused when the device never reads the copied data nor
uses the allocated region during the mapping's lifetime (Definition 4.4).
Without memory-access instrumentation only a subset is provable: an
allocation whose lifetime does not intersect the execution of *any* kernel
on its device cannot possibly have been used.  Algorithm 4 finds exactly
those, per device, with a linear merge of the chronologically sorted kernel
and allocation lists.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.detectors._streaming import (
    ColumnBuffer,
    DeviceKernels,
    StreamingAllocPairer,
    StreamingPass,
    run_streaming_pass,
)
from repro.core.detectors.findings import UnusedAllocation
from repro.core.detectors.table import FindingPart, part_objects
from repro.events.protocol import EventStream
from repro.events.records import (
    AllocationPair,
    DataOpEvent,
    TargetEvent,
    get_alloc_delete_pairs,
)
from repro.events.stream import materialize_data_op_events

CATEGORY = "unused_allocations"


def find_unused_allocations(
    target_events: Sequence[TargetEvent],
    data_op_events: Sequence[DataOpEvent],
    num_devices: int,
    *,
    trace_end: Optional[float] = None,
) -> list[UnusedAllocation]:
    """Find unused device memory allocations (Algorithm 4).

    Parameters
    ----------
    target_events:
        Target events in chronological order; only kernel-executing events
        participate (enter/exit data and update regions do not use mappings).
    data_op_events:
        Data-operation events in chronological order.
    num_devices:
        Number of target devices in the trace.
    trace_end:
        Lifetime end used for allocations never deleted; defaults to the
        latest event end time.
    """
    if num_devices < 1:
        raise ValueError("num_devices must be at least 1")

    alloc_pairs = get_alloc_delete_pairs(data_op_events)
    if trace_end is None:
        trace_end = 0.0
        for ev in data_op_events:
            trace_end = max(trace_end, ev.end_time)
        for ev in target_events:
            trace_end = max(trace_end, ev.end_time)

    # Sort events by device (chronological order is preserved inside buckets).
    device_kernels: list[list[TargetEvent]] = [[] for _ in range(num_devices)]
    for ev in target_events:
        if ev.executes_kernel and 0 <= ev.device_num < num_devices:
            device_kernels[ev.device_num].append(ev)

    device_allocs: list[list[AllocationPair]] = [[] for _ in range(num_devices)]
    for pair in alloc_pairs:
        if 0 <= pair.device_num < num_devices:
            device_allocs[pair.device_num].append(pair)

    unused: list[UnusedAllocation] = []
    for dev_idx in range(num_devices):
        kernels = device_kernels[dev_idx]
        allocs = device_allocs[dev_idx]
        tgt_idx = 0
        for pair in allocs:
            life_start, life_end = pair.lifetime(trace_end)
            # Skip kernels that finished before this allocation began.  The
            # allocation list is chronological by allocation start, so the
            # cursor never needs to move backwards.
            while tgt_idx < len(kernels) and kernels[tgt_idx].end_time < life_start:
                tgt_idx += 1
            if tgt_idx == len(kernels) or kernels[tgt_idx].start_time > life_end:
                unused.append(UnusedAllocation(pair=pair))
    return unused


class UnusedAllocationPass(StreamingPass):
    """Incremental Algorithm 4: fold pairs and kernels, decide early.

    Carry state per device: the kernel start times with the running maximum
    of kernel end times (the ``searchsorted`` cursor base), plus the pairs
    whose verdict still depends on the future.  A completed pair is decided
    as soon as some kernel's running-max end reaches its lifetime start —
    the cursor is final from that point on — and discarded unless unused;
    pairs deleted but never reached stay pending, and allocations never
    deleted live in the pairer's open set until finalize, where the trace
    end closes their lifetimes exactly as the batch oracles do.  The
    decisions are final because the pass folds from the stream head, so
    every earlier kernel has been folded.
    """

    weight = 22

    def __init__(
        self, num_devices: int, *, trace_end: Optional[float] = None
    ) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        self.num_devices = num_devices
        self.trace_end = trace_end
        self._pairer = StreamingAllocPairer(
            alloc_cols=("dest_device_num", "start_time"), delete_cols=("end_time",)
        )
        self._kernels = [DeviceKernels() for _ in range(num_devices)]
        # pending per device: (alloc_gpos, delete_gpos, life_start, life_end)
        self._pending = [
            (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.float64),
            )
            for _ in range(num_devices)
        ]
        self._found_alloc = [ColumnBuffer() for _ in range(num_devices)]
        self._found_delete = [ColumnBuffer() for _ in range(num_devices)]
        self._folded_end = 0.0

    def _decide(self, dev: int, final: bool) -> None:
        p_alloc, p_delete, p_start, p_end = self._pending[dev]
        if p_alloc.size == 0:
            return
        dk = self._kernels[dev]
        cursor = np.searchsorted(dk.runmax.view(), p_start, side="left")
        resolved = cursor < dk.count
        if dk.count:
            clamped = np.minimum(cursor, dk.count - 1)
            starts_after = resolved & (dk.start.view()[clamped] > p_end)
        else:
            starts_after = np.zeros(p_alloc.size, dtype=bool)
        if final:
            unused = ~resolved | starts_after
            keep = np.zeros(p_alloc.size, dtype=bool)
        else:
            unused = starts_after
            keep = ~resolved
        if unused.any():
            self._found_alloc[dev].append(p_alloc[unused])
            self._found_delete[dev].append(p_delete[unused])
        self._pending[dev] = (
            p_alloc[keep], p_delete[keep], p_start[keep], p_end[keep]
        )

    def _enqueue(self, dev, alloc_gpos, delete_gpos, life_start, life_end) -> None:
        old = self._pending[dev]
        self._pending[dev] = (
            np.concatenate([old[0], alloc_gpos]),
            np.concatenate([old[1], delete_gpos]),
            np.concatenate([old[2], life_start]),
            np.concatenate([old[3], life_end]),
        )

    def fold(self, batch, offset: int) -> None:
        num_devices = self.num_devices
        self._folded_end = max(self._folded_end, batch.end_time)
        pairs = self._pairer.fold(batch, offset)

        kmask = batch.kernel_mask()
        k_dev = batch.tgt_device_num[kmask]
        k_start = batch.tgt_start_time[kmask]
        k_end = batch.tgt_end_time[kmask]

        touched = set()
        if pairs.size:
            p_dev = pairs.alloc["dest_device_num"]
            for dev in np.unique(p_dev).tolist():
                if not 0 <= dev < num_devices:
                    continue
                on_dev = p_dev == dev
                self._enqueue(
                    dev,
                    pairs.alloc_gpos[on_dev],
                    pairs.delete_gpos[on_dev],
                    pairs.alloc["start_time"][on_dev],
                    pairs.delete["end_time"][on_dev],
                )
                touched.add(dev)
        if k_dev.size:
            for dev in np.unique(k_dev).tolist():
                if not 0 <= dev < num_devices:
                    continue
                on_dev = k_dev == dev
                self._kernels[dev].extend(k_start[on_dev], k_end[on_dev])
                touched.add(dev)
        for dev in touched:
            self._decide(dev, final=False)

    def finalize(self) -> FindingPart:
        num_devices = self.num_devices
        trace_end = self.trace_end if self.trace_end is not None else self._folded_end
        open_pairs = self._pairer.finalize()
        if open_pairs.size:
            o_dev = open_pairs.alloc["dest_device_num"]
            for dev in np.unique(o_dev).tolist():
                if not 0 <= dev < num_devices:
                    continue
                on_dev = o_dev == dev
                n_open = int(on_dev.sum())
                self._enqueue(
                    dev,
                    open_pairs.alloc_gpos[on_dev],
                    np.full(n_open, -1, dtype=np.int64),
                    open_pairs.alloc["start_time"][on_dev],
                    np.full(n_open, trace_end, dtype=np.float64),
                )
        for dev in range(num_devices):
            self._decide(dev, final=True)

        found: list[np.ndarray] = []
        for dev in range(num_devices):
            alloc_gpos = self._found_alloc[dev].drain()
            delete_gpos = self._found_delete[dev].drain()
            order = np.argsort(alloc_gpos, kind="stable")
            found.append(np.column_stack((alloc_gpos[order], delete_gpos[order])))
        return FindingPart.build(CATEGORY, np.concatenate(found))


def find_unused_allocations_streaming(
    stream: EventStream,
    num_devices: Optional[int] = None,
    *,
    trace_end: Optional[float] = None,
) -> list[UnusedAllocation]:
    """Incremental Algorithm 4 over an event stream."""
    if num_devices is None:
        num_devices = stream.num_devices
    part = run_streaming_pass(UnusedAllocationPass(num_devices, trace_end=trace_end), stream)
    return part_objects(part, materialize_data_op_events(stream, part.labels()))
