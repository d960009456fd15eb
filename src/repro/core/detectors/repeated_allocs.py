"""Algorithm 3: identify repeated device memory allocations.

A repeated device memory allocation occurs when memory on a target device is
allocated, and subsequently deleted, more than once to accommodate the
mapping of the same variable (Definition 4.3).  Allocation/deletion events
are paired, then grouped by ``(host address, target device, allocation
size)``; the allocation size is part of the key to avoid conflating distinct
variables that happen to reuse the same host address over the program's
lifetime (Section 5.3).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.core.detectors._streaming import (
    ColumnBuffer,
    CompositeKeyCounter,
    StreamingAllocPairer,
    StreamingPass,
    run_streaming_pass,
)
from repro.core.detectors.findings import RepeatedAllocationGroup
from repro.core.detectors.table import FindingPart, part_objects
from repro.events.protocol import EventStream
from repro.events.records import AllocationPair, DataOpEvent, get_alloc_delete_pairs
from repro.events.stream import materialize_data_op_events

CATEGORY = "repeated_allocations"


def find_repeated_allocations(
    data_op_events: Sequence[DataOpEvent],
    *,
    require_deletion: bool = True,
) -> list[RepeatedAllocationGroup]:
    """Find repeated device memory allocations (Algorithm 3).

    Parameters
    ----------
    data_op_events:
        Data-operation events in chronological order.
    require_deletion:
        Per Definition 4.3 an allocation only counts towards a repeat if it
        was also deleted (allocated *and subsequently deleted* more than
        once).  Setting this to ``False`` also counts a trailing allocation
        that is still live at program exit, which is occasionally useful when
        analysing truncated traces.

    Returns
    -------
    One :class:`RepeatedAllocationGroup` per ``(host address, device, size)``
    key with at least two qualifying allocations, ordered by first allocation.
    """
    pairs = get_alloc_delete_pairs(data_op_events)

    grouped: dict[tuple[int, int, int], list[AllocationPair]] = defaultdict(list)
    order: list[tuple[int, int, int]] = []
    for pair in pairs:
        if require_deletion and pair.delete_event is None:
            continue
        key = (pair.host_addr, pair.device_num, pair.nbytes)
        if key not in grouped:
            order.append(key)
        grouped[key].append(pair)

    groups: list[RepeatedAllocationGroup] = []
    for key in order:
        allocations = grouped[key]
        if len(allocations) < 2:
            continue
        host_addr, device_num, nbytes = key
        groups.append(
            RepeatedAllocationGroup(
                host_addr=host_addr,
                device_num=device_num,
                nbytes=nbytes,
                allocations=tuple(allocations),
            )
        )
    return groups


class RepeatedAllocationPass(StreamingPass):
    """Incremental Algorithm 3: fold pairs, finalize to groups.

    Carry state: the open allocations (a :class:`StreamingAllocPairer`,
    O(live mappings)) and a :class:`CompositeKeyCounter` over the
    ``(host address, device, size)`` mapping keys, holding count and first
    pair per key.  Completed pairs are counted as their deletes arrive;
    pairs of keys that reached two members are kept as position pairs
    (O(findings)) and emitted as a :class:`FindingPart` at finalize.
    """

    weight = 40

    def __init__(self, *, require_deletion: bool = True) -> None:
        self.require_deletion = require_deletion
        self._pairer = StreamingAllocPairer(
            alloc_cols=("src_addr", "dest_device_num", "nbytes")
        )
        self._counter = CompositeKeyCounter()
        self._alloc = ColumnBuffer()
        self._delete = ColumnBuffer()
        self._group = ColumnBuffer()
        self._host = ColumnBuffer()
        self._dev = ColumnBuffer()
        self._nbytes = ColumnBuffer()

    def _count(self, pairs) -> None:
        if pairs.size == 0:
            return
        host = pairs.alloc["src_addr"]
        dev = pairs.alloc["dest_device_num"]
        nbytes = pairs.alloc["nbytes"]
        fold = self._counter.fold(
            (host, dev, nbytes), pairs.alloc_gpos, payload=pairs.delete_gpos
        )
        grouped = fold.total_count >= 2
        qualified = np.flatnonzero(grouped[fold.inverse])
        if qualified.size:
            self._alloc.append(pairs.alloc_gpos[qualified])
            self._delete.append(pairs.delete_gpos[qualified])
            self._group.append(fold.key_uid[fold.inverse[qualified]])
            self._host.append(host[qualified])
            self._dev.append(dev[qualified])
            self._nbytes.append(nbytes[qualified])
        crossed = grouped & (fold.prior_count == 1)
        if crossed.any():
            # Recover the key's single retained pair — the one counted
            # while the key was still a singleton (NOT the post-fold
            # minimum: pairs complete in delete order, so this batch's
            # pair may predate the retained one).
            self._alloc.append(fold.prior_first_gpos[crossed])
            self._delete.append(fold.prior_payload[crossed])
            self._group.append(fold.key_uid[crossed])
            self._host.append(fold.keys[0][crossed])
            self._dev.append(fold.keys[1][crossed])
            self._nbytes.append(fold.keys[2][crossed])

    def fold(self, batch, offset: int) -> None:
        self._count(self._pairer.fold(batch, offset))

    def finalize(self) -> FindingPart:
        """Pairs grouped by stable key uid, alloc-ordered inside each
        group; groups in order of their earliest counted pair, matching
        the oracle's first-qualifying-pair ordering."""
        if not self.require_deletion:
            self._count(self._pairer.finalize())
        alloc_gpos = self._alloc.drain()
        return FindingPart.grouped(
            CATEGORY,
            np.column_stack((alloc_gpos, self._delete.drain())),
            self._group.drain(),
            alloc_gpos,
            host_addr=self._host.drain(),
            device_num=self._dev.drain(),
            nbytes=self._nbytes.drain(),
        )


def find_repeated_allocations_streaming(
    stream: EventStream,
    *,
    require_deletion: bool = True,
) -> list[RepeatedAllocationGroup]:
    """Incremental Algorithm 3 over an event stream."""
    part = run_streaming_pass(RepeatedAllocationPass(require_deletion=require_deletion), stream)
    return part_objects(part, materialize_data_op_events(stream, part.labels()))


def count_redundant_allocations(groups: Sequence[RepeatedAllocationGroup]) -> int:
    """Total redundant allocations (the "RA" count of Table 1)."""
    return sum(g.num_redundant for g in groups)
