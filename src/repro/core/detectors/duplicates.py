"""Algorithm 1: identify duplicate data transfers.

A duplicate data transfer occurs when a device (or the host) receives data
it had previously received (Definition 4.1).  Detection is content based:
transfers are grouped by ``(content hash, destination device)`` and any group
with two or more members is a duplicate group.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.core.detectors._streaming import (
    ColumnBuffer,
    CompositeKeyCounter,
    StreamingPass,
    first_missing_hash_seq,
    run_streaming_pass,
)
from repro.core.detectors.findings import DuplicateTransferGroup
from repro.core.detectors.table import FindingPart, part_objects
from repro.events.protocol import EventStream
from repro.events.records import DataOpEvent
from repro.events.stream import materialize_data_op_events

CATEGORY = "duplicate_transfers"


def find_duplicate_transfers(
    data_op_events: Sequence[DataOpEvent],
    *,
    min_bytes: int = 0,
) -> list[DuplicateTransferGroup]:
    """Find duplicate data transfers (Algorithm 1).

    Parameters
    ----------
    data_op_events:
        Data-operation events in chronological order (non-transfer events
        are ignored).
    min_bytes:
        Ignore transfers smaller than this many bytes.  The paper's tool
        reports everything; the threshold exists so callers can filter the
        scalar-sized noise when exploring large traces interactively.

    Returns
    -------
    One :class:`DuplicateTransferGroup` per ``(hash, destination device)``
    pair that received the same payload at least twice, ordered by the first
    receipt.
    """
    if min_bytes < 0:
        raise ValueError("min_bytes cannot be negative")

    received: dict[tuple[int, int], list[DataOpEvent]] = defaultdict(list)
    first_seen_order: list[tuple[int, int]] = []

    for event in data_op_events:
        if not event.is_transfer or event.nbytes < min_bytes:
            continue
        if event.content_hash is None:
            raise ValueError(f"transfer event seq={event.seq} is missing its content hash")
        key = (event.content_hash, event.dest_device_num)
        if key not in received:
            first_seen_order.append(key)
        received[key].append(event)

    groups: list[DuplicateTransferGroup] = []
    for key in first_seen_order:
        events = received[key]
        if len(events) < 2:
            continue
        content_hash, dest_device_num = key
        groups.append(
            DuplicateTransferGroup(
                content_hash=content_hash,
                dest_device_num=dest_device_num,
                events=tuple(events),
            )
        )
    return groups


class DuplicateTransferPass(StreamingPass):
    """Incremental Algorithm 1: fold shards, finalize to groups.

    Findings are identical to the object oracle.  Carry state is a
    :class:`CompositeKeyCounter` over ``(hash, destination device)`` —
    count and first position per distinct key, the streaming analogue of
    the native tool's hash map — plus the positions of members of keys
    that reached the group threshold (O(findings)).  When a key crosses
    from one member to two, its retained first position is pulled into the
    member set, so no rescan is needed for counting; finalize emits the
    members as a :class:`FindingPart` (events are gathered once, for all
    passes, by the engine).
    """

    weight = 49

    def __init__(self, *, min_bytes: int = 0) -> None:
        if min_bytes < 0:
            raise ValueError("min_bytes cannot be negative")
        self.min_bytes = min_bytes
        self._counter = CompositeKeyCounter()
        self._gpos = ColumnBuffer()
        self._group = ColumnBuffer()  # stable uid of the member's key
        self._hash = ColumnBuffer()
        self._dest = ColumnBuffer()

    def fold(self, batch, offset: int) -> None:
        mask = batch.transfer_mask()
        if self.min_bytes:
            mask &= batch.do_nbytes >= self.min_bytes
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return
        bad_seq = first_missing_hash_seq(batch, idx)
        if bad_seq is not None:
            raise ValueError(
                f"transfer event seq={bad_seq} is missing its content hash"
            )
        hashes = batch.do_content_hash[idx]
        dests = batch.do_dest_device_num[idx]
        gpos = offset + idx
        fold = self._counter.fold((hashes, dests), gpos)

        grouped = fold.total_count >= 2
        qualified = np.flatnonzero(grouped[fold.inverse])
        if qualified.size:
            self._gpos.append(gpos[qualified])
            self._group.append(fold.key_uid[fold.inverse[qualified]])
            self._hash.append(hashes[qualified])
            self._dest.append(dests[qualified])
        crossed = grouped & (fold.prior_count == 1)
        if crossed.any():
            # The key's single retained member (counted while the key was
            # still a singleton) joins the group now.
            self._gpos.append(fold.prior_first_gpos[crossed])
            self._group.append(fold.key_uid[crossed])
            self._hash.append(fold.keys[0][crossed])
            self._dest.append(fold.keys[1][crossed])

    def finalize(self) -> FindingPart:
        """Members grouped by stable key uid, chronological inside each
        group; groups in order of their first (earliest) member, matching
        the oracle's first-occurrence ordering."""
        gpos = self._gpos.drain()
        return FindingPart.grouped(
            CATEGORY,
            gpos,
            self._group.drain(),
            gpos,
            content_hash=self._hash.drain(),
            dest_device_num=self._dest.drain(),
        )


def find_duplicate_transfers_streaming(
    stream: EventStream,
    *,
    min_bytes: int = 0,
) -> list[DuplicateTransferGroup]:
    """Incremental Algorithm 1 over an event stream (one shard at a time)."""
    part = run_streaming_pass(DuplicateTransferPass(min_bytes=min_bytes), stream)
    return part_objects(part, materialize_data_op_events(stream, part.labels()))


def count_redundant_transfers(groups: Sequence[DuplicateTransferGroup]) -> int:
    """Total number of redundant transfer events across all duplicate groups.

    This is the "DD" count reported in Table 1: every receipt beyond the
    first in each group.
    """
    return sum(g.num_redundant for g in groups)
