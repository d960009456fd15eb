"""Algorithm 2: identify round-trip data transfers.

A round-trip data transfer occurs when device A sends data to device B and
later receives the same unmodified data back from device B (Definition 4.2).
Matching is content based: the return leg carries the same hash as the
outbound leg.

The implementation follows the paper's Algorithm 2: a map of received
transfers keyed by ``(hash, receiving device)`` holding queues in
chronological order; for every transfer event we check whether its *source*
device later receives the same hash, and we dequeue the outbound event from
the received map so that it cannot also be counted as the completion of some
other trip.  One guard is added on top of the published pseudocode: a
candidate return leg must *start after the outbound leg ended* — without it,
a pathological trace in which the same payload reaches a device twice before
ever travelling back could match a return leg that precedes its outbound
leg.  The guard can only remove false positives, never add matches.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Sequence

import numpy as np

from repro.core.detectors._streaming import (
    ColumnBuffer,
    StreamingPass,
    first_missing_hash_seq,
    run_streaming_pass,
)
from repro.core.detectors.findings import RoundTripGroup, RoundTripPair
from repro.core.detectors.table import FindingPart, part_objects
from repro.events.protocol import EventStream
from repro.events.records import DataOpEvent
from repro.events.stream import materialize_data_op_events

CATEGORY = "round_trips"


def find_round_trips(
    data_op_events: Sequence[DataOpEvent],
    *,
    require_chronological: bool = True,
) -> list[RoundTripGroup]:
    """Find round-trip data transfers (Algorithm 2).

    Returns one :class:`RoundTripGroup` per ``(hash, initial device,
    intermediate device)`` triple, in the order the first trip of each group
    completed.
    """
    transfers = [e for e in data_op_events if e.is_transfer]
    for event in transfers:
        if event.content_hash is None:
            raise ValueError(f"transfer event seq={event.seq} is missing its content hash")

    # Map of received transfers: (hash, receiving device) -> queue of events.
    received: dict[tuple[int, int], deque[DataOpEvent]] = defaultdict(deque)
    for event in transfers:
        received[(event.content_hash, event.dest_device_num)].append(event)

    round_trips: dict[tuple[int, int, int], list[RoundTripPair]] = {}
    group_order: list[tuple[int, int, int]] = []

    for tx_event in transfers:
        rx_key = (tx_event.content_hash, tx_event.src_device_num)
        queue = received.get(rx_key)
        if not queue:
            # Not a round trip: the data never travels back to the sender.
            continue

        rx_event = queue[0]
        if require_chronological and rx_event.start_time < tx_event.end_time:
            # The oldest candidate return leg predates this outbound leg;
            # it cannot be the completion of this trip.
            continue

        trip_key = (
            tx_event.content_hash,
            tx_event.src_device_num,
            tx_event.dest_device_num,
        )
        if trip_key not in round_trips:
            round_trips[trip_key] = []
            group_order.append(trip_key)
        round_trips[trip_key].append(RoundTripPair(tx_event=tx_event, rx_event=rx_event))

        # Remove the outbound event from the received map so it is not later
        # counted as the completion of another transfer's round trip.
        tx_key = (tx_event.content_hash, tx_event.dest_device_num)
        tx_queue = received.get(tx_key)
        if tx_queue:
            tx_queue.popleft()

    groups: list[RoundTripGroup] = []
    for key in group_order:
        content_hash, src_device_num, dest_device_num = key
        groups.append(
            RoundTripGroup(
                content_hash=content_hash,
                src_device_num=src_device_num,
                dest_device_num=dest_device_num,
                trips=tuple(round_trips[key]),
            )
        )
    return groups


def _match_trips(
    hashes: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    *,
    require_chronological: bool,
) -> tuple[list[int], list[int], list[int], list[tuple[int, int, int]]]:
    """The queue-matching core of Algorithm 2 over transfer leg arrays.

    Returns, per recorded trip in recording order, its group number,
    outbound index and return index (indices into the inputs), plus the
    ``(hash, src, dst)`` key of every group — groups are numbered in
    first-completion order.

    The oracle's queue semantics are inherently sequential (a recorded
    trip pops the oldest receipt of its outbound key), so the loop stays;
    but a transfer with no matching receipt key has no side effects there,
    so only *candidate* transfers — those whose payload is ever received
    back by their source device — enter the Python loop, and only the receipt
    queues some candidate looks up are built: everything else stays NumPy,
    so memory stays O(transfers × 8 B) plus boxed values for the few
    transfers the loop can touch.
    """
    # Intern the (hash, device) keys: hashes are factorised once and
    # devices are small, so ``hash_id * width + device`` is an exact key id.
    _, hash_id = np.unique(hashes, return_inverse=True)
    width = int(max(int(src.max()), int(dst.max()))) + 1
    rx_id = hash_id * width + src  # the key a return leg of the transfer carries
    tx_id = hash_id * width + dst  # the key the transfer itself is a receipt of
    num_keys = (int(hash_id.max()) + 1) * width

    # A transfer is a candidate iff some receipt carries its (hash, src) key.
    candidates = np.flatnonzero(np.bincount(tx_id, minlength=num_keys)[rx_id] > 0)
    looked_up = np.zeros(num_keys, dtype=bool)
    looked_up[rx_id[candidates]] = True
    num_looked_up = int(looked_up.sum())
    compact = np.full(num_keys, -1, dtype=np.int64)
    compact[looked_up] = np.arange(num_looked_up)

    # Receipt queues of the looked-up keys: for key k, the receipts are
    # queue[queue_start[k] + head], chronological within the key.
    receipts = np.flatnonzero(looked_up[tx_id])
    receipt_key = compact[tx_id[receipts]]
    queue = receipts[np.argsort(receipt_key, kind="stable")]
    queue_len = np.bincount(receipt_key, minlength=num_looked_up)
    queue_start = np.concatenate(([0], np.cumsum(queue_len)[:-1]))

    cand_end = end[candidates].tolist()
    cand_hash = hashes[candidates].tolist()
    cand_src = src[candidates].tolist()
    cand_dst = dst[candidates].tolist()
    cand_rx = compact[rx_id[candidates]].tolist()
    # -1: no candidate ever reads this transfer's receipt queue, so its
    # pop is unobservable and skipped.
    cand_tx = compact[tx_id[candidates]].tolist()
    queue_list = queue.tolist()
    queue_start_time = start[queue].tolist()
    qstart_list = queue_start.tolist()
    len_list = queue_len.tolist()
    heads = [0] * len(len_list)

    group_of: dict[tuple[int, int, int], int] = {}
    group_keys: list[tuple[int, int, int]] = []
    trip_group: list[int] = []
    trip_tx: list[int] = []
    trip_rx: list[int] = []

    for k, i in enumerate(candidates.tolist()):
        rx_key = cand_rx[k]
        head = heads[rx_key]
        if head >= len_list[rx_key]:
            continue  # every receipt of this key has been consumed
        at = qstart_list[rx_key] + head
        if require_chronological and queue_start_time[at] < cand_end[k]:
            continue
        j = queue_list[at]

        trip_key = (cand_hash[k], cand_src[k], cand_dst[k])
        group = group_of.get(trip_key)
        if group is None:
            group = group_of[trip_key] = len(group_keys)
            group_keys.append(trip_key)
        trip_group.append(group)
        trip_tx.append(i)
        trip_rx.append(j)

        tx_key = cand_tx[k]
        if tx_key >= 0 and heads[tx_key] < len_list[tx_key]:
            heads[tx_key] += 1  # popleft: the outbound leg is consumed

    return trip_group, trip_tx, trip_rx, group_keys


def _trips_part(labels: np.ndarray, trip_group, trip_tx, trip_rx, group_keys) -> FindingPart:
    """Trips grouped by key (recording order inside a group, groups in
    first-completion order), with ``labels`` mapping match indices to
    row labels."""
    if not group_keys:
        return FindingPart.empty(CATEGORY)
    group = np.asarray(trip_group, dtype=np.int64)
    order = np.argsort(group, kind="stable")
    tx = labels[np.asarray(trip_tx, dtype=np.int64)[order]]
    rx = labels[np.asarray(trip_rx, dtype=np.int64)[order]]
    sizes = np.bincount(group, minlength=len(group_keys))
    hashes, srcs, dsts = zip(*group_keys)
    return FindingPart.build(
        CATEGORY,
        np.column_stack((tx, rx)),
        np.concatenate(([0], np.cumsum(sizes))),
        content_hash=hashes,
        src_device_num=srcs,
        dest_device_num=dsts,
    )


class RoundTripPass(StreamingPass):
    """Incremental Algorithm 2: fold legs, match at finalize.

    A round trip's return leg typically arrives long after its outbound
    leg, and the queue semantics make *every* transfer a potential receipt
    for a later outbound leg — so the carry here is inherently the pending
    legs themselves.  They are folded shard by shard into six flat arrays
    (hash, devices, start/end, position): ~40 bytes per transfer and no
    Python objects, versus the full event record the object oracle holds
    in memory.  The match loop runs once at finalize over the compact
    arrays and emits the legs of recorded trips as a :class:`FindingPart`.
    """

    weight = 20

    def __init__(self, *, require_chronological: bool = True) -> None:
        self.require_chronological = require_chronological
        self._hash = ColumnBuffer()
        self._src = ColumnBuffer()
        self._dst = ColumnBuffer()
        self._start = ColumnBuffer()
        self._end = ColumnBuffer()
        self._gpos = ColumnBuffer()

    def fold(self, batch, offset: int) -> None:
        tr = np.flatnonzero(batch.transfer_mask())
        if tr.size == 0:
            return
        bad_seq = first_missing_hash_seq(batch, tr)
        if bad_seq is not None:
            raise ValueError(
                f"transfer event seq={bad_seq} is missing its content hash"
            )
        self._hash.append(batch.do_content_hash[tr])
        self._src.append(batch.do_src_device_num[tr])
        self._dst.append(batch.do_dest_device_num[tr])
        self._start.append(batch.do_start_time[tr])
        self._end.append(batch.do_end_time[tr])
        self._gpos.append(offset + tr)

    def finalize(self) -> FindingPart:
        if self._gpos.size == 0:
            return FindingPart.empty(CATEGORY)
        return _trips_part(
            self._gpos.drain(),
            *_match_trips(
                self._hash.drain(),
                self._src.drain(),
                self._dst.drain(),
                self._start.drain(),
                self._end.drain(),
                require_chronological=self.require_chronological,
            ),
        )


def find_round_trips_streaming(
    stream: EventStream,
    *,
    require_chronological: bool = True,
) -> list[RoundTripGroup]:
    """Incremental Algorithm 2 over an event stream."""
    part = run_streaming_pass(RoundTripPass(require_chronological=require_chronological), stream)
    return part_objects(part, materialize_data_op_events(stream, part.labels()))


def count_round_trips(groups: Sequence[RoundTripGroup]) -> int:
    """Total number of completed round trips (the "RT" count of Table 1)."""
    return sum(g.num_trips for g in groups)
