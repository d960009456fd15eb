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
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.detectors._streaming import (
    ColumnBuffer,
    StreamingPass,
    first_missing_hash_seq,
    mix_keys,
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


#: The fewest items one vectorised step is worth: lockstep rounds run while
#: at least this many hashes have a candidate left, and a two-key hash
#: needs this many candidates for its own path.
_VECTOR_MIN = 64


def _maybe_in_trips(hashes: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Indices of the transfers that can be a leg of some round trip.

    A leg shares its hash with its other leg, unless it is its own return
    leg (``src == dst``).  Rows are bucketed by the top bits of their
    hash's :func:`mix_keys` (2–4 buckets per transfer); a row alone in its
    bucket has a hash no other row carries.  So the result is an exact
    superset of the repeated hashes' rows, at the cost of one ``bincount``.
    """
    bits = len(hashes).bit_length() + 1
    bucket = (mix_keys((hashes,)) >> np.uint64(64 - bits)).view(np.int64)
    shared = (np.bincount(bucket, minlength=1 << bits) > 1)[bucket]
    return np.flatnonzero(shared | (src == dst))


class _Queues(NamedTuple):
    """The receipt queues of the keys some candidate looks up.

    Transfer ``i`` looks up key ``rx_key[i]`` and is a receipt of key
    ``tx_key[i]``; the receipts of key ``k`` are ``queue[first[k] +
    head]``, chronological within the key.  Keys no candidate looks up
    share the last id, whose queue is empty and never read.  A head at or
    past its queue's end means the queue is drained, so a pop never
    checks it.
    """

    rx_key: np.ndarray
    tx_key: np.ndarray
    queue: np.ndarray
    first: np.ndarray
    length: np.ndarray


def _match_trips(
    hashes: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    *,
    require_chronological: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The queue-matching core of Algorithm 2 over transfer leg arrays.

    Returns, per recorded trip (in no particular order), its outbound and
    return index into the inputs and its group id, equal for the trips of
    one ``(hash, src, dst)`` key.  The oracle records trips in outbound
    order (each transfer is the outbound leg of at most one trip), so the
    recording order and the groups' first-completion order follow from
    the outbound indices alone.

    The oracle's queues are sequential (a recorded trip pops the oldest
    receipt of its outbound key), but no queue is shared by two hashes,
    and a transfer whose payload never comes back to its source device
    has no side effect.  So only *candidate* transfers — those with a
    receipt of their ``(hash, src)`` key — are matched, each hash along
    one of three paths:

    * **lockstep rounds** (:func:`_match_lockstep`) for every hash with
      at most as many candidates as the ``_VECTOR_MIN``-th busiest hash;
    * **two-key hashes** (:func:`_match_pair`): a busier hash with at
      least ``_VECTOR_MIN`` candidates whose legs all go ``A -> B`` or
      ``B -> A``, with the chronology guard on;
    * **the exact loop** (:func:`_match_exact`) for every other hash
      (three or more keys, a ``src == dst`` leg, no chronology guard).
    """
    no_trips = np.empty(0, dtype=np.int64)
    if hashes.size == 0:
        return no_trips, no_trips, no_trips
    # Intern the (hash, device) keys: hashes are factorised once and
    # devices are small, so ``hash_id * width - low + device`` is an exact
    # key id (``low`` shifts a negative device, e.g. ``omp_initial_device``).
    _, hash_id = np.unique(hashes, return_inverse=True)
    num_hashes = int(hash_id.max()) + 1
    low = min(int(src.min()), int(dst.min()))
    width = max(int(src.max()), int(dst.max())) - low + 1
    rx_id = hash_id * width - low + src  # the key a return leg of the transfer carries
    tx_id = hash_id * width - low + dst  # the key the transfer itself is a receipt of
    num_keys = num_hashes * width

    # A transfer is a candidate iff some receipt carries its (hash, src) key.
    candidates = np.flatnonzero(np.bincount(tx_id, minlength=num_keys)[rx_id] > 0)
    looked_up = np.zeros(num_keys, dtype=bool)
    looked_up[rx_id[candidates]] = True
    num_looked_up = int(looked_up.sum())
    compact = np.full(num_keys, num_looked_up, dtype=np.int64)
    compact[looked_up] = np.arange(num_looked_up)
    tx_key = compact[tx_id]
    receipts = np.flatnonzero(looked_up[tx_id])
    length = np.bincount(tx_key[receipts], minlength=num_looked_up + 1)
    queues = _Queues(
        rx_key=compact[rx_id],
        tx_key=tx_key,
        queue=receipts[np.argsort(tx_key[receipts], kind="stable")],
        first=np.cumsum(length) - length,
        length=length,
    )

    cand_hash = hash_id[candidates]
    per_hash = np.bincount(cand_hash, minlength=num_hashes)
    rounds = 0
    if num_hashes >= _VECTOR_MIN:
        rounds = int(np.partition(per_hash, -_VECTOR_MIN)[-_VECTOR_MIN])
    trips = []
    if rounds:
        lock = per_hash[cand_hash] <= rounds
        trips.append(
            _match_lockstep(
                candidates[lock],
                cand_hash[lock],
                queues,
                start,
                end,
                require_chronological=require_chronological,
            )
        )
    exact = per_hash > rounds
    if require_chronological:
        for h in np.flatnonzero(exact & (per_hash >= _VECTOR_MIN)).tolist():
            legs = np.flatnonzero(hash_id == h)
            a, b = src[legs[0]], dst[legs[0]]
            ab = (src[legs] == a) & (dst[legs] == b)
            if a == b or not np.all(ab | ((src[legs] == b) & (dst[legs] == a))):
                continue
            major, minor = legs[ab], legs[~ab]
            if major.size < minor.size:
                major, minor = minor, major
            trips.append(_match_pair(major, minor, start, end))
            exact[h] = False
    if exact.any():
        trips.append(
            _match_exact(
                candidates[exact[cand_hash]],
                queues,
                start,
                end,
                require_chronological=require_chronological,
            )
        )

    if not trips:
        return no_trips, no_trips, no_trips
    tx = np.concatenate([t for t, _ in trips])
    rx = np.concatenate([r for _, r in trips])
    return tx, rx, rx_id[tx] * width + dst[tx]


def _match_lockstep(
    cands, cand_hash, queues: _Queues, start, end, *, require_chronological
) -> tuple[np.ndarray, np.ndarray]:
    """Trips of many hashes at once, one candidate of each per round.

    Round *r* takes the *r*-th candidate of every hash that has one: it
    reads the heads of their receipt queues, checks the chronology guard,
    records the trips and pops their outbound keys.  Within a round every
    hash touches only its own keys, so the round is one set of array ops
    and equals running the hashes' *r*-th steps of the exact loop.
    """
    by_hash = np.argsort(cand_hash, kind="stable")
    new_hash = np.ones(by_hash.size, dtype=bool)
    new_hash[1:] = cand_hash[by_hash[1:]] != cand_hash[by_hash[:-1]]
    rank = np.empty_like(by_hash)  # a candidate's round: its rank in its hash
    rank[by_hash] = np.arange(by_hash.size) - np.flatnonzero(new_hash)[np.cumsum(new_hash) - 1]
    by_round = cands[np.argsort(rank, kind="stable")]
    bounds = np.cumsum(np.bincount(rank)).tolist()
    rx_key, tx_key, queue, first, length = queues
    heads = np.zeros(length.size, dtype=np.int64)
    tx_parts, rx_parts = [], []
    for lo, hi in zip([0] + bounds[:-1], bounds):
        k = by_round[lo:hi]
        key = rx_key[k]
        head = heads[key]
        waiting = head < length[key]
        k = k[waiting]
        j = queue[first[key[waiting]] + head[waiting]]
        if require_chronological:
            fits = ~(start[j] < end[k])
            k, j = k[fits], j[fits]
        tx_parts.append(k)
        rx_parts.append(j)
        heads[tx_key[k]] += 1  # pop the outbound keys, one per hash
    return np.concatenate(tx_parts), np.concatenate(rx_parts)


def _match_pair(major, minor, start, end) -> tuple[np.ndarray, np.ndarray]:
    """Trips of one hash whose legs all go ``A -> B`` (``major``) or
    ``B -> A`` (``minor``, the direction with fewer legs), ``A != B``.

    A major leg reads the head of the minor legs' queue and pops its own;
    a minor leg the other way round.  So the minor queue's head moves only
    on minor trips, and between two minor legs every major leg compares
    its end against the same receipt.  The loop steps over the minor legs
    only: each run of major legs in between is counted at once (its trips
    advance the major head), and the major trips are recorded in one
    vectorised pass after it.  Results equal the exact loop's, with the
    chronology guard on.
    """
    num_major, num_minor = major.size, minor.size
    run = np.searchsorted(minor, major)  # the minor legs ahead of each major leg
    bounds = np.searchsorted(run, np.arange(num_minor + 2))
    major_end = end[major]
    # Per-run extremes (NaN if the run holds one) settle most runs without
    # a slice: all of their legs trip, or none does.
    filled = bounds[1:] > bounds[:-1]
    run_max = np.full(num_minor + 1, np.nan)
    run_min = np.full(num_minor + 1, np.nan)
    run_max[filled] = np.maximum.reduceat(major_end, bounds[:-1][filled])
    run_min[filled] = np.minimum.reduceat(major_end, bounds[:-1][filled])
    run_max, run_min, bounds = run_max.tolist(), run_min.tolist(), bounds.tolist()
    minor_start = start[minor].tolist()
    minor_end = end[minor].tolist()
    major_start = start[major].tolist()

    run_head = [num_minor] * (num_minor + 1)  # minor head during each run
    minor_tx: list[int] = []
    minor_rx: list[int] = []
    head_minor = head_major = 0
    for r in range(num_minor + 1):
        lo, hi = bounds[r], bounds[r + 1]
        if lo < hi and head_minor < num_minor:
            run_head[r] = head_minor
            t = minor_start[head_minor]
            if t >= run_max[r]:
                head_major += hi - lo
            elif not t < run_min[r]:
                head_major += hi - lo - int(np.count_nonzero(major_end[lo:hi] > t))
        if r < num_minor and head_major < num_major and not major_start[head_major] < minor_end[r]:
            minor_tx.append(r)
            minor_rx.append(head_major)
            head_minor += 1

    head = np.asarray(run_head)[run]
    hit = np.flatnonzero(head < num_minor)
    hit = hit[~(major_end[hit] > start[minor[head[hit]]])]
    return (
        np.concatenate((major[hit], minor[minor_tx])),
        np.concatenate((minor[head[hit]], major[minor_rx])),
    )


def _match_exact(
    cands, queues: _Queues, start, end, *, require_chronological
) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's loop over ``cands`` (ascending), one candidate at a time."""
    cand_end = end[cands].tolist()
    cand_rx = queues.rx_key[cands].tolist()
    cand_tx = queues.tx_key[cands].tolist()
    queue = queues.queue.tolist()
    queue_start_time = start[queues.queue].tolist()
    first = queues.first.tolist()
    length = queues.length.tolist()
    heads = [0] * len(length)
    trip_tx: list[int] = []
    trip_rx: list[int] = []
    for k, i in enumerate(cands.tolist()):
        key = cand_rx[k]
        head = heads[key]
        if head >= length[key]:
            continue  # every receipt of this key has been consumed
        at = first[key] + head
        if require_chronological and queue_start_time[at] < cand_end[k]:
            continue
        trip_tx.append(i)
        trip_rx.append(queue[at])
        heads[cand_tx[k]] += 1  # popleft: the outbound leg is consumed
    return np.asarray(trip_tx, dtype=np.int64), np.asarray(trip_rx, dtype=np.int64)


class RoundTripPass(StreamingPass):
    """Incremental Algorithm 2: fold legs, match at finalize.

    A round trip's return leg typically arrives long after its outbound
    leg, and the queue semantics make *every* transfer a potential receipt
    for a later outbound leg — so the carry here is inherently the pending
    legs themselves.  They are folded shard by shard into six flat arrays
    (hash, devices, start/end, position): ~40 bytes per transfer and no
    Python objects, versus the full event record the object oracle holds
    in memory.  Matching runs once at finalize: a bucket prefilter keeps
    only the legs whose hash may occur twice (:func:`_maybe_in_trips`),
    each drained column is cut to those rows at once, and
    :func:`_match_trips` matches them hash by hash (lockstep rounds, the
    two-key path or the exact loop).  The legs of the recorded trips come
    back as a :class:`FindingPart`, grouped in the oracle's order.
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
        # Only the rows that can be in a trip are kept: each drained column
        # is dropped as soon as its subset is taken.
        hashes = self._hash.drain()
        src = self._src.drain()
        dst = self._dst.drain()
        rows = _maybe_in_trips(hashes, src, dst)
        hashes, src, dst = hashes[rows], src[rows], dst[rows]
        start = self._start.drain()[rows]
        end = self._end.drain()[rows]
        gpos = self._gpos.drain()[rows]
        tx, rx, group = _match_trips(
            hashes, src, dst, start, end, require_chronological=self.require_chronological
        )
        return FindingPart.grouped(
            CATEGORY,
            np.column_stack((gpos[tx], gpos[rx])),
            group,
            tx,
            content_hash=hashes[tx],
            src_device_num=src[tx],
            dest_device_num=dst[tx],
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
