"""Stream utilities: slicing traces into batches and scanning streams.

An :class:`~repro.events.protocol.EventStream` is the chunked view of a
trace: a re-iterable sequence of columnar batches in chronological order.
This module provides the glue around that protocol —

* :func:`iter_trace_slices` / :class:`SlicedTraceStream` cut an in-memory
  columnar trace into bounded batches (the in-memory twin of the on-disk
  sharded store, used by the differential tests and ``shard_trace``),
* :func:`as_event_stream` adapts any trace representation to a stream,
* :func:`merge_stream` folds a stream back into one columnar trace,
* :class:`StreamStats` / :class:`StreamView` fold aggregate statistics out
  of a stream without materialising events (the ``TraceLike`` facade the
  analysis report holds when it was produced from a stream), and
* :func:`gather_data_op_rows` is the shared finding gather: given global
  data-op row positions collected by the streaming detectors, it re-scans
  only the batches that contain them and copies those rows into one small
  columnar trace (:func:`materialize_data_op_events` builds
  :class:`~repro.events.records.DataOpEvent` objects from it).

Global positions ("gpos") are the coordinate system of the streaming
detectors: the index a data-op row would have in the concatenation of every
batch's data-op columns (targets are numbered independently).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

import numpy as np

from repro.events.columnar import (
    DATA_OP_KIND_CODES,
    TARGET_KIND_CODES,
    ColumnarTrace,
)
from repro.events.protocol import EventStream
from repro.events.records import DataOpEvent
from repro.events.trace import Trace

#: Default number of events per batch/shard: large enough that per-batch
#: NumPy passes dominate the per-batch fixed costs, small enough that a
#: batch is a few MB resident.
DEFAULT_SHARD_EVENTS = 1 << 17


def slice_bounds(trace: ColumnarTrace, shard_events: int) -> list[tuple[int, int, int, int]]:
    """Row ranges ``(do_lo, do_hi, tgt_lo, tgt_hi)`` cutting ``trace`` into
    batches of at most ``shard_events`` events (data ops + targets combined).

    Cuts follow the merged sequence-number order, so each batch is a
    contiguous chronological span of the trace; both column groups must be
    ascending in ``seq`` (collector output and validated traces are).
    """
    if shard_events < 1:
        raise ValueError("shard_events must be at least 1")
    n_do, n_tgt = trace.num_data_op_events, trace.num_target_events
    total = n_do + n_tgt
    if total == 0:
        return []
    all_seq = np.sort(np.concatenate([trace.do_seq, trace.tgt_seq]))
    bounds: list[tuple[int, int, int, int]] = []
    do_lo = tgt_lo = 0
    for cut in range(shard_events, total, shard_events):
        cut_seq = all_seq[cut - 1]
        do_hi = int(np.searchsorted(trace.do_seq, cut_seq, side="right"))
        tgt_hi = int(np.searchsorted(trace.tgt_seq, cut_seq, side="right"))
        bounds.append((do_lo, do_hi, tgt_lo, tgt_hi))
        do_lo, tgt_lo = do_hi, tgt_hi
    bounds.append((do_lo, n_do, tgt_lo, n_tgt))
    return bounds


def iter_trace_slices(
    trace: ColumnarTrace, shard_events: int = DEFAULT_SHARD_EVENTS
) -> Iterator[ColumnarTrace]:
    """Yield ``trace`` cut into batches of at most ``shard_events`` events."""
    for do_lo, do_hi, tgt_lo, tgt_hi in slice_bounds(trace, shard_events):
        yield trace.slice_rows(do_lo, do_hi, tgt_lo, tgt_hi)


@dataclass
class SlicedTraceStream:
    """An in-memory :class:`EventStream` over one columnar trace.

    Every :meth:`batches` call re-slices the same trace, so the stream is
    re-iterable as the protocol requires.
    """

    trace: ColumnarTrace
    shard_events: int = DEFAULT_SHARD_EVENTS

    def __post_init__(self) -> None:
        if self.shard_events < 1:
            raise ValueError("shard_events must be at least 1")
        self._bounds: Optional[list[tuple[int, int, int, int]]] = None
        self._bounds_sizes = (-1, -1)

    def _slice_bounds(self) -> list[tuple[int, int, int, int]]:
        # slice_bounds sorts every sequence number of the trace; cache the
        # result (keyed by the trace's sizes, so appends invalidate it)
        # instead of recomputing it per load_batch call.
        sizes = (self.trace.num_data_op_events, self.trace.num_target_events)
        if self._bounds is None or self._bounds_sizes != sizes:
            self._bounds = slice_bounds(self.trace, self.shard_events)
            self._bounds_sizes = sizes
        return self._bounds

    @property
    def num_devices(self) -> int:
        return self.trace.num_devices

    @property
    def program_name(self) -> Optional[str]:
        return self.trace.program_name

    @property
    def total_runtime(self) -> Optional[float]:
        return self.trace.total_runtime

    def batches(self) -> Iterator[ColumnarTrace]:
        for bounds in self._slice_bounds():
            yield self.trace.slice_rows(*bounds)

    def batch_row_counts(self) -> list[tuple[int, int]]:
        return [
            (do_hi - do_lo, tgt_hi - tgt_lo)
            for do_lo, do_hi, tgt_lo, tgt_hi in self._slice_bounds()
        ]

    def load_batch(self, index: int) -> ColumnarTrace:
        return self.trace.slice_rows(*self._slice_bounds()[index])


def as_event_stream(
    trace, shard_events: Optional[int] = None
) -> EventStream:
    """Adapt any trace representation (or stream) to an :class:`EventStream`.

    An object :class:`Trace` is converted to columnar form first; with
    ``shard_events`` the result is sliced into bounded batches, without it
    an existing stream passes through unchanged (a plain columnar trace
    streams as a single batch).
    """
    if isinstance(trace, Trace):
        trace = ColumnarTrace.from_trace(trace)
    if shard_events is not None:
        if not isinstance(trace, ColumnarTrace):
            raise TypeError("shard_events requires an in-memory trace to slice")
        return SlicedTraceStream(trace, shard_events)
    if isinstance(trace, EventStream):
        return trace
    raise TypeError(f"cannot stream {type(trace).__name__}")


def merge_stream(stream: EventStream) -> ColumnarTrace:
    """Concatenate every batch of a stream into one columnar trace.

    The inverse of sharding: ``merge_stream(as_event_stream(t, k))`` is
    lossless for any trace ``t`` and shard size ``k`` (property-tested in
    ``tests/events/test_store.py``).
    """
    out = ColumnarTrace(
        num_devices=stream.num_devices,
        program_name=stream.program_name,
        total_runtime=stream.total_runtime,
    )
    for batch in stream.batches():
        out.extend_from(batch)
    return out


# --------------------------------------------------------------------- #
# Aggregate statistics folds
# --------------------------------------------------------------------- #
@dataclass
class StreamStats:
    """Aggregate trace statistics folded batch by batch (O(1) carry)."""

    num_data_op_events: int = 0
    num_target_events: int = 0
    num_kernel_events: int = 0
    num_transfers: int = 0
    num_allocations: int = 0
    bytes_transferred: int = 0
    transfer_time: float = 0.0
    alloc_time: float = 0.0
    kernel_time: float = 0.0
    end_time: float = 0.0
    data_op_kind_counts: Dict[str, int] = field(
        default_factory=lambda: {kind.value: 0 for kind in DATA_OP_KIND_CODES}
    )
    target_kind_counts: Dict[str, int] = field(
        default_factory=lambda: {kind.value: 0 for kind in TARGET_KIND_CODES}
    )

    def fold(self, batch: ColumnarTrace) -> None:
        self.num_data_op_events += batch.num_data_op_events
        self.num_target_events += batch.num_target_events
        self.num_kernel_events += int(batch.kernel_mask().sum())
        self.num_transfers += int(batch.transfer_mask().sum())
        self.bytes_transferred += batch.total_bytes_transferred()
        self.transfer_time += batch.total_transfer_time()
        self.alloc_time += batch.total_alloc_time()
        self.kernel_time += batch.total_kernel_time()
        self.end_time = max(self.end_time, batch.end_time)
        do_counts = np.bincount(batch.do_kind, minlength=len(DATA_OP_KIND_CODES))
        for kind, count in zip(DATA_OP_KIND_CODES, do_counts):
            self.data_op_kind_counts[kind.value] += int(count)
        tgt_counts = np.bincount(batch.tgt_kind, minlength=len(TARGET_KIND_CODES))
        for kind, count in zip(TARGET_KIND_CODES, tgt_counts):
            self.target_kind_counts[kind.value] += int(count)
        self.num_allocations = self.data_op_kind_counts["alloc"]

    def merge(self, other: "StreamStats") -> None:
        """Fold another (disjoint) batch range's statistics into this one.

        Counts and totals add, ``end_time`` takes the maximum — the result
        equals a single fold over both ranges.  Used by the shard writer
        (per-shard stats merged into the manifest aggregate) and by
        retention-aware compaction, which re-derives the folded statistics
        of whichever staged shards survive the byte/count budget.
        """
        self.num_data_op_events += other.num_data_op_events
        self.num_target_events += other.num_target_events
        self.num_kernel_events += other.num_kernel_events
        self.num_transfers += other.num_transfers
        self.bytes_transferred += other.bytes_transferred
        self.transfer_time += other.transfer_time
        self.alloc_time += other.alloc_time
        self.kernel_time += other.kernel_time
        self.end_time = max(self.end_time, other.end_time)
        for kind, count in other.data_op_kind_counts.items():
            self.data_op_kind_counts[kind] = (
                self.data_op_kind_counts.get(kind, 0) + count
            )
        for kind, count in other.target_kind_counts.items():
            self.target_kind_counts[kind] = (
                self.target_kind_counts.get(kind, 0) + count
            )
        self.num_allocations = self.data_op_kind_counts["alloc"]

    @classmethod
    def of_stream(cls, stream: EventStream) -> "StreamStats":
        stats = cls()
        for batch in stream.batches():
            stats.fold(batch)
        return stats


class StreamView:
    """A :class:`~repro.events.protocol.TraceLike` facade over a stream.

    Aggregate statistics are folded out of the stream on first use (one
    scan, no event materialisation); the event-list properties exist for
    protocol completeness but merge the whole stream — only reach for them
    when the trace is known to fit in memory.
    """

    def __init__(self, stream: EventStream) -> None:
        self._stream = stream
        self._stats: Optional[StreamStats] = None

    @property
    def stream(self) -> EventStream:
        return self._stream

    @property
    def num_devices(self) -> int:
        return self._stream.num_devices

    @property
    def program_name(self) -> Optional[str]:
        return self._stream.program_name

    @property
    def total_runtime(self) -> Optional[float]:
        return self._stream.total_runtime

    @property
    def host_device_num(self) -> int:
        return self.num_devices

    def stats(self) -> StreamStats:
        if self._stats is None:
            self._stats = StreamStats.of_stream(self._stream)
        return self._stats

    @property
    def end_time(self) -> float:
        return self.stats().end_time

    @property
    def runtime(self) -> float:
        if self.total_runtime is not None:
            return self.total_runtime
        return self.end_time

    @property
    def num_data_op_events(self) -> int:
        return self.stats().num_data_op_events

    @property
    def num_target_events(self) -> int:
        return self.stats().num_target_events

    def __len__(self) -> int:
        stats = self.stats()
        return stats.num_data_op_events + stats.num_target_events

    def space_overhead_bytes(self) -> int:
        from repro.events.records import DATA_OP_EVENT_BYTES, TARGET_EVENT_BYTES

        stats = self.stats()
        return (
            DATA_OP_EVENT_BYTES * stats.num_data_op_events
            + TARGET_EVENT_BYTES * stats.num_target_events
        )

    @property
    def data_op_events(self):
        return merge_stream(self._stream).data_op_events

    @property
    def target_events(self):
        return merge_stream(self._stream).target_events

    def summary(self) -> dict:
        stats = self.stats()
        return {
            "program_name": self.program_name,
            "num_devices": self.num_devices,
            "num_target_events": stats.num_target_events,
            "num_kernel_events": stats.num_kernel_events,
            "num_data_op_events": stats.num_data_op_events,
            "num_transfers": stats.num_transfers,
            "num_allocations": stats.num_allocations,
            "bytes_transferred": stats.bytes_transferred,
            "transfer_time": stats.transfer_time,
            "alloc_time": stats.alloc_time,
            "kernel_time": stats.kernel_time,
            "runtime": self.runtime,
            "space_overhead_bytes": self.space_overhead_bytes(),
        }


def trace_like_view(stream_or_trace):
    """The cheapest ``TraceLike`` view of a stream (or trace).

    Objects that already expose the full aggregate surface — both trace
    representations and :class:`~repro.events.store.ShardedTraceStore`,
    whose statistics live in its manifest — pass through unchanged; other
    streams are wrapped in a :class:`StreamView`.
    """
    if hasattr(stream_or_trace, "summary") and hasattr(stream_or_trace, "runtime"):
        return stream_or_trace
    return StreamView(stream_or_trace)


# --------------------------------------------------------------------- #
# Finding gather
# --------------------------------------------------------------------- #
def gather_data_op_rows(stream: EventStream, gpos: np.ndarray) -> ColumnarTrace:
    """Copy the data-op rows at the given global positions into one trace.

    ``gpos`` must be ascending and distinct; row ``k`` of the result is
    the row at ``gpos[k]``, with every column — ``variable`` included.
    Batches containing no requested row
    are skipped entirely when the stream can enumerate its batch sizes
    (``batch_row_counts`` / ``load_batch``, implemented by the sharded
    store and the in-memory slicer), so an on-disk store loads each shard
    holding a requested row exactly once and never reads the others.  The
    rows go straight into columns allocated once
    (:meth:`ColumnarTrace.gather_data_ops`), one loaded batch at a time.
    """
    needed = np.asarray(gpos, dtype=np.int64)
    if np.any(needed[1:] <= needed[:-1]):
        raise ValueError("gather positions must be ascending and distinct")
    if needed.size == 0:
        return ColumnarTrace()
    counts = getattr(stream, "batch_row_counts", None)
    loader = getattr(stream, "load_batch", None)
    if counts is not None and loader is not None:
        sizes = np.array([n_do for n_do, _ in counts()], dtype=np.int64)
    else:
        sizes = None
    return ColumnarTrace.gather_data_ops(_gather_sources(stream, needed, sizes), needed.size)


def _gather_sources(stream: EventStream, needed: np.ndarray, sizes: Optional[np.ndarray]):
    """``(batch, rows)`` for every batch holding a ``needed`` position,
    ``rows`` local to the batch; loads only those batches when the data-op
    row count of every batch (``sizes``) is known."""
    if sizes is not None:
        ends = np.cumsum(sizes)
        cuts = np.searchsorted(needed, ends)  # positions before each batch's end
        starts = np.concatenate(([0], cuts[:-1]))
        for index in np.flatnonzero(cuts > starts).tolist():
            rows = needed[starts[index] : cuts[index]] - (ends[index] - sizes[index])
            yield stream.load_batch(index), rows
        return
    offset = 0
    for batch in stream.batches():
        n_do = batch.num_data_op_events
        lo, hi = np.searchsorted(needed, (offset, offset + n_do))
        if hi > lo:
            yield batch, needed[lo:hi] - offset
        del batch  # before the next batch is loaded
        offset += n_do


def materialize_data_op_events(
    stream: EventStream, gpos: np.ndarray
) -> Dict[int, DataOpEvent]:
    """Materialise the data-op events at the given global row positions.

    Returns ``{gpos: event}``, built from one :func:`gather_data_op_rows`
    pass (untouched shards are never read).
    """
    needed = np.unique(np.asarray(gpos, dtype=np.int64))
    rows = gather_data_op_rows(stream, needed)
    return dict(zip(needed.tolist(), rows.data_op_events_at(np.arange(needed.size))))
