"""The common protocols the trace representations satisfy.

:class:`~repro.events.trace.Trace` (array-of-structs: one dataclass per
event) and :class:`~repro.events.columnar.ColumnarTrace` (struct-of-arrays:
one NumPy array per field) are interchangeable wherever :class:`TraceLike`
is all that is required.  The analysis, overhead-accounting and
optimization-potential layers are written against it, so either
representation can flow through the whole post-mortem pipeline.

:class:`EventStream` is the third, chunked view of the same data: a
re-iterable sequence of columnar batches (shards) in chronological order.
:class:`~repro.events.store.ShardedTraceStore` implements it from disk,
:meth:`ColumnarTrace.batches` implements it trivially (one batch), and the
``find_*_streaming`` detector variants consume it with O(carry) memory
instead of O(trace).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Protocol, Sequence, runtime_checkable

from repro.events.records import DataOpEvent, TargetEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.columnar import ColumnarTrace


@runtime_checkable
class TraceLike(Protocol):
    """What the post-mortem analysis layers require of a trace."""

    num_devices: int
    program_name: Optional[str]
    total_runtime: Optional[float]

    @property
    def host_device_num(self) -> int: ...

    @property
    def end_time(self) -> float: ...

    @property
    def runtime(self) -> float: ...

    @property
    def data_op_events(self) -> Sequence[DataOpEvent]: ...

    @property
    def target_events(self) -> Sequence[TargetEvent]: ...

    def __len__(self) -> int: ...

    def space_overhead_bytes(self) -> int: ...

    def summary(self) -> dict: ...


@runtime_checkable
class EventStream(Protocol):
    """A re-iterable stream of chronologically ordered columnar batches.

    The contract the streaming detectors rely on:

    * **Re-iterable.**  Every call to :meth:`batches` returns a fresh
      iterator over the same shards; a detector may scan the stream more
      than once (a counting fold plus the finding gather).
    * **Chronological.**  Concatenating the batches yields a valid trace:
      within each column group, start times are non-decreasing and sequence
      numbers ascend across batch boundaries — exactly what
      :func:`repro.events.validation.validate_trace` enforces for a single
      trace and :func:`~repro.events.validation.validate_stream` enforces
      shard by shard.
    * **Stable metadata.**  ``num_devices`` / ``program_name`` /
      ``total_runtime`` describe the whole trace, not one batch.
    """

    num_devices: int
    program_name: Optional[str]
    total_runtime: Optional[float]

    def batches(self) -> Iterator["ColumnarTrace"]: ...


def num_data_op_events(trace: TraceLike) -> int:
    """Number of data-op events without materialising object events."""
    n = getattr(trace, "num_data_op_events", None)
    if n is not None:
        return int(n)
    return len(trace.data_op_events)


def num_target_events(trace: TraceLike) -> int:
    """Number of target events without materialising object events."""
    n = getattr(trace, "num_target_events", None)
    if n is not None:
        return int(n)
    return len(trace.target_events)
