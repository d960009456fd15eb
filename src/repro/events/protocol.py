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

:class:`StreamingPass` is the consumer side: one fold over a stream's
batches.  The five detector passes (:mod:`repro.core.detectors`) and trace
validation (:class:`repro.events.validation.ValidationPass`) implement it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Protocol, Sequence, runtime_checkable

from repro.events.records import DataOpEvent, TargetEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.detectors.table import FindingPart
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


class StreamingPass:
    """One incremental fold over a stream: fold batches, then finalize.

    ``fold`` consumes one columnar batch (with the global data-op row
    offset of its first row) and updates the carry; ``finalize`` closes the
    carry and returns the findings as a
    :class:`~repro.core.detectors.table.FindingPart` over gpos — it never
    reads the stream again (the engines gather the rows of every pass in
    one scan).  A pass instance is single-use and always folds the whole
    stream from its head: the parallel engines split the *passes* across
    workers, never the stream.

    A *guard* pass checks the stream against the other passes'
    preconditions instead of detecting anything (trace validation).  The
    engines fold each coalesced group into the guards first
    (:meth:`fold_group`) and stop folding the other passes once a guard
    has ``failed``; a guard's
    ``finalize`` raises on a failed check and returns ``None`` otherwise,
    and runs before any other pass's result is used.  It only reads the
    carry, so an engine may call it more than once (a process worker
    checks its group's guard before finalizing the detectors beside it,
    and the parent checks it again to raise the error itself).
    """

    #: checks preconditions rather than detecting (see the class docstring)
    guard: bool = False
    #: a guard's check has already failed (never true for a detector)
    failed: bool = False
    #: static relative cost of the pass's fold plus finalize, which the
    #: process engine balances its worker groups by
    #: (:func:`repro.core.engine.pass_groups`).  The built-in passes use
    #: the milliseconds the pass alone adds to an empty scan of the
    #: findings-sparse benchmark store (400k events in 49 shards) on a
    #: 2-vCPU Xeon host.
    weight: float = 1.0

    def fold(self, batch: "ColumnarTrace", offset: int) -> None:
        raise NotImplementedError

    def fold_group(
        self, batches: Sequence["ColumnarTrace"], batch: "ColumnarTrace", offset: int
    ) -> None:
        """Fold consecutive ``batches``, whose concatenation is ``batch``:
        how the scan folds a guard, which may report per batch.  Every
        guard implements it; the scan never calls it on other passes."""
        raise NotImplementedError

    # Kept only because the benchmark harness (perfbench/layers.py) wraps it.
    def merge(self, other: "StreamingPass") -> None:
        raise NotImplementedError

    def finalize(self) -> "FindingPart":
        raise NotImplementedError


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
