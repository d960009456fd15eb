"""The OMPT trace collector.

This is the in-process half of OMPDataPerf: a tool that registers the two
required EMI callbacks (``ompt_callback_target_emi`` and
``ompt_callback_target_data_op_emi``, plus the submit callback for kernel
intervals), hashes every transferred payload, and appends fixed-size records
to an in-memory log.  The analysis half (Algorithms 1–5) runs post-mortem on
the resulting :class:`~repro.events.trace.Trace`.

The collector reports its own cost back to the runtime through the callback
return value (seconds of overhead), which the simulator charges to the
virtual clock; that is how the Figure 2 runtime-overhead experiment is
produced from a single instrumented run plus an uninstrumented one.
"""

from __future__ import annotations

from typing import Optional

from repro.events.columnar import ColumnarTrace
from repro.events.records import TargetKind
from repro.events.store import ShardedTraceStore, TraceWriter
from repro.hashing import DEFAULT_HASHER
from repro.hashing.base import Hasher, get_hasher
from repro.hashing.collision import CollisionAuditor
from repro.core.overhead import OverheadModel
from repro.ompt.callbacks import (
    CallbackType,
    Endpoint,
    TargetDataOpRecord,
    TargetRecord,
    TargetSubmitRecord,
)
from repro.ompt.interface import OmptInterface


class TraceCollector:
    """OMPT tool that records target and data-op events into a trace.

    Parameters
    ----------
    hasher:
        Content hash used for transferred payloads (name or instance);
        defaults to the package default (the vectorised 64-bit hash).
    overhead_model:
        Time-cost model charged back to the monitored program; pass ``None``
        to model an overhead-free (idealised) tool.
    audit_collisions:
        When true, keep payload copies and verify that no two distinct
        payloads share a hash (Appendix B.1's optional mode — high memory
        cost, only for validation runs).
    writer:
        Optional :class:`~repro.events.store.TraceWriter`.  When given,
        events are appended into the writer instead of the in-memory trace:
        the writer flushes a shard to disk every ``shard_events`` events, so
        ingest runs in O(shard) memory no matter how long the program runs.
        Finish with :meth:`finish_store` instead of :meth:`finish_trace`.
    """

    def __init__(
        self,
        *,
        hasher: str | Hasher = DEFAULT_HASHER,
        overhead_model: Optional[OverheadModel] = OverheadModel(),
        audit_collisions: bool = False,
        writer: Optional[TraceWriter] = None,
    ) -> None:
        self.hasher: Hasher = get_hasher(hasher) if isinstance(hasher, str) else hasher
        self.overhead_model = overhead_model
        #: the model is frozen, so the per-endpoint cost is read once here
        self._record_seconds = 0.0 if overhead_model is None else overhead_model.record_time()
        self.auditor: Optional[CollisionAuditor] = (
            CollisionAuditor(self.hasher) if audit_collisions else None
        )
        #: events land directly in the structure-of-arrays store: each
        #: append queues one row tuple, and the rows settle into the columns
        #: in bulk (at the latest when a shard is flushed) — the Python
        #: analogue of the native tool's fixed-size-record append.  With a
        #: writer attached the sink is the bounded shard buffer instead, and
        #: ``self.trace`` stays empty.
        self.trace = ColumnarTrace(num_devices=0)
        self.writer = writer
        self._sink = writer if writer is not None else self.trace
        self._interface: Optional[OmptInterface] = None
        #: BEGIN record of every open target region, by target id
        self._pending_targets: dict[int, TargetRecord] = {}
        #: kernel execution interval of open regions that submitted one
        self._kernel_intervals: dict[int, tuple[float, float]] = {}
        self._next_seq = 0
        self._initialized_devices: set[int] = set()
        self.finalized = False
        #: wall-clock style accounting of the hashing work the collector did
        self.hashed_bytes = 0
        self.hashed_payloads = 0

    # ------------------------------------------------------------------ #
    # OmptTool protocol
    # ------------------------------------------------------------------ #
    def initialize(self, interface: OmptInterface) -> None:
        self._interface = interface
        interface.set_callback(CallbackType.DEVICE_INITIALIZE, self._on_device_initialize)
        interface.set_callback(CallbackType.DEVICE_FINALIZE, self._on_device_finalize)
        interface.set_callback(CallbackType.TARGET_EMI, self._on_target)
        interface.set_callback(CallbackType.TARGET_SUBMIT_EMI, self._on_target_submit)
        interface.set_callback(CallbackType.TARGET_DATA_OP_EMI, self._on_target_data_op)

    def finalize(self) -> None:
        self.finalized = True

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _seq(self) -> int:
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    # ------------------------------------------------------------------ #
    # Callbacks
    # ------------------------------------------------------------------ #
    def _on_device_initialize(self, device_num: int) -> float:
        self._initialized_devices.add(int(device_num))
        self.trace.num_devices = max(self.trace.num_devices, len(self._initialized_devices))
        return 0.0

    def _on_device_finalize(self, device_num: int) -> float:
        return 0.0

    def _on_target(self, record: TargetRecord) -> float:
        target_id = record.target_id
        if record.endpoint is Endpoint.BEGIN:
            self._pending_targets[target_id] = record
            self._kernel_intervals.pop(target_id, None)
            return self._record_seconds

        begin = self._pending_targets.pop(target_id, None)
        kernel_interval = self._kernel_intervals.pop(target_id, None)
        if begin is None:
            # An END without a BEGIN should not happen; tolerate it quietly
            # the way a defensive native tool would.
            return self._record_seconds

        if begin.kind is TargetKind.TARGET and kernel_interval is not None:
            # The event the detectors care about is the kernel execution
            # interval (from the submit callback); fall back to the region
            # interval if the runtime never submitted a kernel.
            start, end = kernel_interval
        else:
            start, end = begin.time, record.time

        # Positional, in ColumnarTrace.append_target's column order.
        self._sink.append_target(
            self._seq(), begin.kind, begin.device_num, start, end,
            begin.codeptr_ra, target_id, begin.name,
        )
        return self._record_seconds

    def _on_target_submit(self, record: TargetSubmitRecord) -> float:
        if (
            record.endpoint is Endpoint.END
            and record.start_time is not None
            and record.target_id in self._pending_targets
        ):
            self._kernel_intervals[record.target_id] = (
                record.start_time, record.end_time or record.time
            )
        return self._record_seconds

    def _on_target_data_op(self, record: TargetDataOpRecord) -> float:
        if record.endpoint is Endpoint.BEGIN:
            return self._record_seconds

        content_hash: Optional[int] = None
        overhead = self._record_seconds
        if record.optype.is_transfer:
            payload = record.payload
            if payload is None:
                raise ValueError("transfer data-op record arrived without a payload")
            if self.auditor is not None:
                content_hash = self.auditor.observe(payload)
            else:
                content_hash = self.hasher.hash(payload)
            self.hashed_bytes += record.bytes
            self.hashed_payloads += 1
            if self.overhead_model is not None:
                overhead += self.overhead_model.hash_time(record.bytes)

        start = record.time if record.start_time is None else record.start_time
        end = record.time if record.end_time is None else record.end_time
        # Positional, in ColumnarTrace.append_data_op's column order.
        self._sink.append_data_op(
            self._seq(), record.optype, record.src_device_num, record.dest_device_num,
            record.src_addr, record.dest_addr, record.bytes, start, end,
            content_hash, record.codeptr_ra, record.target_id, record.variable,
        )
        return overhead

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def finish_trace(
        self, *, total_runtime: Optional[float] = None, program_name: Optional[str] = None
    ) -> ColumnarTrace:
        """Finalize and return the recorded (columnar) trace."""
        if self.writer is not None:
            raise ValueError(
                "collector records into a TraceWriter; use finish_store()"
            )
        if total_runtime is not None:
            self.trace.total_runtime = total_runtime
        if program_name is not None:
            self.trace.program_name = program_name
        if self.trace.num_devices == 0:
            self.trace.num_devices = 1
        return self.trace

    def finish_store(
        self, *, total_runtime: Optional[float] = None, program_name: Optional[str] = None
    ) -> ShardedTraceStore:
        """Flush the remainder, write the manifest, return the sharded store."""
        if self.writer is None:
            raise ValueError("collector has no TraceWriter; use finish_trace()")
        num_devices = max(self.trace.num_devices, 1)
        return self.writer.close(
            num_devices=num_devices,
            program_name=program_name,
            total_runtime=total_runtime,
        )
