"""The :class:`Trace` container: everything the detectors need, nothing more.

A trace is the post-mortem log described in Section 5 of the paper: the
chronologically ordered list of target (kernel) events and data-operation
events, together with the number of target devices.  The detection
algorithms, the optimization-potential estimator and the space-overhead
accounting all consume this object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from repro.events.records import (
    DATA_OP_EVENT_BYTES,
    TARGET_EVENT_BYTES,
    AllocationPair,
    DataOpEvent,
    DataOpKind,
    TargetEvent,
    get_alloc_delete_pairs,
)

_TRACE_FORMAT_VERSION = 1


@dataclass
class Trace:
    """An ordered log of OpenMP target events for one program execution."""

    num_devices: int = 1
    target_events: list[TargetEvent] = field(default_factory=list)
    data_op_events: list[DataOpEvent] = field(default_factory=list)
    program_name: Optional[str] = None
    #: Total virtual runtime of the traced program in seconds (set by the
    #: runtime simulator / collector; falls back to the last event end time).
    total_runtime: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def host_device_num(self) -> int:
        """OpenMP initial-device number used for the host in this trace."""
        return self.num_devices

    @property
    def end_time(self) -> float:
        """Timestamp of the latest event end (0.0 for an empty trace).

        The maximum is taken over *all* events, not just the last list
        element: events are appended in chronological start order, but an
        earlier event with a long duration can end after the last one.
        """
        last = 0.0
        if self.target_events:
            last = max(last, max(e.end_time for e in self.target_events))
        if self.data_op_events:
            last = max(last, max(e.end_time for e in self.data_op_events))
        return last

    @property
    def num_data_op_events(self) -> int:
        return len(self.data_op_events)

    @property
    def num_target_events(self) -> int:
        return len(self.target_events)

    @property
    def runtime(self) -> float:
        """Program runtime: explicit total if known, else the last event end."""
        if self.total_runtime is not None:
            return self.total_runtime
        return self.end_time

    def __len__(self) -> int:
        return len(self.target_events) + len(self.data_op_events)

    def is_empty(self) -> bool:
        return len(self) == 0

    # ------------------------------------------------------------------ #
    # Views used by the detectors
    # ------------------------------------------------------------------ #
    def transfers(self) -> list[DataOpEvent]:
        """All transfer events, in chronological order."""
        return [e for e in self.data_op_events if e.is_transfer]

    def transfers_to_devices(self) -> list[DataOpEvent]:
        """Host-to-device transfer events only."""
        return [e for e in self.data_op_events if e.kind is DataOpKind.TRANSFER_TO_DEVICE]

    def transfers_from_devices(self) -> list[DataOpEvent]:
        """Device-to-host transfer events only."""
        return [e for e in self.data_op_events if e.kind is DataOpKind.TRANSFER_FROM_DEVICE]

    def allocations(self) -> list[DataOpEvent]:
        return [e for e in self.data_op_events if e.is_alloc]

    def deletions(self) -> list[DataOpEvent]:
        return [e for e in self.data_op_events if e.is_delete]

    def alloc_delete_pairs(self) -> list[AllocationPair]:
        return get_alloc_delete_pairs(self.data_op_events)

    def kernel_events(self) -> list[TargetEvent]:
        """Target events that execute device code, in chronological order."""
        return [e for e in self.target_events if e.executes_kernel]

    def events_for_device(self, device_num: int) -> "Trace":
        """Return a sub-trace containing only events touching ``device_num``."""
        sub = Trace(num_devices=self.num_devices, program_name=self.program_name)
        sub.target_events = [e for e in self.target_events if e.device_num == device_num]
        sub.data_op_events = [
            e
            for e in self.data_op_events
            if device_num in (e.src_device_num, e.dest_device_num)
        ]
        sub.total_runtime = self.total_runtime
        return sub

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #
    def total_bytes_transferred(self) -> int:
        return sum(e.nbytes for e in self.data_op_events if e.is_transfer)

    def total_transfer_time(self) -> float:
        return sum(e.duration for e in self.data_op_events if e.is_transfer)

    def total_alloc_time(self) -> float:
        return sum(e.duration for e in self.data_op_events if e.is_alloc or e.is_delete)

    def total_kernel_time(self) -> float:
        return sum(e.duration for e in self.kernel_events())

    def space_overhead_bytes(self) -> int:
        """Collector memory footprint per Section 7.4 (72 B + 24 B accounting)."""
        return (
            DATA_OP_EVENT_BYTES * len(self.data_op_events)
            + TARGET_EVENT_BYTES * len(self.target_events)
        )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def append_target_event(self, event: TargetEvent) -> None:
        self.target_events.append(event)

    def append_data_op_event(self, event: DataOpEvent) -> None:
        self.data_op_events.append(event)

    def extend(self, other: "Trace") -> None:
        """Append another trace's events (used to stitch phases together).

        The other trace must use the same device count; its events must not
        precede this trace's last event.
        """
        if other.num_devices != self.num_devices:
            raise ValueError("cannot merge traces with different device counts")
        self.target_events.extend(other.target_events)
        self.data_op_events.extend(other.data_op_events)
        if other.total_runtime is not None:
            base = self.total_runtime or 0.0
            self.total_runtime = max(base, other.total_runtime)

    def to_columnar(self):
        """Convert to the structure-of-arrays representation."""
        from repro.events.columnar import ColumnarTrace

        return ColumnarTrace.from_trace(self)

    def sorted_copy(self) -> "Trace":
        """Return a copy with events re-sorted chronologically (stable)."""
        out = Trace(
            num_devices=self.num_devices,
            program_name=self.program_name,
            total_runtime=self.total_runtime,
        )
        out.target_events = sorted(self.target_events, key=lambda e: (e.start_time, e.seq))
        out.data_op_events = sorted(self.data_op_events, key=lambda e: (e.start_time, e.seq))
        return out

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "format_version": _TRACE_FORMAT_VERSION,
            "program_name": self.program_name,
            "num_devices": self.num_devices,
            "total_runtime": self.total_runtime,
            "target_events": [e.to_dict() for e in self.target_events],
            "data_op_events": [e.to_dict() for e in self.data_op_events],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Trace":
        version = d.get("format_version", _TRACE_FORMAT_VERSION)
        if version != _TRACE_FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version}")
        trace = cls(
            num_devices=int(d["num_devices"]),
            program_name=d.get("program_name"),
            total_runtime=d.get("total_runtime"),
        )
        trace.target_events = [TargetEvent.from_dict(e) for e in d.get("target_events", [])]
        trace.data_op_events = [DataOpEvent.from_dict(e) for e in d.get("data_op_events", [])]
        return trace

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # ------------------------------------------------------------------ #
    # Iteration
    # ------------------------------------------------------------------ #
    def all_events_chronological(self) -> Iterator[DataOpEvent | TargetEvent]:
        """Yield every event interleaved in chronological (start time) order."""
        merged: list[tuple[float, int, DataOpEvent | TargetEvent]] = []
        for e in self.target_events:
            merged.append((e.start_time, e.seq, e))
        for e in self.data_op_events:
            merged.append((e.start_time, e.seq, e))
        merged.sort(key=lambda t: (t[0], t[1]))
        for _, _, e in merged:
            yield e

    def summary(self) -> dict:
        """Summary statistics useful for reports and tests."""
        return {
            "program_name": self.program_name,
            "num_devices": self.num_devices,
            "num_target_events": len(self.target_events),
            "num_kernel_events": len(self.kernel_events()),
            "num_data_op_events": len(self.data_op_events),
            "num_transfers": len(self.transfers()),
            "num_allocations": len(self.allocations()),
            "bytes_transferred": self.total_bytes_transferred(),
            "transfer_time": self.total_transfer_time(),
            "alloc_time": self.total_alloc_time(),
            "kernel_time": self.total_kernel_time(),
            "runtime": self.runtime,
            "space_overhead_bytes": self.space_overhead_bytes(),
        }
