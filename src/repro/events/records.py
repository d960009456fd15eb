"""Event record types.

These mirror the information delivered by the OMPT EMI callbacks that
OMPDataPerf requires (``ompt_callback_target_emi`` and
``ompt_callback_target_data_op_emi``) plus the content hash the tool computes
for transferred payloads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

#: Bytes allocated by the collector for every recorded data-op event
#: (Section 7.4: "OMPDataPerf allocates 72 B for every OpenMP data transfer
#: event").  Used by the space-overhead accounting.
DATA_OP_EVENT_BYTES = 72

#: Bytes allocated by the collector for every recorded target launch event
#: (Section 7.4: "24 B for every target launch event").
TARGET_EVENT_BYTES = 24


class DataOpKind(enum.Enum):
    """The kind of a target data operation (mirrors ``ompt_target_data_op_t``)."""

    ALLOC = "alloc"
    TRANSFER_TO_DEVICE = "transfer_to_device"
    TRANSFER_FROM_DEVICE = "transfer_from_device"
    DELETE = "delete"
    ASSOCIATE = "associate"
    DISASSOCIATE = "disassociate"

    #: Members are singletons: identity hashing (in C) is equivalent to
    #: ``Enum.__hash__`` and keeps the collector's per-event kind lookups cheap.
    __hash__ = object.__hash__

    @property
    def is_transfer(self) -> bool:
        return self in (DataOpKind.TRANSFER_TO_DEVICE, DataOpKind.TRANSFER_FROM_DEVICE)

    @property
    def is_alloc(self) -> bool:
        return self is DataOpKind.ALLOC

    @property
    def is_delete(self) -> bool:
        return self is DataOpKind.DELETE


class TargetKind(enum.Enum):
    """The kind of a target region (mirrors ``ompt_target_t``)."""

    TARGET = "target"
    ENTER_DATA = "enter_data"
    EXIT_DATA = "exit_data"
    UPDATE = "update"

    __hash__ = object.__hash__

    @property
    def executes_kernel(self) -> bool:
        """Whether a region of this kind runs device code (a kernel)."""
        return self is TargetKind.TARGET


@dataclass(frozen=True)
class DataOpEvent:
    """A single data-mapping operation observed through OMPT.

    Attributes
    ----------
    seq:
        Monotonically increasing sequence number assigned in trace order.
    kind:
        The operation type.
    src_device_num / dest_device_num:
        OpenMP device numbers.  Target devices are numbered ``0..N-1`` and the
        host (initial device) is numbered ``N`` (see :class:`repro.events.trace.Trace`).
    src_addr / dest_addr:
        Source / destination base addresses.  For allocations ``src_addr`` is
        the host address of the variable being mapped and ``dest_addr`` is the
        device address returned by the allocator.
    nbytes:
        Size of the operation in bytes.
    start_time / end_time:
        Virtual timestamps in seconds.
    content_hash:
        Hash of the transferred payload (transfers only, ``None`` otherwise).
    codeptr:
        Synthetic return address identifying the source construct.
    target_id:
        Identifier of the enclosing target region, if any.
    variable:
        Optional human-readable name of the mapped variable (debug aid; the
        detection algorithms never rely on it).
    """

    seq: int
    kind: DataOpKind
    src_device_num: int
    dest_device_num: int
    src_addr: int
    dest_addr: int
    nbytes: int
    start_time: float
    end_time: float
    content_hash: Optional[int] = None
    codeptr: Optional[int] = None
    target_id: Optional[int] = None
    variable: Optional[str] = None

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.end_time < self.start_time:
            raise ValueError("event ends before it starts")
        if self.kind.is_transfer and self.content_hash is None:
            raise ValueError("transfer events must carry a content hash")

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def is_transfer(self) -> bool:
        return self.kind.is_transfer

    @property
    def is_alloc(self) -> bool:
        return self.kind.is_alloc

    @property
    def is_delete(self) -> bool:
        return self.kind.is_delete

    def with_times(self, start_time: float, end_time: float) -> "DataOpEvent":
        """Return a copy with shifted timestamps (used by trace surgery in tests)."""
        return replace(self, start_time=start_time, end_time=end_time)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind.value,
            "src_device_num": self.src_device_num,
            "dest_device_num": self.dest_device_num,
            "src_addr": self.src_addr,
            "dest_addr": self.dest_addr,
            "nbytes": self.nbytes,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "content_hash": self.content_hash,
            "codeptr": self.codeptr,
            "target_id": self.target_id,
            "variable": self.variable,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DataOpEvent":
        return cls(
            seq=int(d["seq"]),
            kind=DataOpKind(d["kind"]),
            src_device_num=int(d["src_device_num"]),
            dest_device_num=int(d["dest_device_num"]),
            src_addr=int(d["src_addr"]),
            dest_addr=int(d["dest_addr"]),
            nbytes=int(d["nbytes"]),
            start_time=float(d["start_time"]),
            end_time=float(d["end_time"]),
            content_hash=None if d.get("content_hash") is None else int(d["content_hash"]),
            codeptr=None if d.get("codeptr") is None else int(d["codeptr"]),
            target_id=None if d.get("target_id") is None else int(d["target_id"]),
            variable=d.get("variable"),
        )


@dataclass(frozen=True)
class TargetEvent:
    """A target region (kernel execution, enter/exit data or update) event."""

    seq: int
    kind: TargetKind
    device_num: int
    start_time: float
    end_time: float
    codeptr: Optional[int] = None
    target_id: Optional[int] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.end_time < self.start_time:
            raise ValueError("event ends before it starts")

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def executes_kernel(self) -> bool:
        return self.kind.executes_kernel

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind.value,
            "device_num": self.device_num,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "codeptr": self.codeptr,
            "target_id": self.target_id,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TargetEvent":
        return cls(
            seq=int(d["seq"]),
            kind=TargetKind(d["kind"]),
            device_num=int(d["device_num"]),
            start_time=float(d["start_time"]),
            end_time=float(d["end_time"]),
            codeptr=None if d.get("codeptr") is None else int(d["codeptr"]),
            target_id=None if d.get("target_id") is None else int(d["target_id"]),
            name=d.get("name"),
        )


@dataclass(frozen=True)
class AllocationPair:
    """An allocation event paired with its matching deletion event (if any).

    The deletion may legitimately be missing when the mapping is still live at
    program exit; the detectors treat a missing delete as a lifetime that
    extends to the end of the trace.
    """

    alloc_event: DataOpEvent
    delete_event: Optional[DataOpEvent] = None

    def __post_init__(self) -> None:
        if not self.alloc_event.is_alloc:
            raise ValueError("alloc_event must be an ALLOC event")
        if self.delete_event is not None and not self.delete_event.is_delete:
            raise ValueError("delete_event must be a DELETE event")

    @property
    def device_num(self) -> int:
        return self.alloc_event.dest_device_num

    @property
    def host_addr(self) -> int:
        return self.alloc_event.src_addr

    @property
    def device_addr(self) -> int:
        return self.alloc_event.dest_addr

    @property
    def nbytes(self) -> int:
        return self.alloc_event.nbytes

    def lifetime(self, trace_end: float) -> tuple[float, float]:
        """Return ``(start, end)`` of the allocation's lifetime."""
        end = self.delete_event.end_time if self.delete_event is not None else trace_end
        return (self.alloc_event.start_time, end)

    @property
    def duration(self) -> float:
        """Combined duration of the allocation and deletion operations.

        This is the cost that disappears when a repeated allocation is hoisted
        out of a loop, so the optimization-potential estimator uses it.
        """
        total = self.alloc_event.duration
        if self.delete_event is not None:
            total += self.delete_event.duration
        return total


def get_alloc_delete_pairs(
    data_op_events: Sequence[DataOpEvent],
) -> list[AllocationPair]:
    """Pair each allocation event with its matching deletion event.

    Pairing follows the device address: a DELETE on device ``d`` at address
    ``a`` closes the most recent open ALLOC on device ``d`` whose allocation
    returned address ``a``.  Events must be supplied in chronological order.
    Deletes that match no open allocation are ignored (they can occur when a
    trace is truncated); allocations never deleted are returned with
    ``delete_event=None``.
    """
    open_allocs: dict[tuple[int, int], list[DataOpEvent]] = {}
    pairs_in_order: list[tuple[DataOpEvent, Optional[DataOpEvent]]] = []
    index_of_alloc: dict[int, int] = {}

    for event in data_op_events:
        if event.is_alloc:
            key = (event.dest_device_num, event.dest_addr)
            open_allocs.setdefault(key, []).append(event)
            index_of_alloc[event.seq] = len(pairs_in_order)
            pairs_in_order.append((event, None))
        elif event.is_delete:
            key = (event.dest_device_num, event.dest_addr)
            stack = open_allocs.get(key)
            if not stack:
                continue
            alloc = stack.pop()
            slot = index_of_alloc[alloc.seq]
            pairs_in_order[slot] = (alloc, event)

    return [AllocationPair(alloc, delete) for alloc, delete in pairs_in_order]


def sort_events_by_device(
    events: Iterable[DataOpEvent | TargetEvent | AllocationPair],
    num_devices: int,
    device_of=None,
) -> list[list]:
    """Bucket events into per-device lists (the ``SortByDevice`` helper of
    Algorithms 4 and 5), preserving chronological order inside each bucket.

    ``num_devices`` counts *target* devices; events addressed to the host are
    dropped because Algorithms 4/5 reason about device-side usage only.
    """
    if device_of is None:
        def device_of(ev):  # noqa: ANN001 - simple dispatcher
            if isinstance(ev, AllocationPair):
                return ev.device_num
            if isinstance(ev, TargetEvent):
                return ev.device_num
            if isinstance(ev, DataOpEvent):
                return ev.dest_device_num
            raise TypeError(f"cannot determine device of {ev!r}")

    buckets: list[list] = [[] for _ in range(num_devices)]
    for ev in events:
        dev = device_of(ev)
        if 0 <= dev < num_devices:
            buckets[dev].append(ev)
    return buckets
