"""OMPT EMI callback record types.

Field names follow the OMPT specification (device numbers, ``codeptr_ra``,
``bytes``, ``optype``) so the collector code reads like an OMPT tool.  Two
simulator-specific additions:

``payload``
    For data-op records, a read-only view of the bytes being moved.  A real
    tool reads the transferred memory through the source address delivered by
    the callback; the simulator hands the same information over explicitly.
``start_time`` / ``end_time``
    The END record carries the authoritative operation timestamps from the
    virtual clock (a native tool would read a monotonic clock itself).

The records are immutable named tuples: the runtime builds one per
callback endpoint, so construction is on the ingest hot path, and a tuple
is the cheapest immutable record Python offers (the analogue of the
native tool's fixed-size callback arguments).
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

import numpy as np

from repro.events.records import DataOpKind, TargetKind


class CallbackType(enum.Enum):
    """The OMPT callbacks the simulator can deliver."""

    DEVICE_INITIALIZE = "ompt_callback_device_initialize"
    DEVICE_FINALIZE = "ompt_callback_device_finalize"
    TARGET_EMI = "ompt_callback_target_emi"
    TARGET_DATA_OP_EMI = "ompt_callback_target_data_op_emi"
    TARGET_SUBMIT_EMI = "ompt_callback_target_submit_emi"

    #: Members are singletons, so identity hashing (in C) is equivalent to
    #: ``Enum.__hash__`` and keeps the per-dispatch dict lookups cheap.
    __hash__ = object.__hash__


class Endpoint(enum.Enum):
    """``ompt_scope_endpoint_t``: whether the record marks a begin or an end."""

    BEGIN = "begin"
    END = "end"


class TargetRecord(NamedTuple):
    """`ompt_callback_target_emi` payload: a target region begins or ends."""

    endpoint: Endpoint
    kind: TargetKind
    device_num: int
    target_id: int
    codeptr_ra: Optional[int]
    time: float
    name: Optional[str] = None


class TargetSubmitRecord(NamedTuple):
    """``ompt_callback_target_submit_emi`` payload: a kernel launch."""

    endpoint: Endpoint
    device_num: int
    target_id: int
    host_op_id: int
    requested_num_teams: int
    time: float
    #: END records carry the kernel execution interval
    start_time: Optional[float] = None
    end_time: Optional[float] = None


class TargetDataOpRecord(NamedTuple):
    """``ompt_callback_target_data_op_emi`` payload: one data-mapping operation."""

    endpoint: Endpoint
    optype: DataOpKind
    src_addr: int
    src_device_num: int
    dest_addr: int
    dest_device_num: int
    bytes: int
    target_id: Optional[int]
    host_op_id: int
    codeptr_ra: Optional[int]
    time: float
    #: END records carry the operation interval measured by the runtime
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    #: view of the bytes moved (transfers only)
    payload: Optional[np.ndarray] = None
    #: human-readable variable name (debug aid only; real OMPT has no such field)
    variable: Optional[str] = None
