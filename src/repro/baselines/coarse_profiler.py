"""A coarse-grained transfer profiler (the "vendor tool" strawman).

Section 3 motivates OMPDataPerf by observing that existing profilers report
only aggregate timing and volume for data transfers, leaving the programmer
to infer whether optimization potential exists.  This module implements that
level of reporting over the same OMPT callbacks so the contrast can be
demonstrated (and tested): the coarse profile sees *how much* was
transferred, never *which* transfers were unnecessary.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.events.records import DataOpKind
from repro.ompt.callbacks import CallbackType, Endpoint, TargetDataOpRecord, TargetSubmitRecord
from repro.ompt.interface import OmptInterface


@dataclass
class CoarseProfile:
    """Aggregate transfer/kernel statistics for one run."""

    h2d_bytes: int = 0
    h2d_time: float = 0.0
    h2d_count: int = 0
    d2h_bytes: int = 0
    d2h_time: float = 0.0
    d2h_count: int = 0
    alloc_count: int = 0
    alloc_time: float = 0.0
    kernel_count: int = 0
    kernel_time: float = 0.0
    per_location: dict[int, float] = field(default_factory=lambda: defaultdict(float))

    @property
    def total_transfer_time(self) -> float:
        return self.h2d_time + self.d2h_time

    def as_dict(self) -> dict:
        return {
            "h2d_bytes": self.h2d_bytes,
            "h2d_time": self.h2d_time,
            "h2d_count": self.h2d_count,
            "d2h_bytes": self.d2h_bytes,
            "d2h_time": self.d2h_time,
            "d2h_count": self.d2h_count,
            "alloc_count": self.alloc_count,
            "alloc_time": self.alloc_time,
            "kernel_count": self.kernel_count,
            "kernel_time": self.kernel_time,
        }


class CoarseProfiler:
    """OMPT tool that accumulates aggregate statistics only."""

    def __init__(self) -> None:
        self.profile = CoarseProfile()
        self._interface: Optional[OmptInterface] = None

    def initialize(self, interface: OmptInterface) -> None:
        self._interface = interface
        interface.set_callback(CallbackType.TARGET_DATA_OP_EMI, self._on_data_op)
        interface.set_callback(CallbackType.TARGET_SUBMIT_EMI, self._on_submit)

    def finalize(self) -> None:
        pass

    def _on_data_op(self, record: TargetDataOpRecord) -> float:
        if record.endpoint is not Endpoint.END:
            return 0.0
        duration = (record.end_time or record.time) - (record.start_time or record.time)
        profile = self.profile
        if record.optype is DataOpKind.TRANSFER_TO_DEVICE:
            profile.h2d_bytes += record.bytes
            profile.h2d_time += duration
            profile.h2d_count += 1
        elif record.optype is DataOpKind.TRANSFER_FROM_DEVICE:
            profile.d2h_bytes += record.bytes
            profile.d2h_time += duration
            profile.d2h_count += 1
        elif record.optype in (DataOpKind.ALLOC, DataOpKind.DELETE):
            profile.alloc_count += 1
            profile.alloc_time += duration
        if record.codeptr_ra is not None:
            profile.per_location[record.codeptr_ra] += duration
        return 0.0

    def _on_submit(self, record: TargetSubmitRecord) -> float:
        if record.endpoint is Endpoint.END and record.start_time is not None:
            self.profile.kernel_count += 1
            self.profile.kernel_time += (record.end_time or record.time) - record.start_time
        return 0.0
