"""An Arbalest-Vec-style correctness checker (the Table 2 comparison tool).

Arbalest / Arbalest-Vec detect data-mapping *correctness* anomalies in
OpenMP offload programs: use of uninitialised memory (UUM), use of stale
data (USD), use after free (UAF) and buffer overflow (BO).  The real tool
combines OMPT with binary instrumentation of kernel memory accesses and a
per-variable shadow state machine; here the same state machine runs over the
simulator's OMPT callbacks plus the instrumentation probe
(:meth:`repro.omp.runtime.OffloadRuntime.set_access_probe`), which is the
substitution for binary instrumentation.

The checker is deliberately *conservative*, as the paper observes the real
tool to be: a kernel access to a mapped buffer that still contains
uninitialised elements is reported as UUM even when the access only writes
— that is exactly the class of false positives Section 7.7 describes for
``mandelbrot-omp`` (``b[0]``), ``lif-omp`` (``spikes[0]``) and
``bspline-vgh-omp`` (``walkers_*[0]``).  Pass ``conservative=False`` for a
precise variant that only reports reads of uninitialised data (used by the
tests to show the false positives disappear).

Like its namesake, the checker reports issue *classes* per variable; it says
nothing about performance, which is the paper's point in Section 7.7.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.events.records import DataOpKind
from repro.ompt.callbacks import CallbackType, Endpoint, TargetDataOpRecord
from repro.ompt.interface import OmptInterface
from repro.omp.runtime import KernelLaunchRecord, OffloadRuntime

#: Average slowdown reported for Arbalest-Vec over native execution
#: (Section 8); the probe charges this against the monitored program so that
#: comparisons of tool overhead remain honest.
ARBALEST_SLOWDOWN_FACTOR = 3.5


class IssueKind(enum.Enum):
    """Anomaly classes detected by Arbalest-Vec."""

    UUM = "use of uninitialized memory"
    USD = "use of stale data"
    UAF = "use after free"
    BO = "buffer overflow"


@dataclass(frozen=True)
class CorrectnessIssue:
    """One reported anomaly."""

    kind: IssueKind
    variable: str
    device_num: int
    target_id: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.kind.name}: {self.variable} (device {self.device_num}) {self.detail}".rstrip()


@dataclass
class _ShadowBuffer:
    """Per-mapping shadow state."""

    variable: str
    device_num: int
    nbytes: int
    #: device copy fully initialised (transferred or fully written by a kernel)
    initialized: bool = False
    #: host copy modified after the last transfer to the device
    host_dirty: bool = False
    freed: bool = False


class ArbalestVecChecker:
    """Dynamic data-mapping correctness checker."""

    def __init__(self, *, conservative: bool = True) -> None:
        self.conservative = conservative
        self.issues: list[CorrectnessIssue] = []
        self._shadow: dict[tuple[int, int], _ShadowBuffer] = {}
        self._reported: set[tuple[IssueKind, str, int]] = set()
        self._interface: Optional[OmptInterface] = None

    # ------------------------------------------------------------------ #
    # Attachment
    # ------------------------------------------------------------------ #
    def attach(self, runtime: OffloadRuntime) -> "ArbalestVecChecker":
        """Attach to a runtime: OMPT callbacks + instrumentation probe."""
        runtime.ompt.connect_tool(self)
        runtime.set_access_probe(self._on_kernel_launch)
        return self

    # OmptTool protocol ------------------------------------------------- #
    def initialize(self, interface: OmptInterface) -> None:
        self._interface = interface
        interface.set_callback(CallbackType.TARGET_DATA_OP_EMI, self._on_data_op)

    def finalize(self) -> None:
        pass

    # ------------------------------------------------------------------ #
    # Event handling
    # ------------------------------------------------------------------ #
    def _key(self, host_addr: int, device_num: int) -> tuple[int, int]:
        return (host_addr, device_num)

    def _on_data_op(self, record: TargetDataOpRecord) -> float:
        if record.endpoint is not Endpoint.END:
            return 0.0
        name = record.variable or f"var@{record.src_addr:#x}"
        if record.optype is DataOpKind.ALLOC:
            key = self._key(record.src_addr, record.dest_device_num)
            self._shadow[key] = _ShadowBuffer(
                variable=name,
                device_num=record.dest_device_num,
                nbytes=record.bytes,
            )
        elif record.optype is DataOpKind.TRANSFER_TO_DEVICE:
            key = self._key(record.src_addr, record.dest_device_num)
            shadow = self._shadow.get(key)
            if shadow is not None:
                shadow.initialized = True
                shadow.host_dirty = False
        elif record.optype is DataOpKind.TRANSFER_FROM_DEVICE:
            # Host copy now matches the device copy.
            key = self._key(record.dest_addr, record.src_device_num)
            shadow = self._shadow.get(key)
            if shadow is not None:
                shadow.host_dirty = False
        elif record.optype is DataOpKind.DELETE:
            key = self._key(record.src_addr, record.dest_device_num)
            shadow = self._shadow.get(key)
            if shadow is not None:
                shadow.freed = True
        return 0.0

    def _on_kernel_launch(self, record: KernelLaunchRecord) -> float:
        """Instrumentation probe: inspect each declared kernel access."""
        overhead = (record.end_time - record.start_time) * (ARBALEST_SLOWDOWN_FACTOR - 1.0)
        for access in record.accesses:
            key = self._key(access.host_addr, record.device_num)
            shadow = self._shadow.get(key)
            if shadow is None:
                # The kernel touches data with no live mapping on this device.
                self._report(
                    IssueKind.UAF,
                    variable=f"var@{access.host_addr:#x}",
                    device_num=record.device_num,
                    target_id=record.target_id,
                    detail="access to unmapped or freed storage",
                )
                continue
            if shadow.freed:
                self._report(
                    IssueKind.UAF, shadow.variable, record.device_num, record.target_id,
                    detail="mapping was deleted before this kernel",
                )
                continue
            if not shadow.initialized:
                flag_uum = access.reads or (self.conservative and not access.full_write)
                if flag_uum:
                    self._report(
                        IssueKind.UUM,
                        f"{shadow.variable}[0]",
                        record.device_num,
                        record.target_id,
                        detail="device copy contains uninitialized elements",
                    )
            if access.reads and shadow.host_dirty:
                self._report(
                    IssueKind.USD, shadow.variable, record.device_num, record.target_id,
                    detail="host copy was modified after the last transfer",
                )
            if access.full_write:
                shadow.initialized = True
        return overhead

    def notify_host_write(self, host_addr: int, nbytes: int) -> None:
        """Record a host-side write to a mapped variable (stale-data tracking).

        Applications (or tests) call this to model host code mutating data
        whose device copy is live; a subsequent kernel read without an
        intervening ``target update`` is a use of stale data.  Buffer
        overflows are flagged when the write extends past the mapped size.
        """
        for (addr, _dev), shadow in self._shadow.items():
            if addr == host_addr and not shadow.freed:
                shadow.host_dirty = True
                if nbytes > shadow.nbytes:
                    self._report(
                        IssueKind.BO, shadow.variable, shadow.device_num, None,
                        detail=f"host write of {nbytes} bytes exceeds mapped {shadow.nbytes}",
                    )

    # ------------------------------------------------------------------ #
    def _report(
        self,
        kind: IssueKind,
        variable: str,
        device_num: int,
        target_id: Optional[int] = None,
        *,
        detail: str = "",
    ) -> None:
        dedup = (kind, variable, device_num)
        if dedup in self._reported:
            return
        self._reported.add(dedup)
        self.issues.append(
            CorrectnessIssue(
                kind=kind,
                variable=variable,
                device_num=device_num,
                target_id=target_id,
                detail=detail,
            )
        )

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def issue_kinds(self) -> list[str]:
        """Sorted unique issue-class abbreviations (Table 2 cell content)."""
        return sorted({issue.kind.name for issue in self.issues})

    def report_cell(self) -> str:
        """The Table 2 cell: issue classes, or ``N/A`` when nothing was found."""
        kinds = self.issue_kinds()
        return ", ".join(kinds) if kinds else "N/A"

    def render(self) -> str:
        if not self.issues:
            return "Arbalest-Vec: no data mapping anomalies detected."
        lines = ["Arbalest-Vec report:"]
        lines.extend(f"  - {issue}" for issue in self.issues)
        return "\n".join(lines)
