"""The OMPT interface object connecting the runtime simulator to tools.

A tool registers callbacks with :meth:`OmptInterface.set_callback` (or is
connected wholesale via :meth:`OmptInterface.connect_tool`, the analogue of
``ompt_start_tool``).  The runtime calls the ``emit_*`` methods; each
returns the number of *seconds of tool overhead* incurred handling the
callback, which the runtime charges to the virtual clock.  That single
number is how the runtime-overhead evaluation (Figure 2) is driven: a run
with no tool attached sees zero overhead on every emission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, runtime_checkable

from repro.ompt.callbacks import (
    CallbackType,
    TargetDataOpRecord,
    TargetRecord,
    TargetSubmitRecord,
)

#: A callback receives the record and returns its overhead in seconds
#: (or ``None``, treated as zero).
CallbackFn = Callable[[object], Optional[float]]


@runtime_checkable
class OmptTool(Protocol):
    """Protocol for tools connectable via :meth:`OmptInterface.connect_tool`."""

    def initialize(self, interface: "OmptInterface") -> None:
        """Register callbacks; called once when the tool is connected."""

    def finalize(self) -> None:
        """Called when the monitored program finishes."""


@dataclass
class OmptInterface:
    """Callback registry and dispatcher."""

    #: Version string reported to tools; mirrors the paper's requirement of
    #: an OpenMP 5.1 runtime with EMI callback support.
    interface_version: str = "5.1"
    _callbacks: dict[CallbackType, list[CallbackFn]] = field(default_factory=dict)
    _tools: list[OmptTool] = field(default_factory=list)
    #: number of emissions per callback type (diagnostics / tests)
    emission_counts: dict[CallbackType, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def set_callback(self, callback_type: CallbackType, fn: CallbackFn) -> None:
        """Register ``fn`` for ``callback_type`` (multiple tools may register)."""
        if not isinstance(callback_type, CallbackType):
            raise TypeError(f"expected CallbackType, got {callback_type!r}")
        if not callable(fn):
            raise TypeError("callback must be callable")
        self._callbacks.setdefault(callback_type, []).append(fn)

    def connect_tool(self, tool: OmptTool) -> OmptTool:
        """Connect a tool (the ``ompt_start_tool`` analogue) and return it."""
        tool.initialize(self)
        self._tools.append(tool)
        return tool

    def finalize_tools(self) -> None:
        """Notify every connected tool that the program has finished."""
        for tool in self._tools:
            tool.finalize()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, callback_type: CallbackType, record: object) -> float:
        self.emission_counts[callback_type] = self.emission_counts.get(callback_type, 0) + 1
        callbacks = self._callbacks.get(callback_type)
        if not callbacks:
            return 0.0
        overhead = 0.0
        for fn in callbacks:
            result = fn(record)
            if result is not None:
                if result < 0.0:
                    raise ValueError("callback overhead cannot be negative")
                overhead += float(result)
        return overhead

    def emit_device_initialize(self, device_num: int) -> float:
        return self._dispatch(CallbackType.DEVICE_INITIALIZE, device_num)

    def emit_device_finalize(self, device_num: int) -> float:
        return self._dispatch(CallbackType.DEVICE_FINALIZE, device_num)

    def emit_target(self, record: TargetRecord) -> float:
        return self._dispatch(CallbackType.TARGET_EMI, record)

    def emit_target_submit(self, record: TargetSubmitRecord) -> float:
        return self._dispatch(CallbackType.TARGET_SUBMIT_EMI, record)

    def emit_target_data_op(self, record: TargetDataOpRecord) -> float:
        return self._dispatch(CallbackType.TARGET_DATA_OP_EMI, record)
