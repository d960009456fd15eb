"""Shared fixtures and trace-construction helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.detectors import _streaming
from repro.events.records import DataOpEvent, DataOpKind, TargetEvent, TargetKind
from repro.events.trace import Trace


class TraceBuilder:
    """Convenience builder for hand-written traces.

    Events are appended with automatically increasing sequence numbers and a
    simple advancing clock; every helper returns the created event so tests
    can refer to it later.
    """

    def __init__(self, num_devices: int = 1) -> None:
        self.trace = Trace(num_devices=num_devices, program_name="test")
        self._seq = 0
        self._time = 0.0

    # ------------------------------------------------------------------ #
    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _span(self, duration: float) -> tuple[float, float]:
        start = self._time
        self._time += duration
        return start, self._time

    @property
    def host(self) -> int:
        return self.trace.host_device_num

    # ------------------------------------------------------------------ #
    def alloc(self, host_addr: int, device_addr: int, nbytes: int = 1024,
              device: int = 0, duration: float = 1e-5, codeptr: int | None = None) -> DataOpEvent:
        start, end = self._span(duration)
        event = DataOpEvent(
            seq=self._next_seq(), kind=DataOpKind.ALLOC,
            src_device_num=self.host, dest_device_num=device,
            src_addr=host_addr, dest_addr=device_addr, nbytes=nbytes,
            start_time=start, end_time=end, codeptr=codeptr,
        )
        self.trace.append_data_op_event(event)
        return event

    def delete(self, host_addr: int, device_addr: int, nbytes: int = 1024,
               device: int = 0, duration: float = 5e-6, codeptr: int | None = None) -> DataOpEvent:
        start, end = self._span(duration)
        event = DataOpEvent(
            seq=self._next_seq(), kind=DataOpKind.DELETE,
            src_device_num=self.host, dest_device_num=device,
            src_addr=host_addr, dest_addr=device_addr, nbytes=nbytes,
            start_time=start, end_time=end, codeptr=codeptr,
        )
        self.trace.append_data_op_event(event)
        return event

    def h2d(self, host_addr: int, device_addr: int, content_hash: int, nbytes: int = 1024,
            device: int = 0, duration: float = 2e-5, codeptr: int | None = None) -> DataOpEvent:
        start, end = self._span(duration)
        event = DataOpEvent(
            seq=self._next_seq(), kind=DataOpKind.TRANSFER_TO_DEVICE,
            src_device_num=self.host, dest_device_num=device,
            src_addr=host_addr, dest_addr=device_addr, nbytes=nbytes,
            start_time=start, end_time=end, content_hash=content_hash, codeptr=codeptr,
        )
        self.trace.append_data_op_event(event)
        return event

    def d2h(self, host_addr: int, device_addr: int, content_hash: int, nbytes: int = 1024,
            device: int = 0, duration: float = 2e-5, codeptr: int | None = None) -> DataOpEvent:
        start, end = self._span(duration)
        event = DataOpEvent(
            seq=self._next_seq(), kind=DataOpKind.TRANSFER_FROM_DEVICE,
            src_device_num=device, dest_device_num=self.host,
            src_addr=device_addr, dest_addr=host_addr, nbytes=nbytes,
            start_time=start, end_time=end, content_hash=content_hash, codeptr=codeptr,
        )
        self.trace.append_data_op_event(event)
        return event

    def kernel(self, device: int = 0, duration: float = 1e-4,
               codeptr: int | None = None, name: str | None = None) -> TargetEvent:
        start, end = self._span(duration)
        event = TargetEvent(
            seq=self._next_seq(), kind=TargetKind.TARGET, device_num=device,
            start_time=start, end_time=end, codeptr=codeptr, name=name,
        )
        self.trace.append_target_event(event)
        return event

    def idle(self, duration: float) -> None:
        """Advance time without recording an event."""
        self._span(duration)

    def build(self) -> Trace:
        self.trace.total_runtime = max(self._time, self.trace.end_time)
        return self.trace


@pytest.fixture
def builder() -> TraceBuilder:
    return TraceBuilder()


class FileTouch:
    """Pickles as a call of ``open(path, "w")``: loading it creates a file.

    A hostile result blob for the carry codec's negative paths: only an
    unpickler that calls a global outside its allow-list creates the file.
    """

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


#: Fold targets a multi-batch test runs at: every shard its own detector
#: batch, a few shards coalesced per batch, and the default target, which
#: no test trace reaches (each folds as one batch).
FOLD_TARGETS = {"per-shard": 1, "small": 5, "default": _streaming.FOLD_BATCH_EVENTS}


@pytest.fixture(params=sorted(FOLD_TARGETS))
def fold_target(request):
    """Run the test with the detectors' coalescing target patched."""
    target = FOLD_TARGETS[request.param]
    with _streaming.fold_batch_target(target):
        yield target


@pytest.fixture
def small_arrays():
    """A few distinct numpy arrays used by runtime-level tests."""
    rng = np.random.default_rng(7)
    return {
        "a": rng.random(128),
        "b": rng.random(128),
        "c": rng.random(64),
        "flag": np.zeros(1),
    }
