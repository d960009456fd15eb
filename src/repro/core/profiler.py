"""The high-level OMPDataPerf entry point.

Usage mirrors the real tool's ``ompdataperf ./program args`` workflow, except
that "programs" here are Python callables written against the offload
runtime simulator::

    tool = OMPDataPerf()
    result = tool.profile(my_program, program_name="bfs")
    print(result.analysis.render())

``profile`` runs the program with the trace collector attached (and its
overhead charged to the virtual clock); ``run_uninstrumented`` runs the same
program without any tool, which is how the overhead experiment obtains its
baseline.  ``analyze`` post-processes a previously recorded trace, the
offline half of the tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.analysis import (
    AnalysisReport,
    StreamAnalysisReport,
    analyze_stream,
    analyze_trace,
)
from repro.core.collector import TraceCollector
from repro.core.overhead import OverheadModel
from repro.dwarf.debuginfo import DebugInfoRegistry
from repro.events.columnar import ColumnarTrace
from repro.events.store import ShardedTraceStore, TraceWriter
from repro.events.stream import DEFAULT_SHARD_EVENTS
from repro.events.trace import Trace
from repro.events.validation import validate_trace

# Stream validation runs as a pass inside the analysis scan, so this module
# never calls ``validate_stream``; it stays importable from here because the
# repository benchmark's traced run wraps ``repro.core.profiler.validate_stream``
# by name.
from repro.events.validation import validate_stream  # noqa: F401
from repro.hashing import DEFAULT_HASHER
from repro.hashing.base import Hasher
from repro.omp.costmodel import CostModel
from repro.omp.runtime import OffloadRuntime
from repro.ompt.interface import OmptInterface

#: A "program": a callable that drives an :class:`OffloadRuntime`.
Program = Callable[[OffloadRuntime], None]


@dataclass
class ProfileResult:
    """Everything produced by one instrumented run.

    ``trace`` is the collector's columnar store; its Trace-compatible read
    API (and ``to_trace()``) covers consumers that want object events.
    """

    trace: ColumnarTrace
    analysis: AnalysisReport
    #: virtual runtime of the instrumented run (includes tool overhead)
    instrumented_runtime: float
    #: portion of the instrumented runtime attributed to the tool
    tool_overhead: float
    collector: TraceCollector
    debug_info: DebugInfoRegistry

    @property
    def native_runtime_estimate(self) -> float:
        """Instrumented runtime with the tool's own overhead subtracted."""
        return max(self.instrumented_runtime - self.tool_overhead, 0.0)

    @property
    def space_overhead_bytes(self) -> int:
        return self.trace.space_overhead_bytes()

    def render_report(self) -> str:
        return self.analysis.render()


@dataclass
class StreamingProfileResult:
    """Everything produced by one bounded-memory instrumented run.

    ``store`` is the on-disk sharded trace the collector flushed into;
    ``analysis`` holds the findings of the incremental detector passes.
    """

    store: ShardedTraceStore
    analysis: StreamAnalysisReport
    instrumented_runtime: float
    tool_overhead: float
    collector: TraceCollector
    debug_info: DebugInfoRegistry

    @property
    def native_runtime_estimate(self) -> float:
        return max(self.instrumented_runtime - self.tool_overhead, 0.0)

    @property
    def space_overhead_bytes(self) -> int:
        return self.store.space_overhead_bytes()

    def render_report(self) -> str:
        return self.analysis.render()


class OMPDataPerf:
    """Portable, low-overhead detector of inefficient data-mapping patterns."""

    def __init__(
        self,
        *,
        hasher: str | Hasher = DEFAULT_HASHER,
        overhead_model: Optional[OverheadModel] = OverheadModel(),
        audit_collisions: bool = False,
        validate: bool = True,
    ) -> None:
        self.hasher = hasher
        self.overhead_model = overhead_model
        self.audit_collisions = audit_collisions
        self.validate = validate

    # ------------------------------------------------------------------ #
    def attach(self, runtime: OffloadRuntime) -> TraceCollector:
        """Attach a fresh trace collector to an existing runtime."""
        collector = TraceCollector(
            hasher=self.hasher,
            overhead_model=self.overhead_model,
            audit_collisions=self.audit_collisions,
        )
        runtime.ompt.connect_tool(collector)
        return collector

    def profile(
        self,
        program: Program,
        *,
        num_devices: int = 1,
        cost_model: Optional[CostModel] = None,
        device_memory_capacity: int = 40 * (1 << 30),
        program_name: Optional[str] = None,
    ) -> ProfileResult:
        """Run ``program`` with the collector attached and analyze the trace."""
        ompt = OmptInterface()
        collector = TraceCollector(
            hasher=self.hasher,
            overhead_model=self.overhead_model,
            audit_collisions=self.audit_collisions,
        )
        ompt.connect_tool(collector)
        runtime = OffloadRuntime(
            num_devices=num_devices,
            cost_model=cost_model,
            ompt=ompt,
            device_memory_capacity=device_memory_capacity,
            program_name=program_name,
        )
        program(runtime)
        total_runtime = runtime.finish()
        trace = collector.finish_trace(total_runtime=total_runtime, program_name=program_name)
        if self.validate:
            validate_trace(trace)
        analysis = analyze_trace(trace, debug_info=runtime.debug_info)
        return ProfileResult(
            trace=trace,
            analysis=analysis,
            instrumented_runtime=total_runtime,
            tool_overhead=runtime.clock.tool_overhead,
            collector=collector,
            debug_info=runtime.debug_info,
        )

    def profile_streaming(
        self,
        program: Program,
        store_path,
        *,
        shard_events: int = DEFAULT_SHARD_EVENTS,
        num_devices: int = 1,
        cost_model: Optional[CostModel] = None,
        device_memory_capacity: int = 40 * (1 << 30),
        program_name: Optional[str] = None,
        jobs: int = 1,
        engine: str = "serial",
    ) -> "StreamingProfileResult":
        """Run ``program`` with the collector flushing shards to disk.

        Ingest memory stays O(``shard_events``) regardless of trace length;
        the analysis then runs the incremental detectors over the resulting
        :class:`~repro.events.store.ShardedTraceStore` on the chosen
        execution engine (``engine="process"`` folds ``jobs`` pass groups
        on worker processes — see :mod:`repro.core.engine`).  ``engine`` accepts the same spec
        strings as :func:`repro.core.analysis.analyze_stream`
        (``"distributed:lease_timeout=10,run_timeout=300"``); the returned
        result's ``analysis`` is a
        :class:`~repro.core.analysis.StreamAnalysisReport` carrying the
        engine's name, stats block, and timings.
        """
        writer = TraceWriter(
            store_path,
            shard_events=shard_events,
            num_devices=num_devices,
            program_name=program_name,
        )
        ompt = OmptInterface()
        collector = TraceCollector(
            hasher=self.hasher,
            overhead_model=self.overhead_model,
            audit_collisions=self.audit_collisions,
            writer=writer,
        )
        ompt.connect_tool(collector)
        runtime = OffloadRuntime(
            num_devices=num_devices,
            cost_model=cost_model,
            ompt=ompt,
            device_memory_capacity=device_memory_capacity,
            program_name=program_name,
        )
        program(runtime)
        total_runtime = runtime.finish()
        store = collector.finish_store(
            total_runtime=total_runtime, program_name=program_name
        )
        analysis = analyze_stream(
            store,
            debug_info=runtime.debug_info,
            jobs=jobs,
            engine=engine,
            validate=self.validate,
        )
        return StreamingProfileResult(
            store=store,
            analysis=analysis,
            instrumented_runtime=total_runtime,
            tool_overhead=runtime.clock.tool_overhead,
            collector=collector,
            debug_info=runtime.debug_info,
        )

    def analyze(
        self,
        trace: Trace | ColumnarTrace,
        *,
        debug_info: Optional[DebugInfoRegistry] = None,
    ) -> AnalysisReport:
        """Offline analysis of a previously recorded (or loaded) trace."""
        if self.validate:
            validate_trace(trace)
        return analyze_trace(trace, debug_info=debug_info)

    def analyze_stream(
        self,
        stream,
        *,
        debug_info: Optional[DebugInfoRegistry] = None,
        jobs: int = 1,
        engine: str = "serial",
    ) -> StreamAnalysisReport:
        """Offline incremental analysis of an event stream (sharded store).

        With ``validate`` on (the default) the stream is validated in the
        same scan as the detector folds; an invalid stream raises
        :class:`~repro.events.validation.TraceValidationError`.
        """
        return analyze_stream(
            stream, debug_info=debug_info, jobs=jobs, engine=engine, validate=self.validate
        )


def run_uninstrumented(
    program: Program,
    *,
    num_devices: int = 1,
    cost_model: Optional[CostModel] = None,
    device_memory_capacity: int = 40 * (1 << 30),
    program_name: Optional[str] = None,
) -> float:
    """Run a program with no tool attached and return its virtual runtime.

    This is the "native execution" baseline against which the instrumented
    run is compared when reproducing the runtime-overhead results (Figure 2).
    """
    runtime = OffloadRuntime(
        num_devices=num_devices,
        cost_model=cost_model,
        device_memory_capacity=device_memory_capacity,
        program_name=program_name,
    )
    program(runtime)
    return runtime.finish()
