"""Run every detector over a trace (or event stream) and aggregate findings."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from time import perf_counter
from typing import Optional

from repro.core.detectors.duplicates import DuplicateTransferPass, find_duplicate_transfers
from repro.core.detectors.findings import (
    DuplicateTransferGroup,
    RepeatedAllocationGroup,
    RoundTripGroup,
    UnusedAllocation,
    UnusedTransfer,
)
from repro.core.detectors.repeated_allocs import (
    RepeatedAllocationPass,
    find_repeated_allocations,
)
from repro.core.detectors.roundtrips import RoundTripPass, find_round_trips
from repro.core.detectors.table import FindingTable
from repro.core.detectors.unused_allocs import (
    UnusedAllocationPass,
    find_unused_allocations,
)
from repro.core.detectors.unused_transfers import (
    UnusedTransferPass,
    find_unused_transfers,
)
from repro.core.engine import PassSpec, SerialEngine, resolve_engine
from repro.core.potential import OptimizationPotential, estimate_potential
from repro.dwarf.debuginfo import DebugInfoRegistry
from repro.events.columnar import ColumnarTrace
from repro.events.protocol import EventStream, TraceLike
from repro.events.stream import trace_like_view
from repro.events.trace import Trace
from repro.events.validation import ValidationPass


@dataclass(frozen=True)
class IssueCounts:
    """The per-category issue counts reported in Table 1.

    Abbreviations follow Section 7.5: DD (duplicate data transfers), RT
    (round-trip data transfers), RA (repeated device memory allocations),
    UA (unused device memory allocations), UT (unused data transfers).
    """

    duplicate_transfers: int = 0
    round_trips: int = 0
    repeated_allocations: int = 0
    unused_allocations: int = 0
    unused_transfers: int = 0

    @property
    def total(self) -> int:
        return (
            self.duplicate_transfers
            + self.round_trips
            + self.repeated_allocations
            + self.unused_allocations
            + self.unused_transfers
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "DD": self.duplicate_transfers,
            "RT": self.round_trips,
            "RA": self.repeated_allocations,
            "UA": self.unused_allocations,
            "UT": self.unused_transfers,
        }

    def issue_classes(self) -> list[str]:
        """The non-empty issue classes, in Table 2's abbreviation form."""
        return [name for name, count in self.as_dict().items() if count > 0]


@dataclass
class AnalysisReport:
    """Aggregated result of running all five detectors on one trace.

    ``findings`` is the columnar :class:`FindingTable` the counts, the
    potential and the rendered report are computed from; the per-category
    attributes (``duplicate_groups`` …) are finding-object views of it,
    built from its gathered columns on first access and cached.
    """

    trace: TraceLike
    counts: IssueCounts
    findings: FindingTable
    potential: OptimizationPotential
    debug_info: Optional[DebugInfoRegistry] = None

    @property
    def duplicate_groups(self) -> list[DuplicateTransferGroup]:
        return self.findings.objects("duplicate_transfers")

    @property
    def round_trip_groups(self) -> list[RoundTripGroup]:
        return self.findings.objects("round_trips")

    @property
    def repeated_alloc_groups(self) -> list[RepeatedAllocationGroup]:
        return self.findings.objects("repeated_allocations")

    @property
    def unused_allocations(self) -> list[UnusedAllocation]:
        return self.findings.objects("unused_allocations")

    @property
    def unused_transfers(self) -> list[UnusedTransfer]:
        return self.findings.objects("unused_transfers")

    @property
    def has_issues(self) -> bool:
        return self.counts.total > 0

    def render(self) -> str:
        """Human-readable report (see :mod:`repro.core.report`)."""
        from repro.core.report import render_report

        return render_report(self)

    def summary(self) -> dict:
        return {
            "program_name": self.trace.program_name,
            "counts": self.counts.as_dict(),
            "potential": self.potential.as_dict(),
        }


@dataclass
class StreamAnalysisReport(AnalysisReport):
    """An :class:`AnalysisReport` that also carries how the run executed.

    :func:`analyze_stream` returns this so callers stop reaching into
    ``engine.stats`` by side channel: the engine's name, its final
    ``stats`` block (the stable contract documented on
    :func:`repro.core.engine.resolve_engine`), and coarse wall/overhead
    timings travel with the findings.

    ``findings_by_pass`` exposes the per-pass findings as a mapping keyed
    by detector name.
    """

    #: Registry name of the engine that ran the folds (e.g. "distributed").
    engine_name: str = "serial"
    #: Snapshot of ``engine.stats`` after the run ({} for engines
    #: that report none).
    engine_stats: dict = field(default_factory=dict)
    #: Coarse timings: ``wall_seconds`` (whole analysis),
    #: ``engine_seconds`` (fold/finalize inside ``engine.run``), and
    #: ``overhead_seconds`` (assembly outside the engine).
    timings: dict = field(default_factory=dict)

    @property
    def findings_by_pass(self) -> dict[str, list]:
        """Per-pass findings keyed by detector name, in pass order."""
        return {
            "duplicate_transfers": self.duplicate_groups,
            "round_trips": self.round_trip_groups,
            "repeated_allocations": self.repeated_alloc_groups,
            "unused_allocations": self.unused_allocations,
            "unused_transfers": self.unused_transfers,
        }


def analyze_trace(
    trace: Trace | ColumnarTrace,
    *,
    debug_info: Optional[DebugInfoRegistry] = None,
) -> AnalysisReport:
    """Run Algorithms 1–5 over a trace and estimate the optimization potential.

    Both trace representations are accepted, one per implementation of the
    algorithms: a columnar trace is one batch of an event stream, folded by
    the same streaming passes as :func:`analyze_stream` on the serial
    engine; an object trace goes through the object oracles, the paper's
    reference semantics.  The findings are identical either way (the
    differential property test holds the two paths to bit-identical output).
    """
    num_devices = max(trace.num_devices, 1)

    if isinstance(trace, ColumnarTrace):
        findings = SerialEngine().run(_pass_specs(num_devices), trace)
    else:
        data_ops = trace.data_op_events
        targets = trace.target_events
        findings = FindingTable.from_findings((
            find_duplicate_transfers(data_ops),
            find_round_trips(data_ops),
            find_repeated_allocations(data_ops),
            find_unused_allocations(targets, data_ops, num_devices),
            find_unused_transfers(targets, data_ops, num_devices),
        ))
    return _assemble_report(trace, findings, debug_info)


def analyze_stream(
    stream: EventStream,
    *,
    debug_info: Optional[DebugInfoRegistry] = None,
    jobs: int = 1,
    engine: str = "serial",
    validate: bool = False,
) -> StreamAnalysisReport:
    """Run Algorithms 1–5 incrementally over an event stream.

    Each detector is one fold/finalize pass in O(carry) memory, so a trace
    never has to fit in memory; findings are bit-identical to
    :func:`analyze_trace` over the merged trace (the differential property
    tests enforce this).  ``engine`` picks how the folds execute (see
    :mod:`repro.core.engine`):

    * ``"serial"`` (default) — every pass as one pass group in the
      calling process: ONE sequential scan loads each shard once and
      hands it to all five folds, on the calling thread.  It ignores
      ``jobs``.
    * ``"process"`` — pass groups on process workers: the passes are
      split into ``min(jobs, passes)`` groups balanced by static per-pass
      weights, and each worker re-opens the store from its picklable
      transport spec, folds its whole group in ONE serial scan, finalizes
      it and returns only the finding parts — no carries, no merge
      (validation, when on, joins one group).  It
      scales to one worker per pass and is bounded by its heaviest group;
      requires a :class:`~repro.events.store.ShardedTraceStore`, over any
      transport.
    * ``"distributed"`` — the process engine's pass-group tasks, leased
      from a transport-backed task queue (:mod:`repro.core.distributed`),
      which is what lets the fold work leave the machine entirely: by
      default the coordinator spawns one loopback worker process per
      group over a scratch queue, or it attaches to an existing queue
      whose workers were started anywhere with ``ompdataperf worker
      --queue`` (requires a :class:`~repro.events.store.ShardedTraceStore`).

    ``engine`` may also be an engine spec string with options
    (``"distributed:lease_timeout=10,run_timeout=300"``), an
    :class:`~repro.core.engine.EngineConfig`, or an
    :class:`~repro.core.engine.ExecutionEngine` instance (what the CLI
    passes after resolving with degradation, or a configured
    :class:`~repro.core.distributed.DistributedEngine`).
    Output is identical for every engine and every ``jobs`` value.

    With ``validate=True`` trace validation
    (:class:`~repro.events.validation.ValidationPass`) joins the pass list
    and runs in the same scan: an invalid stream raises
    :class:`~repro.events.validation.TraceValidationError` with the
    message of :func:`~repro.events.validation.validate_stream`, on every
    engine, and returns no findings.

    Returns a :class:`StreamAnalysisReport`: the findings plus the
    engine's name, its final ``stats`` block, and wall/overhead timings.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    started = perf_counter()
    eng = resolve_engine(engine)
    specs = _pass_specs(max(stream.num_devices, 1))
    if validate:
        check = {"num_devices": stream.num_devices, "total_runtime": stream.total_runtime}
        specs = (*specs, PassSpec(ValidationPass, check))
    run_started = perf_counter()
    findings = eng.run(specs, stream, jobs=jobs)
    engine_seconds = perf_counter() - run_started

    report = _assemble_report(trace_like_view(stream), findings, debug_info)
    wall = perf_counter() - started
    from repro.core.engine import engine_registry_name

    return StreamAnalysisReport(
        **{f.name: getattr(report, f.name) for f in fields(AnalysisReport)},
        engine_name=engine_registry_name(eng),
        engine_stats=dict(getattr(eng, "stats", {}) or {}),
        timings={
            "wall_seconds": wall,
            "engine_seconds": engine_seconds,
            "overhead_seconds": max(0.0, wall - engine_seconds),
        },
    )


def _pass_specs(num_devices: int) -> tuple[PassSpec, ...]:
    """The five detector passes, in report order."""
    return (
        PassSpec(DuplicateTransferPass),
        PassSpec(RoundTripPass),
        PassSpec(RepeatedAllocationPass),
        PassSpec(UnusedAllocationPass, {"num_devices": num_devices}),
        PassSpec(UnusedTransferPass, {"num_devices": num_devices}),
    )


def _assemble_report(
    trace: TraceLike,
    findings: FindingTable,
    debug_info: Optional[DebugInfoRegistry],
) -> AnalysisReport:
    return AnalysisReport(
        trace=trace,
        counts=IssueCounts(*findings.issue_counts()),
        findings=findings,
        potential=estimate_potential(trace, findings=findings),
        debug_info=debug_info,
    )
