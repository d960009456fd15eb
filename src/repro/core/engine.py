"""Pluggable execution engines for the streaming detector passes.

:func:`repro.core.analysis.analyze_stream` runs five
:class:`~repro.core.detectors._streaming.StreamingPass` folds over one
stream, plus the trace-validation guard pass when validating.  How those
folds execute is this module's job, behind one :class:`ExecutionEngine`
protocol with three backends:

* :class:`SerialEngine` — every pass as ONE pass group, run in the
  calling process: one scan loads each shard once and hands it to every
  fold, on the calling thread.
* :class:`ProcessEngine` — *pass groups* on process workers, which is
  what lets the fold work leave the GIL.  The five detectors are
  independent folds over one trace, so the passes are split into
  ``min(jobs, passes)`` groups balanced by a static per-pass weight
  (:func:`pass_groups`), and each worker gets one group: it re-opens the
  store from its picklable **transport spec**
  (:func:`~repro.events.transport.transport_from_spec`), folds its whole
  group in ONE scan exactly as the serial engine would, and finalizes
  the passes in place.  Only the spec, the pass recipes and the finished
  :class:`~repro.core.detectors.table.FindingPart` objects cross the
  process boundary — no carries, no merge.  The store can live behind
  *any* transport (a local directory, a zip archive, an object store);
  the parent then gathers the finding rows in one targeted scan.  It
  scales to one worker per pass and is bounded by its heaviest group.
* ``DistributedEngine`` (in :mod:`repro.core.distributed`) — the same
  pass-group tasks leased from a transport-backed queue by workers that
  may live on other machines.  It registers itself in :data:`ENGINES` on
  import (``repro.core`` imports it, so the registry is always complete).

The pass group is the one unit of work: every engine runs each group
through the one task function, :func:`run_pass_group`, and finishes
through :func:`gather_groups`, so every engine folds and finalizes each
pass with literally the same code and findings are bit-identical.
Engines are resolved by name through :data:`ENGINES` /
:func:`resolve_engine`, which is what the ``--engine`` CLI flag and the
``engine=`` keyword of ``analyze_stream`` speak.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional, Protocol, Sequence, runtime_checkable

from repro.core.detectors._streaming import StreamingPass, check_guards, fold_batches
from repro.core.detectors.table import FindingTable
from repro.events.protocol import EventStream


@dataclass(frozen=True)
class PassSpec:
    """A picklable recipe for one streaming pass.

    Engines instantiate passes on their workers (a pass instance is
    single-use and carries fold state), so they are handed recipes instead
    of instances; ``cls`` must be a module-level class for the spec to
    cross a process boundary by reference.
    """

    cls: type
    kwargs: Mapping = field(default_factory=dict)

    def build(self) -> StreamingPass:
        return self.cls(**dict(self.kwargs))


@runtime_checkable
class ExecutionEngine(Protocol):
    """How a set of streaming passes executes over one stream."""

    name: str

    def run(
        self, specs: Sequence[PassSpec], stream: EventStream, *, jobs: int = 1
    ) -> FindingTable:
        """Fold every spec's pass over ``stream`` and return the finalized
        findings (one table part per spec, gathered), identical to a
        sequential fold."""
        ...


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError("jobs must be at least 1")


# --------------------------------------------------------------------- #
# Engine configuration (spec strings)
# --------------------------------------------------------------------- #
_BOOL_WORDS = {
    "on": True, "true": True, "yes": True, "1": True,
    "off": False, "false": False, "no": False, "0": False,
}


def _opt_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise ValueError(
            f"expected on/off (or true/false, yes/no), got {text!r}"
        ) from None


def _opt_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _opt_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None


def _opt_str(text: str) -> str:
    return text


@dataclass(frozen=True)
class EngineConfig:
    """One parsed engine request: a registry name plus typed options.

    The unified configuration surface behind ``--engine`` and
    ``resolve_engine``: every per-engine constructor kwarg that used to
    need ad-hoc plumbing is addressable from one spec string::

        EngineConfig.parse("distributed:lease_timeout=10,run_timeout=300")
        EngineConfig.parse("process:keep_pool=on")
        EngineConfig.parse("serial")

    Option names and types come from each engine class's
    ``config_options`` mapping (``{name: converter}``); unknown engines
    and unknown or mistyped options fail at parse time with the full list
    of valid choices, not deep inside a constructor.
    """

    name: str
    options: Mapping = field(default_factory=dict)

    @classmethod
    def parse(cls, spec: str) -> "EngineConfig":
        name, _, rest = spec.partition(":")
        name = name.strip()
        if name not in ENGINES:
            raise ValueError(
                f"unknown execution engine {name!r}; "
                f"available: {', '.join(available_engines())}"
            )
        converters = engine_config_options(name)
        options: dict = {}
        for item in rest.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ValueError(
                    f"engine option {item!r} is not of the form key=value "
                    f"(in spec {spec!r})"
                )
            if key not in converters:
                known = ", ".join(sorted(converters)) or "none"
                raise ValueError(
                    f"unknown option {key!r} for engine {name!r}; "
                    f"known options: {known}"
                )
            try:
                options[key] = converters[key](value.strip())
            except ValueError as exc:
                raise ValueError(
                    f"bad value for engine option {key!r}: {exc}"
                ) from None
        return cls(name=name, options=options)

    def spec(self) -> str:
        """The spec string this config round-trips to."""
        if not self.options:
            return self.name
        rendered = ",".join(f"{k}={v}" for k, v in sorted(self.options.items()))
        return f"{self.name}:{rendered}"

    def build(self) -> "ExecutionEngine":
        return ENGINES[self.name](**dict(self.options))


def engine_config_options(name: str) -> Mapping:
    """The ``{option: converter}`` mapping an engine accepts in a spec."""
    try:
        engine_cls = ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown execution engine {name!r}; "
            f"available: {', '.join(available_engines())}"
        ) from None
    return getattr(engine_cls, "config_options", {})


def _ticking(batches, tick):
    """Pass ``batches`` through, calling ``tick(events)`` once the scan
    asks for the next one (the fold-position hook).

    ``fold_batches`` asks when a shard has been read; every pass folds it
    with its coalesced group, so the tick runs up to one group ahead of
    the folds.  The parallel engines' workers tick this way: the warm
    pool's shared counters and the distributed worker's beat blobs.
    """
    for batch in batches:
        yield batch
        tick(batch.num_data_op_events + batch.num_target_events)


def run_pass_group(stream, specs: Sequence[PassSpec], tick=None) -> list:
    """Fold a pass group over ONE scan of ``stream`` and finalize it.

    The task function of every engine: the serial engine runs all specs as
    one group in the calling process, the warm pool's workers and the
    distributed engine's queue workers each run one group of
    :func:`pass_groups`.  ``tick``, when given, is the fold-position hook
    (see :func:`_ticking`).

    Returns one payload per spec: a detector's finding part, or a guard
    pass itself, for :func:`gather_groups` to check.  The guards are
    checked here first: when one fails, the detectors beside it are not
    finalized (their payload is ``None``) and the gather's check raises
    the error.  Each pass is dropped as soon as it is finalized, so one
    carry at a time turns into findings.
    """
    passes = [spec.build() for spec in specs]
    batches = stream.batches()
    fold_batches(passes, batches if tick is None else _ticking(batches, tick))
    try:
        check_guards(passes)
    except Exception:
        return [pass_ if pass_.guard else None for pass_ in passes]
    payloads = []
    while passes:
        pass_ = passes.pop(0)
        payloads.append(pass_ if pass_.guard else pass_.finalize())
    return payloads


def pass_groups(specs: Sequence[PassSpec], n: int) -> list[list[int]]:
    """Split ``specs`` into ``min(n, len(specs))`` groups of spec indices.

    Longest-processing-time first over each pass class's static
    ``weight``: the heaviest spec not yet placed joins the lightest group
    (the lower index on a tie; equal weights keep spec order), so the
    split is deterministic and every group gets at least one spec.  Each
    group lists its indices in spec order, and a group holding a guard
    comes first, so its worker is the first one handed work.
    """
    n = min(n, len(specs))
    order = sorted(range(len(specs)), key=lambda i: -specs[i].cls.weight)
    groups: list[list[int]] = [[] for _ in range(n)]
    loads = [0.0] * n
    for index in order:
        lightest = loads.index(min(loads))
        groups[lightest].append(index)
        loads[lightest] += specs[index].cls.weight
    for group in groups:
        group.sort()
    groups.sort(key=lambda group: not any(specs[i].cls.guard for i in group))
    return groups


def _group_payloads(groups, landed) -> dict:
    """Spec index -> payload, for every group in ``landed`` (group
    position -> the group's payload list, see :func:`run_pass_group`)."""
    return {
        index: payload
        for position, payloads in landed.items()
        for index, payload in zip(groups[position], payloads)
    }


def check_landed_guards(specs, groups, landed) -> None:
    """Raise the error of a failed guard among the groups landed so far.

    The parallel engines call it as soon as the guard's group lands, so a
    detector that failed on an invalid stream in another group cannot
    hide the validation error.
    """
    payloads = _group_payloads(groups, landed)
    check_guards([payloads[i] for i in sorted(payloads) if specs[i].cls.guard])


def gather_groups(specs, groups, landed, stream) -> FindingTable:
    """The findings of a pass-group run, once every group has landed.

    Checks the guards, puts the detectors' finding parts back in report
    (spec) order and reads their rows in one shared gather — the last step
    of every engine.
    """
    check_landed_guards(specs, groups, landed)
    payloads = _group_payloads(groups, landed)
    return FindingTable.gather(
        [payloads[i] for i, spec in enumerate(specs) if not spec.cls.guard], stream
    )


class SerialEngine:
    """Every pass as one pass group, run in the calling process (the
    default).

    :func:`run_pass_group` folds all the specs over one scan, so each
    shard is loaded once and handed to every pass, then finalizes each
    pass and drops it; :func:`gather_groups` finishes the single group.
    Any stream works.  ``jobs`` is validated and otherwise ignored: the
    folds and finalizes all run on the calling thread.
    """

    name = "serial"

    def run(self, specs, stream, *, jobs: int = 1) -> FindingTable:
        _check_jobs(jobs)
        group = list(range(len(specs)))
        return gather_groups(specs, [group], {0: run_pass_group(stream, specs)}, stream)


def _open_store_from_spec(spec: dict):
    from repro.events.store import ShardedTraceStore
    from repro.events.transport import transport_from_spec

    return ShardedTraceStore.open(transport_from_spec(spec))


def _process_context():
    # fork keeps worker start-up (and the numpy import) off the critical
    # path, but it is only dependable on Linux — forked children crash in
    # Apple frameworks on macOS (why CPython dropped it as the default
    # there) — so elsewhere prefer forkserver, then portable spawn.
    methods = multiprocessing.get_all_start_methods()
    if sys.platform.startswith("linux") and "fork" in methods:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context("spawn")


class ProcessEngine:
    """Pass-group folds on a *warm* pool of worker processes.

    The only backend whose fold work runs off the GIL — and the only one
    with a requirement on the stream: it must be a
    :class:`~repro.events.store.ShardedTraceStore` (over any transport),
    because workers re-open it from its transport spec rather than
    receive events.

    The pass specs are split into ``min(jobs, len(specs))`` groups by
    :func:`pass_groups`, and each worker runs one group through
    :func:`run_pass_group`, the serial engine's task function: it folds
    every pass of its group in ONE scan from the stream head, finalizes
    them, and returns only their finding parts; the parent puts the parts
    back in report order and runs the one shared gather of the finding
    rows (:func:`gather_groups`).  ``jobs=1`` is no special case: its one
    group runs on one pool worker, with the same stats.  A guard
    spec (trace validation) joins one of the groups, whose worker checks
    it before finalizing the detectors beside it and returns the folded
    guard itself.  That group is handed out first, and the parent collects
    it and checks the guard before any other group, so a failed check
    raises its own error ahead of any detector's.  No carry is shipped or
    merged, and a one-shard store parallelises
    as well as a large one.  The cost is the ceiling: at most one worker
    per pass, and a run is bounded by its heaviest group (at one pass per
    worker, the duplicates pass).  The distributed engine runs the same
    group tasks on workers that may live on other machines.

    The per-task constants are amortised:

    * workers come from a :class:`~repro.core.pool.WarmWorkerPool` — each
      process spawns once and serves every run of a kept pool;
    * each worker opens the store once and keeps it across tasks.

    Each worker loads every shard of its scan itself: a local ``.odpf``
    shard is mapped in place, an ``.odpf`` shard behind a zip archive or
    an object store is read and viewed in place, and an ``.npz`` shard is
    read and decoded.  So a run reports ``decode_count + map_count ==
    tasks × shards``, and a kept pool decodes an ``.npz`` store again on
    every run (``ompdataperf trace migrate`` rewrites it as ``.odpf``).

    With ``keep_pool=True`` the pool and the per-worker stores survive
    across ``run()`` calls (close with :meth:`close` or use the engine as
    a context manager).  After every run :attr:`stats`
    holds the overhead breakdown the engine benchmarks record.
    """

    name = "process"

    #: Options addressable from an ``EngineConfig`` spec string
    #: (``"process:keep_pool=on"``).
    config_options = {"keep_pool": _opt_bool}

    def __init__(self, *, keep_pool: bool = False) -> None:
        self.keep_pool = keep_pool
        self._pool = None
        self._spawned_total = 0
        #: overhead breakdown of the most recent run (empty before any)
        self.stats: dict = {}

    # ------------------------------------------------------------------ #
    def run(self, specs, stream, *, jobs: int = 1) -> FindingTable:
        _check_jobs(jobs)
        from repro.events.store import ShardedTraceStore

        if not isinstance(stream, ShardedTraceStore):
            raise TypeError(
                "the process engine sends transport specs to its workers "
                "and requires a ShardedTraceStore; shard the trace first "
                "(shard_trace / `ompdataperf trace shard`) or use the "
                "serial engine"
            )
        spec = stream.transport.spec()
        groups = pass_groups(specs, jobs)
        try:
            pool, spawn_seconds_now = self._ensure_pool(len(groups))
            job_ids = [
                pool.submit_group(worker, spec, [specs[i] for i in group])
                for worker, group in enumerate(groups)
            ]
            # Guard groups come first: their verdict is checked before the
            # other groups are collected, so a detector that failed on an
            # invalid stream there cannot hide the validation error.
            guarded = sum(any(specs[i].cls.guard for i in group) for group in groups)
            results = pool.collect(job_ids[:guarded])
            check_landed_guards(
                specs, groups, {k: results[job_ids[k]][0] for k in range(guarded)}
            )
            results.update(pool.collect(job_ids[guarded:]))
            self.stats = self._build_stats(
                [results[job][1] for job in job_ids], pool.num_workers, spawn_seconds_now
            )
            return gather_groups(
                specs, groups, {k: results[job][0] for k, job in enumerate(job_ids)}, stream
            )
        except BaseException:
            # Any failure — a dead worker, a KeyboardInterrupt mid-gather —
            # tears the pool down, even in keep-pool mode: a kept pool may
            # hold a wedged worker or unread results of the failed run.
            self.close()
            raise
        finally:
            if not self.keep_pool:
                self.close()

    # ------------------------------------------------------------------ #
    def _ensure_pool(self, workers: int):
        from repro.core.pool import WarmWorkerPool

        if self._pool is not None and self._pool.num_workers != workers:
            self.close()
        if self._pool is None:
            self._pool = WarmWorkerPool(workers, mp_context=_process_context())
            self._spawned_total += self._pool.spawn_count
            return self._pool, self._pool.spawn_seconds
        return self._pool, 0.0

    def _build_stats(self, task_stats, workers: int, spawn_seconds: float) -> dict:
        open_seconds = sum(s["open_seconds"] for s in task_stats)
        decode_seconds = sum(s["decode_seconds"] for s in task_stats)
        map_seconds = sum(s["map_seconds"] for s in task_stats)
        fold_seconds = sum(s["fold_seconds"] for s in task_stats)
        overhead = spawn_seconds + open_seconds + decode_seconds + map_seconds
        return {
            "spawn_count": self._spawned_total,
            "spawn_seconds": spawn_seconds,
            "tasks": len(task_stats),
            "workers": workers,
            "pool_reuse": sum(1 for s in task_stats if s["task_no"] > 1),
            "open_seconds": open_seconds,
            "decode_seconds": decode_seconds,
            "decode_count": sum(s["decode_count"] for s in task_stats),
            "map_seconds": map_seconds,
            "map_count": sum(s["map_count"] for s in task_stats),
            "fold_seconds": fold_seconds,
            "overhead_seconds": overhead,
            "overhead_per_task": overhead / max(1, len(task_stats)),
        }

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "ProcessEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


#: Engine registry, keyed by the names the CLI exposes.  The distributed
#: engine registers itself here when :mod:`repro.core.distributed` is
#: imported (``repro.core``'s package init does, so the registry is
#: complete before any CLI or test reads it).
ENGINES: dict[str, type] = {
    SerialEngine.name: SerialEngine,
    ProcessEngine.name: ProcessEngine,
}


def available_engines() -> list[str]:
    return sorted(ENGINES)


def engine_registry_name(engine) -> str:
    """The registry name of an engine instance ("serial", "process", ...)."""
    return getattr(type(engine), "name", type(engine).__name__)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def process_engine_fallback_reason(jobs: Optional[int] = None) -> Optional[str]:
    """Why the process engine would not help here, or ``None`` if it can.

    The process engine exists to scale GIL-bound folds across cores; on a
    single-core machine its workers only add fork/pickle overhead (the
    BENCH_engine record shows process slower than serial at one core), and
    on a platform where multiprocessing cannot start workers at all it
    simply fails.  Callers that prefer degradation over
    surprises (the CLI) check this before resolving ``"process"``.
    """
    if jobs is not None and jobs < 2:
        return "a single analysis worker was requested (--jobs 1)"
    cores = _usable_cores()
    if cores < 2:
        return (
            f"only {cores} usable core{'s' if cores != 1 else ''}: process "
            "workers would oversubscribe the machine"
        )
    try:
        methods = multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - broken multiprocessing backend
        methods = []
    if not methods:
        return "this platform has no multiprocessing start method (no fork or spawn)"
    return None


def resolve_engine(engine, *, jobs: Optional[int] = None, degrade: bool = False) -> ExecutionEngine:
    """Resolve an engine request (name, spec string, config or instance).

    Accepts a registry name (``"serial"``, ``"process"``,
    ``"distributed"``), a spec string with options
    (``"distributed:lease_timeout=10,run_timeout=300"``), an
    :class:`EngineConfig`, an :class:`ExecutionEngine` instance, or
    ``None`` for the default serial engine.  With ``degrade=True`` a
    ``"process"`` request on a machine where it cannot help — a single
    usable core, one worker, or a platform without a multiprocessing
    start method — emits a :class:`RuntimeWarning` and falls back to the
    serial engine instead of oversubscribing (findings are identical on
    every engine, so only throughput is at stake).

    Stable stats contract: after ``run()`` every engine exposes a
    ``stats`` dict (possibly empty).  Keys, once published in a release,
    are only ever *added*, never renamed or removed — callers may rely on
    ``stats.get("tasks")``, the process engine's overhead breakdown
    (``spawn/open/decode/map/fold_seconds``, ``overhead_seconds``) and
    the distributed engine's coordinator block (``requeued``,
    ``respawned``, ``speculative_launches``, ``debris_blobs``,
    ``duplicate_results``).  Three keys are retired.
    ``peak_unmerged_chains`` counted the distributed coordinator's
    un-merged partition carries, and its tasks are pass groups now, whose
    payloads are never merged.  The process engine's shard-cache hit count
    went with its shared decoded-shard cache: every worker now maps or
    decodes each shard it scans itself.  ``hints`` held the distributed
    coordinator's autoscaling snapshot, which went because a run has at
    most six tasks, too few for a fleet size to follow.  The structured way to read the
    stats is :attr:`repro.core.analysis.StreamAnalysisReport.engine_stats`.
    """
    if engine is None:
        return SerialEngine()
    if isinstance(engine, str):
        engine = EngineConfig.parse(engine)
    if isinstance(engine, EngineConfig):
        if engine.name == ProcessEngine.name and degrade:
            reason = process_engine_fallback_reason(jobs)
            if reason is not None:
                warnings.warn(
                    f"the process engine cannot speed this machine up "
                    f"({reason}); falling back to the serial engine",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return SerialEngine()
        return engine.build()
    if isinstance(engine, ExecutionEngine):
        return engine
    raise TypeError(f"cannot use {type(engine).__name__} as an execution engine")
