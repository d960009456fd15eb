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
import queue as queue_mod
import sys
import traceback
import warnings
from dataclasses import dataclass, field
from time import perf_counter
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
    the folds.  The distributed worker ticks this way: its beat blobs
    carry the fold position.
    """
    for batch in batches:
        yield batch
        tick(batch.num_data_op_events + batch.num_target_events)


def run_pass_group(stream, specs: Sequence[PassSpec], tick=None) -> list:
    """Fold a pass group over ONE scan of ``stream`` and finalize it.

    The task function of every engine: the serial engine runs all specs as
    one group in the calling process, the process engine's workers and the
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


def scan_counters(store, run):
    """Call ``run()`` and return ``(result, counters)``.

    ``counters`` is the store's load accounting over the call: map
    seconds and count, plus ``fold_seconds``, the rest of the call's wall
    time: the per-task keys of :attr:`ProcessEngine.stats`.
    """
    map0, mapc0 = store.map_seconds, store.map_count
    started = perf_counter()
    result = run()
    wall = perf_counter() - started
    map_seconds = store.map_seconds - map0
    return result, {
        "map_seconds": map_seconds,
        "map_count": store.map_count - mapc0,
        "fold_seconds": max(0.0, wall - map_seconds),
    }


#: How long the process engine waits for a result between liveness checks.
_POLL_SECONDS = 0.1


def _crash_after_task() -> bool:
    """Whether ``OMPDATAPERF_WORKER_CRASH_AFTER_CLAIM`` asks a process
    worker to die after its task: it counts tasks, and a process worker
    runs exactly one."""
    from repro.core.distributed import CRASH_ENV

    try:
        return int(os.environ.get(CRASH_ENV) or 0) == 1
    except ValueError:
        return False


def _process_worker(position: int, store_spec: dict, specs, results, crash: bool) -> None:
    """Run one pass group in a worker process and put its one message,
    ``(position, ok, payload, stats)``, on ``results``: the group's
    payload list and load accounting, or the traceback text on failure."""
    try:
        started = perf_counter()
        store = _open_store_from_spec(store_spec)
        open_seconds = perf_counter() - started
        payload, counters = scan_counters(store, lambda: run_pass_group(store, specs))
        if crash:
            from repro.core.distributed import CRASH_EXIT_CODE

            # The injected-crash window: work done, result unreported.
            os._exit(CRASH_EXIT_CODE)
        results.put((position, True, payload, {"open_seconds": open_seconds, **counters}))
    except BaseException:
        results.put((position, False, traceback.format_exc(), None))


class ProcessEngine:
    """Pass-group folds on one-shot worker processes.

    The only backend whose fold work runs off the GIL — and the only one
    with a requirement on the stream: it must be a
    :class:`~repro.events.store.ShardedTraceStore` (over any transport),
    because workers re-open it from its transport spec rather than
    receive events.

    The pass specs are split into ``min(jobs, len(specs))`` groups by
    :func:`pass_groups`, and every run starts one worker process per
    group, handed the transport spec and its group's specs as process
    arguments.  The worker opens the store and runs
    :func:`run_pass_group`, the serial engine's task function: it folds
    every pass of its group in ONE scan from the stream head, finalizes
    them, and puts only their finding parts on the one result queue; the
    parent puts the parts back in report order and runs the one shared
    gather of the finding rows (:func:`gather_groups`).  ``jobs=1`` is no
    special case: its one group runs on one worker, with the same stats.
    A guard spec (trace validation) joins one of the groups, whose worker
    checks it before finalizing the detectors beside it and returns the
    folded guard itself.  The parent checks that group's guard as soon as
    it lands, and holds back any other group's failure until then, so a
    failed check raises its own error ahead of any detector's.  No carry
    is shipped or merged, and a one-shard store parallelises as well as a
    large one.  The cost is the ceiling: at most one worker per pass, and
    a run is bounded by its heaviest group (at one pass per worker, the
    duplicates pass).  The distributed engine runs the same group tasks
    on workers that may live on other machines.

    Each worker attaches every shard of its scan itself, as views and
    without a decode: a local shard is mapped in place, a shard behind a
    zip archive or an object store is read once and viewed in place.  So
    a run reports ``map_count == tasks × shards``.  A worker that dies
    before reporting raises ``RuntimeError`` naming its exit code, and
    every worker is joined or terminated before ``run`` returns or raises.  After every run
    :attr:`stats` holds the overhead breakdown.
    """

    name = "process"

    def __init__(self) -> None:
        #: overhead breakdown of the most recent run (empty before any)
        self.stats: dict = {}

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
        groups = pass_groups(specs, jobs)
        ctx = _process_context()
        results = ctx.Queue()
        store_spec = stream.transport.spec()
        crash = _crash_after_task()
        workers = [
            ctx.Process(
                target=_process_worker,
                args=(position, store_spec, [specs[i] for i in group], results, crash),
                daemon=True,
            )
            for position, group in enumerate(groups)
        ]
        landed: dict = {}  # position -> (payload, stats)
        failed: dict = {}  # position -> the worker's traceback text
        started = perf_counter()
        try:
            for worker in workers:
                worker.start()
            spawn_seconds = perf_counter() - started
            _collect(results, workers, specs, groups, landed, failed)
            self.stats = self._build_stats(
                [landed[k][1] for k in range(len(groups))], spawn_seconds
            )
            return gather_groups(
                specs, groups, {k: payload for k, (payload, _) in landed.items()}, stream
            )
        finally:
            # A worker that reported is exiting; any other one is stopped.
            for position, worker in enumerate(workers):
                if worker.pid is None:
                    continue
                if position not in landed and position not in failed:
                    worker.terminate()
                worker.join()
            results.close()

    @staticmethod
    def _build_stats(task_stats, spawn_seconds: float) -> dict:
        open_seconds = sum(s["open_seconds"] for s in task_stats)
        map_seconds = sum(s["map_seconds"] for s in task_stats)
        fold_seconds = sum(s["fold_seconds"] for s in task_stats)
        overhead = spawn_seconds + open_seconds + map_seconds
        return {
            "spawn_count": len(task_stats),
            "spawn_seconds": spawn_seconds,
            "tasks": len(task_stats),
            "workers": len(task_stats),
            "open_seconds": open_seconds,
            "map_seconds": map_seconds,
            "map_count": sum(s["map_count"] for s in task_stats),
            "fold_seconds": fold_seconds,
            "overhead_seconds": overhead,
            "overhead_per_task": overhead / max(1, len(task_stats)),
        }


def _collect(results, workers, specs, groups, landed: dict, failed: dict) -> None:
    """Read every worker's message into ``landed`` (position ->
    ``(payload, stats)``) or ``failed`` (position -> traceback text).

    Guard groups come first (:func:`pass_groups`): their guards are
    checked as soon as they have all landed, so a detector that failed on
    an invalid stream in another group cannot hide the validation error,
    and a failed group raises ``RuntimeError`` only from then on.  A
    worker that exits without reporting raises it at once.
    """
    guarded = sum(any(specs[i].cls.guard for i in group) for group in groups)
    checked = False
    dead_before: set = set()
    while len(landed) + len(failed) < len(groups):
        try:
            position, ok, payload, stats = results.get(timeout=_POLL_SECONDS)
        except queue_mod.Empty:
            # A worker flushes its message before it exits, so one still
            # missing a full poll after its exit never sent it.
            dead = {
                k
                for k, worker in enumerate(workers)
                if k not in landed and k not in failed and not worker.is_alive()
            }
            if dead & dead_before:
                codes = sorted({workers[k].exitcode for k in dead})
                raise RuntimeError(
                    f"{len(dead)} process engine worker(s) died (exit codes "
                    f"{codes}) before reporting their pass group"
                ) from None
            dead_before = dead
            continue
        if ok:
            landed[position] = (payload, stats)
        else:
            failed[position] = payload
        if not checked and all(k in landed or k in failed for k in range(guarded)):
            checked = True
            if not any(k in failed for k in range(guarded)):
                check_landed_guards(specs, groups, {k: landed[k][0] for k in range(guarded)})
        if checked and failed:
            raise RuntimeError(f"process engine worker failed:\n{failed[min(failed)]}")


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
    single-core machine its workers only add fork/pickle overhead, and on
    a platform where multiprocessing cannot start workers at all it simply
    fails.  Callers that prefer degradation over
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
    (``spawn/open/map/fold_seconds``, ``overhead_seconds``) and the
    distributed engine's coordinator block (``requeued``, ``respawned``,
    ``speculative_launches``, ``debris_blobs``, ``duplicate_results``).
    Six keys are retired.
    ``peak_unmerged_chains`` counted the distributed coordinator's
    un-merged partition carries, and its tasks are pass groups now, whose
    payloads are never merged.  The process engine's shard-cache hit count
    went with its shared decoded-shard cache: every worker now maps each
    shard it scans itself.  ``hints`` held the distributed
    coordinator's autoscaling snapshot, which went because a run has at
    most six tasks, too few for a fleet size to follow.  ``pool_reuse``
    (with the per-task ``task_no`` behind it) counted tasks that ran on an
    already used pool worker, and every process worker now runs one task
    and exits.  The two ``decode_*`` keys (seconds and count) measured
    the shards a worker decoded instead of mapping, and a store holds only
    flat shards now, which are always mapped.  The structured way to read
    the stats is :attr:`repro.core.analysis.StreamAnalysisReport.engine_stats`.
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
