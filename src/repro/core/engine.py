"""Pluggable execution engines for the streaming detector passes.

:func:`repro.core.analysis.analyze_stream` runs five
:class:`~repro.core.detectors._streaming.StreamingPass` folds over one
stream.  How those folds execute is this module's job, behind one
:class:`ExecutionEngine` protocol with three backends:

* :class:`SerialEngine` — the sequential single-scan pipeline: every shard
  is loaded once and handed to all five folds on the calling thread
  (``jobs > 1`` adds the prefetch thread and concurrent finalizes).
* :class:`ThreadEngine` — the stream is cut into ``jobs`` contiguous,
  event-balanced partitions (:func:`~repro.events.stream.partition_stream`)
  and each worker thread folds all five passes over its partition; the
  per-partition carries then merge left to right.  Shard decode releases
  the GIL, so load overlaps fold — but the folds themselves stay
  GIL-bound, which is the ceiling this backend cannot pass.
* :class:`ProcessEngine` — the same partition/fold/merge/finalize shape
  with *process* workers, which is what lets the fold work scale past one
  core.  Workers receive a picklable **transport spec**, not events: each
  rebuilds the shard transport
  (:func:`~repro.events.transport.transport_from_spec`), opens the
  :class:`~repro.events.store.ShardedTraceStore` through it and folds its
  shard range locally, so only the spawn arguments (a spec, a
  :class:`PartitionTask`, the pass specs) and the folded carry states —
  small, picklable — ever cross the process boundary.  The store can
  therefore live behind *any* transport (a local directory, a zip
  archive, an object store).  The finalizes run on the same worker pool;
  the parent then gathers the finding rows in one targeted scan.

A fourth backend lives in :mod:`repro.core.distributed`:
``DistributedEngine`` speaks the same partition→fold→merge→finalize shape
across *machines*, with partition tasks leased from a transport-backed
queue instead of submitted to an in-process pool.  It shares this
module's task vocabulary — :class:`PartitionTask`,
:func:`partition_tasks`, :func:`fold_store_task` — and registers itself
in :data:`ENGINES` on import (``repro.core`` imports it, so the registry
is always complete).

All three produce bit-identical findings: partition workers fold with
``eager=False`` (classification deferred until the carries merge), and the
per-detector ``merge`` contracts reconstruct exactly the carry a
sequential fold would have built (see ``docs/architecture.md`` for the
contract table).  Engines are resolved by name through :data:`ENGINES` /
:func:`resolve_engine`, which is what the ``--engine`` CLI flag and the
``engine=`` keyword of ``analyze_stream`` speak.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Optional, Protocol, Sequence, runtime_checkable

from repro.core.detectors._streaming import StreamingPass, fold_batches
from repro.core.detectors.table import FindingPart, FindingTable
from repro.events.protocol import EventStream
from repro.events.stream import StreamPartition, partition_stream, prefetch_batches


@dataclass(frozen=True)
class PassSpec:
    """A picklable recipe for one streaming pass.

    Engines instantiate passes per partition (a pass instance is
    single-use and carries fold state), so they are handed recipes instead
    of instances; ``cls`` must be a module-level class for the spec to
    cross a process boundary by reference.
    """

    cls: type
    kwargs: Mapping = field(default_factory=dict)

    def build(self, *, eager: bool = True) -> StreamingPass:
        pass_ = self.cls(**dict(self.kwargs))
        pass_.eager = eager
        return pass_


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

        EngineConfig.parse("distributed:claim_batch=4,lease_timeout=10,speculate=on")
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


def _fold_partition(
    specs: Sequence[PassSpec], partition: StreamPartition, on_batch=None
) -> list[StreamingPass]:
    """Fold fresh deferred-mode passes over one partition's batches.

    Batches arrive through a bounded read-ahead
    (:func:`~repro.events.stream.prefetch_batches`): the next shard's
    fetch — an O(1) map for local ``.odpf`` shards, a byte read plus
    decode elsewhere — overlaps the current shard's fold.

    ``on_batch`` (when given) is called after every folded batch with the
    number of events it held — the fold-position hook that lets a worker's
    heartbeat carry progress, not just liveness (warm-pool counters, the
    distributed worker's beat blobs).
    """
    passes = [spec.build(eager=False) for spec in specs]
    offset = partition.data_op_offset
    for batch in prefetch_batches(partition, depth=2):
        for pass_ in passes:
            pass_.fold(batch, offset)
        offset += batch.num_data_op_events
        if on_batch is not None:
            on_batch(batch.num_data_op_events + batch.num_target_events)
    return passes


def _merge_partition_carries(chains: list[list[StreamingPass]]) -> list[StreamingPass]:
    """Left-fold the per-partition carries into the first partition's."""
    head = chains[0]
    for tail in chains[1:]:
        for target, source in zip(head, tail):
            target.merge(source)
    return head


def _finalize_all(
    passes: Sequence[StreamingPass], stream: EventStream, jobs: int
) -> FindingTable:
    """Finalize every pass (concurrently when jobs allow), then read the
    rows their findings reference in one shared gather.

    Finalizes are independent and never read the stream; the gather
    loads each shard holding a finding row exactly once.
    """
    if jobs <= 1 or len(passes) <= 1:
        parts = [pass_.finalize() for pass_ in passes]
    else:
        with ThreadPoolExecutor(max_workers=min(jobs, len(passes))) as pool:
            parts = list(pool.map(lambda pass_: pass_.finalize(), passes))
    return FindingTable.gather(parts, stream)


class SerialEngine:
    """One sequential scan, all folds on the calling thread (the default).

    Each shard is loaded once and handed to every pass.  With ``jobs > 1``
    a prefetch thread decodes the next shard while the folds consume the
    current one (decode releases the GIL), and the finalizes run
    concurrently on a thread pool.
    """

    name = "serial"

    def run(self, specs, stream, *, jobs: int = 1) -> FindingTable:
        _check_jobs(jobs)
        passes = [spec.build() for spec in specs]
        if jobs == 1:
            fold_batches(passes, stream.batches())
        else:
            fold_batches(passes, prefetch_batches(stream, depth=min(jobs, 4)))
        return _finalize_all(passes, stream, jobs)


class ThreadEngine:
    """Partitioned folds on worker threads, merged left to right."""

    name = "thread"

    def run(self, specs, stream, *, jobs: int = 1) -> FindingTable:
        _check_jobs(jobs)
        parts = partition_stream(stream, jobs)
        if len(parts) <= 1:
            return SerialEngine().run(specs, stream, jobs=jobs)
        with ThreadPoolExecutor(max_workers=len(parts)) as pool:
            futures = [pool.submit(_fold_partition, specs, part) for part in parts]
            chains = [future.result() for future in futures]
        merged = _merge_partition_carries(chains)
        return _finalize_all(merged, stream, jobs)


def _open_store_from_spec(spec: dict):
    from repro.events.store import ShardedTraceStore
    from repro.events.transport import transport_from_spec

    return ShardedTraceStore.open(transport_from_spec(spec))


@dataclass(frozen=True)
class PartitionTask:
    """One schedulable unit of fold work: a contiguous shard range.

    The picklable twin of :class:`~repro.events.stream.StreamPartition`
    that does not hold the stream itself — what crosses a process
    boundary (the process engine's spawn arguments) or lands in a task
    queue (one blob per task, for the distributed engine).  ``index`` is
    the task's position in partition order, which is the order the folded
    carries must merge back in.
    """

    index: int
    lo: int
    hi: int
    data_op_offset: int
    num_events: int


def partition_tasks(store, n: int) -> list[PartitionTask]:
    """Cut a store into at most ``n`` :class:`PartitionTask` units.

    Mirrors :meth:`~repro.events.store.ShardedTraceStore.partitions` but
    returns the detached task records.  The degenerate cases — one
    partition or an unpartitionable stream — come back as the empty list,
    which every engine treats as "run serially".
    """
    parts = store.partitions(n)
    if len(parts) <= 1:
        return []
    return [
        PartitionTask(
            index=i,
            lo=part.lo,
            hi=part.hi,
            data_op_offset=part.data_op_offset,
            num_events=part.num_events,
        )
        for i, part in enumerate(parts)
    ]


def fold_store_task(
    spec: dict, task: PartitionTask, pass_specs: tuple
) -> list[StreamingPass]:
    """Worker entry point: open the store from its spec, fold one task.

    Runs wherever the scheduling engine put it — a process-pool worker, a
    distributed worker on another machine — and everything it touches
    beyond the arguments is read through the rebuilt transport; only the
    folded carries return.
    """
    store = _open_store_from_spec(spec)
    partition = StreamPartition(
        store, task.lo, task.hi, task.data_op_offset, task.num_events
    )
    return _fold_partition(pass_specs, partition)


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
    """Partitioned folds on a *warm* pool of worker processes.

    The only backend whose fold work scales past one core — and the only
    one with a requirement on the stream: it must be a
    :class:`~repro.events.store.ShardedTraceStore` (over any transport),
    because workers re-open it from its transport spec rather than
    receive events.

    The per-task constants the old spawn-per-run submission paid are all
    amortised here:

    * workers come from a :class:`~repro.core.pool.WarmWorkerPool` — each
      process spawns once and folds many partitions (the store is cut
      into ``jobs * tasks_per_worker`` tasks, so reuse happens within a
      single run, not only across runs);
    * each worker opens the store once and keeps it across tasks;
    * decoded shards are published to a
      :class:`~repro.events.shardcache.SharedShardCache` so every shard
      blob is parsed exactly once across the whole pool, everything else
      reading zero-copy views;
    * carries travel as :mod:`repro.core.carrycodec` payloads, not
      pickles.

    Finalize runs on the same pool (merged carries shipped out once more,
    finding parts shipped back); the parent then runs the one shared
    gather of the finding rows.

    With ``keep_pool=True`` the pool, the per-worker stores and the shard
    cache survive across ``run()`` calls (close with :meth:`close` or use
    the engine as a context manager).  After every run :attr:`stats`
    holds the overhead breakdown the engine benchmarks record.
    """

    name = "process"

    #: Options addressable from an ``EngineConfig`` spec string
    #: (``"process:keep_pool=on,tasks_per_worker=8"``).
    config_options = {
        "keep_pool": _opt_bool,
        "tasks_per_worker": _opt_int,
    }

    def __init__(self, *, keep_pool: bool = False, tasks_per_worker: int = 4) -> None:
        if tasks_per_worker < 1:
            raise ValueError("tasks_per_worker must be at least 1")
        self.keep_pool = keep_pool
        self.tasks_per_worker = tasks_per_worker
        self._pool = None
        self._cache = None
        self._cache_key = None
        self._cache_shards = 0
        self._spawned_total = 0
        #: overhead breakdown of the most recent run (empty before any,
        #: or when the run degraded to the serial engine)
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
                "serial or thread engine"
            )
        # Oversubscribe partitions over workers: task count is what warm
        # reuse amortises against.  jobs == 1 keeps its historical meaning
        # (no partitioning — run serially).
        requested = jobs if jobs == 1 else jobs * self.tasks_per_worker
        tasks = partition_tasks(stream, requested)
        if not tasks:
            if not self.keep_pool:
                self.close()
            return self._run_degraded_serial(specs, stream, jobs)
        specs = tuple(specs)
        spec = stream.transport.spec()
        try:
            pool, spawn_seconds_now = self._ensure_pool(min(jobs, len(tasks)))
            cache_spec = self._ensure_cache(stream)
            fold_jobs = {
                pool.submit_fold(spec, cache_spec, task, specs): task
                for task in tasks
            }
            results = pool.collect(fold_jobs)
            ordered = sorted(fold_jobs, key=lambda job: fold_jobs[job].index)
            from repro.core.carrycodec import decode_carries, encode_carries

            chains = [decode_carries(results[job][0]) for job in ordered]
            task_stats = [results[job][1] for job in ordered]
            merged = _merge_partition_carries(chains)
            finalize_jobs = [
                pool.submit_finalize(spec, cache_spec, encode_carries([pass_]))
                for pass_ in merged
            ]
            finalize_results = pool.collect(finalize_jobs)
            parts: list[FindingPart] = [finalize_results[job][0] for job in finalize_jobs]
            task_stats += [finalize_results[job][1] for job in finalize_jobs]
            self.stats = self._build_stats(task_stats, len(tasks), spawn_seconds_now)
            return FindingTable.gather(parts, stream)
        except BaseException:
            # Any failure — a dead worker, a KeyboardInterrupt mid-merge —
            # tears the pool down and unlinks every shared segment, even
            # in keep-pool mode: leaked /dev/shm entries are never an
            # acceptable failure mode.
            self.close()
            raise
        finally:
            if not self.keep_pool:
                self.close()

    def _run_degraded_serial(self, specs, stream, jobs: int) -> list:
        """Serial fallback (``jobs == 1`` or an unpartitionable store).

        Reports the same overhead breakdown as the pooled path by diffing
        the store's own counters around the run — so ``BENCH_engine.json``
        gets a real spawn/open/decode/map/fold block at one worker instead
        of an empty one.
        """
        from time import perf_counter

        decode0 = stream.decode_seconds
        count0 = stream.decode_count
        hits0 = stream.cache_hits
        map0 = stream.map_seconds
        mapc0 = stream.map_count
        started = perf_counter()
        findings = SerialEngine().run(specs, stream, jobs=jobs)
        wall = perf_counter() - started
        decode_seconds = stream.decode_seconds - decode0
        map_seconds = stream.map_seconds - map0
        overhead = decode_seconds + map_seconds
        self.stats = {
            "spawn_count": self._spawned_total,
            "spawn_seconds": 0.0,
            "tasks": 1,
            "workers": 0,
            "pool_reuse": 0,
            "open_seconds": 0.0,
            "decode_seconds": decode_seconds,
            "decode_count": stream.decode_count - count0,
            "cache_hits": stream.cache_hits - hits0,
            "map_seconds": map_seconds,
            "map_count": stream.map_count - mapc0,
            "fold_seconds": max(0.0, wall - overhead),
            "overhead_seconds": overhead,
            "overhead_per_task": overhead,
        }
        return findings

    # ------------------------------------------------------------------ #
    def _ensure_pool(self, workers: int):
        from repro.core.pool import WarmWorkerPool

        if self._pool is not None and self._pool.num_workers != workers:
            self._close_pool()
        if self._pool is None:
            self._pool = WarmWorkerPool(workers, mp_context=_process_context())
            self._spawned_total += self._pool.spawn_count
            return self._pool, self._pool.spawn_seconds
        return self._pool, 0.0

    def _ensure_cache(self, stream) -> Optional[dict]:
        from repro.events.shardcache import SharedShardCache

        key = _store_identity(stream.transport.spec())
        if self._cache is not None and self._cache_key != key:
            self._close_cache()
        if self._cache is None:
            self._cache = SharedShardCache()
            self._cache_key = key
            self._cache_shards = 0
        self._cache_shards = max(self._cache_shards, stream.num_shards)
        return self._cache.spec()

    def _build_stats(self, task_stats, num_tasks: int, spawn_seconds: float) -> dict:
        open_seconds = sum(s["open_seconds"] for s in task_stats)
        decode_seconds = sum(s["decode_seconds"] for s in task_stats)
        map_seconds = sum(s["map_seconds"] for s in task_stats)
        fold_seconds = sum(s["fold_seconds"] for s in task_stats)
        overhead = spawn_seconds + open_seconds + decode_seconds + map_seconds
        return {
            "spawn_count": self._spawned_total,
            "spawn_seconds": spawn_seconds,
            "tasks": num_tasks,
            "workers": len({s["worker"] for s in task_stats}),
            "pool_reuse": sum(1 for s in task_stats if s["task_no"] > 1),
            "open_seconds": open_seconds,
            "decode_seconds": decode_seconds,
            "decode_count": sum(s["decode_count"] for s in task_stats),
            "cache_hits": sum(s["cache_hits"] for s in task_stats),
            "map_seconds": map_seconds,
            "map_count": sum(s["map_count"] for s in task_stats),
            "fold_seconds": fold_seconds,
            "overhead_seconds": overhead,
            "overhead_per_task": overhead / max(1, num_tasks),
        }

    def _close_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def _close_cache(self) -> None:
        cache, self._cache = self._cache, None
        self._cache_key = None
        if cache is not None:
            cache.cleanup(self._cache_shards)
        self._cache_shards = 0

    def close(self) -> None:
        """Shut the pool down and unlink every shared segment (idempotent)."""
        self._close_pool()
        self._close_cache()

    def __enter__(self) -> "ProcessEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _store_identity(spec: dict):
    """Hashable identity of a store's transport spec (cache invalidation)."""
    kind = spec.get("kind")
    if kind == "prefix":
        return (kind, spec.get("prefix"), _store_identity(spec["inner"]))
    if "path" in spec:
        return (kind, str(spec["path"]))
    return (kind, id(spec.get("transport")))


#: Engine registry, keyed by the names the CLI exposes.  The distributed
#: engine registers itself here when :mod:`repro.core.distributed` is
#: imported (``repro.core``'s package init does, so the registry is
#: complete before any CLI or test reads it).
ENGINES: dict[str, type] = {
    SerialEngine.name: SerialEngine,
    ThreadEngine.name: ThreadEngine,
    ProcessEngine.name: ProcessEngine,
}


def available_engines() -> list[str]:
    return sorted(ENGINES)


def engine_registry_name(engine) -> str:
    """The registry name of an engine instance ("serial", "thread", ...)."""
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
    BENCH_engine record shows thread *and* process slower than serial at
    one core), and on a platform where multiprocessing cannot start
    workers at all it simply fails.  Callers that prefer degradation over
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

    Accepts a registry name (``"serial"``, ``"thread"``, ``"process"``,
    ``"distributed"``), a spec string with options
    (``"distributed:claim_batch=4,lease_timeout=10,speculate=on"``), an
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
    ``peak_unmerged_chains``, ``duplicate_results``, ``hints``).  The
    structured way to read them is
    :attr:`repro.core.analysis.StreamAnalysisReport.engine_stats`.
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
