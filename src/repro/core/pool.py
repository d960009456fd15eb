"""Persistent warm worker pool for the process engine.

A pool of long-lived worker processes, each fed over its own task queue.
A task is one *pass group* (:func:`repro.core.engine.pass_groups`), and
a run hands each worker one group:

* each worker **spawns once** and then serves every run of a
  ``keep_pool=True`` engine;
* each worker **opens each store once**, keyed by its transport spec, and
  keeps it across tasks and across runs;
* each worker loads every shard it scans itself: a local ``.odpf`` shard
  is mapped in place, any other shard is read (and, if ``.npz``, decoded)
  by the worker;
* a task runs :func:`~repro.core.engine.run_pass_group`, the task
  function of every engine: it folds its whole group in ONE scan from the
  stream head and finalizes each pass in place, so only finished finding
  parts cross the result queue (a guard pass — trace validation —
  crosses as itself, for the parent to check);
* every task reports an overhead breakdown (open / decode / map / fold
  seconds, the worker's task number) so ``BENCH_engine.json`` can show
  the constants falling even on machines where wall-clock speedup cannot.

Crash behaviour is observable the same way the distributed worker's is:
with ``OMPDATAPERF_WORKER_CRASH_AFTER_CLAIM=N`` in the environment a pool
worker hard-exits (``os._exit``) after finishing its ``N``-th command and
before reporting the result, so the parent has to notice the dead worker
instead of waiting for its result forever.
"""

from __future__ import annotations

import os
import queue as queue_mod
import traceback
from time import perf_counter
from typing import Optional, Sequence

from repro.core.engine import (
    PassSpec,
    _open_store_from_spec,
    _process_context,
    run_pass_group,
)

_CMD_GROUP = "group"
_CMD_STOP = "stop"

_OK = "ok"
_ERR = "error"

#: How long collect() waits between liveness checks of the workers.
_POLL_SECONDS = 0.1


def store_key(spec: dict):
    """A hashable identity for a transport spec (worker store caching)."""
    kind = spec.get("kind")
    if kind == "prefix":
        return (kind, spec.get("prefix"), store_key(spec["inner"]))
    if "path" in spec:
        return (kind, str(spec["path"]))
    # In-memory transports (the fake object store) carry the transport
    # object itself; a fresh unpickle per task means no reuse, which only
    # costs anything in tests.
    return (kind, id(spec.get("transport")))


def open_store_cached(spec: dict, stores: dict):
    """Open a store from its spec, reusing an already opened instance.

    Returns ``(store, open_seconds)`` where ``open_seconds`` is zero on a
    warm hit.  Shared by the pool workers and the distributed CLI worker,
    both of which hold one ``stores`` dict for their whole lifetime.
    """
    key = store_key(spec)
    store = stores.get(key)
    if store is not None:
        return store, 0.0
    started = perf_counter()
    store = _open_store_from_spec(spec)
    stores[key] = store
    return store, perf_counter() - started


def _crash_after_from_env() -> Optional[int]:
    from repro.core.distributed import CRASH_ENV

    raw = os.environ.get(CRASH_ENV)
    if not raw:
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        return None


def scan_counters(store, run):
    """Call ``run()`` and return ``(result, counters)``.

    ``counters`` is the store's load accounting over the call: decode and
    map seconds and counts, plus ``fold_seconds``, the rest of the call's
    wall time: the per-task keys of
    :attr:`~repro.core.engine.ProcessEngine.stats`.
    """
    decode0, count0 = store.decode_seconds, store.decode_count
    map0, mapc0 = store.map_seconds, store.map_count
    started = perf_counter()
    result = run()
    wall = perf_counter() - started
    decode_seconds = store.decode_seconds - decode0
    map_seconds = store.map_seconds - map0
    return result, {
        "decode_seconds": decode_seconds,
        "decode_count": store.decode_count - count0,
        "map_seconds": map_seconds,
        "map_count": store.map_count - mapc0,
        "fold_seconds": max(0.0, wall - decode_seconds - map_seconds),
    }


def _pool_worker(task_queue, result_queue, crash_after, progress) -> None:
    from repro.core.distributed import CRASH_EXIT_CODE

    stores: dict = {}
    completed = 0

    def tick_progress(events: int) -> None:
        # Ticks as each shard is read, up to one coalesced group ahead of
        # the detector fold.  Lock-free on CPython: one writer per
        # counter, readers tolerate a stale snapshot (the counter is a
        # liveness/fold-position hint, not an accounting total).
        progress.value += events

    while True:
        command = task_queue.get()
        if command[0] == _CMD_STOP:
            break
        job_id = command[1]
        try:
            store, open_seconds = open_store_cached(command[2], stores)
            payload, counters = scan_counters(
                store, lambda: run_pass_group(store, command[3], tick_progress)
            )
            stats = {"task_no": completed + 1, "open_seconds": open_seconds, **counters}
            completed += 1
            if crash_after is not None and completed >= crash_after:
                # The injected-crash window: work done, result unreported.
                os._exit(CRASH_EXIT_CODE)
            result_queue.put((_OK, job_id, payload, stats))
        except BaseException:
            result_queue.put((_ERR, job_id, traceback.format_exc()))


class WarmWorkerPool:
    """A fixed set of long-lived worker processes, one task queue each."""

    def __init__(self, num_workers: int, *, mp_context=None) -> None:
        if num_workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        ctx = mp_context or _process_context()
        # One task queue per worker: a group task goes to the worker it is
        # addressed to, never to whichever worker asks first, so two
        # groups cannot end up scanned back to back on one worker.
        self._task_queues = [ctx.Queue() for _ in range(num_workers)]
        self._result_queue = ctx.Queue()
        self._next_job = 0
        #: job id -> result message, for results no collect() has taken yet
        self._settled: dict = {}
        self._closed = False
        crash_after = _crash_after_from_env()
        started = perf_counter()
        self._workers = []
        # One shared fold-position counter per worker (events folded over
        # the worker's lifetime): the warm-pool analogue of the
        # distributed beat's progress half, readable without a queue
        # round-trip even when the worker is wedged mid-fold.
        self._progress = [ctx.Value("Q", 0, lock=False) for _ in range(num_workers)]
        for index in range(num_workers):
            proc = ctx.Process(
                target=_pool_worker,
                args=(
                    self._task_queues[index], self._result_queue, crash_after,
                    self._progress[index],
                ),
                daemon=True,
            )
            proc.start()
            self._workers.append(proc)
        self.spawn_count = num_workers
        self.spawn_seconds = perf_counter() - started

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def fold_positions(self) -> list[int]:
        """Per-worker lifetime fold positions (events read by the scan so
        far; a pass folds them at most one coalesced group later).

        Snapshots the shared counters without disturbing the workers;
        a counter that stops moving while its worker stays alive is the
        warm-pool signature of a stalled fold.
        """
        return [value.value for value in self._progress]

    # ------------------------------------------------------------------ #
    def submit_group(
        self, worker: int, store_spec: dict, pass_specs: Sequence[PassSpec]
    ) -> int:
        """Queue a pass group on worker ``worker``: one scan folds every
        pass, then each is finalized.  Returns the job id to collect on;
        the job's payload is a list with one entry per spec (see
        :func:`~repro.core.engine.run_pass_group`)."""
        if self._closed:
            raise RuntimeError("the worker pool is closed")
        job = self._next_job
        self._next_job += 1
        self._task_queues[worker].put((_CMD_GROUP, job, store_spec, tuple(pass_specs)))
        return job

    def collect(self, job_ids) -> dict:
        """Wait for the given jobs; ``{job_id: (payload, stats)}``.

        Results of other jobs that land meanwhile are kept for a later
        ``collect``, so a caller can wait for one job ahead of the rest.
        Raises ``RuntimeError`` when one of the given jobs failed, or a
        worker dies with results outstanding (the warm-pool analogue of
        ``BrokenProcessPool``).
        """
        while not self._settled.keys() >= set(job_ids):
            try:
                message = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                self._check_alive()
                continue
            self._settled[message[1]] = message
        results: dict = {}
        for job_id in job_ids:
            message = self._settled.pop(job_id)
            if message[0] == _ERR:
                raise RuntimeError(f"warm pool worker failed:\n{message[2]}")
            results[job_id] = (message[2], message[3])
        return results

    def _check_alive(self) -> None:
        dead = [proc for proc in self._workers if not proc.is_alive()]
        if dead:
            codes = sorted({proc.exitcode for proc in dead})
            positions = self.fold_positions()
            raise RuntimeError(
                f"{len(dead)} warm pool worker(s) died (exit codes {codes}) "
                f"with results outstanding (fold positions: {positions})"
            )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop every worker and release the queues (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for task_queue in self._task_queues:
            try:
                task_queue.put((_CMD_STOP, -1))
            except (OSError, ValueError):  # pragma: no cover - queue gone
                break
        for proc in self._workers:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for q in (*self._task_queues, self._result_queue):
            try:
                q.close()
            except (OSError, ValueError):  # pragma: no cover
                pass

    def __enter__(self) -> "WarmWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
