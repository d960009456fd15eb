"""Distributed analysis: coordinator/worker execution over a task queue.

:class:`DistributedEngine` is the third execution backend
(``analyze_stream(engine="distributed")``, ``--engine distributed``) and
the first whose workers need not share a machine with the coordinator.
Its tasks are the process engine's *pass groups*
(:func:`~repro.core.engine.pass_groups`): each task folds one group of
passes over ONE scan of the whole store and finalizes them, exactly as a
process-engine worker and the serial engine do
(:func:`repro.core.engine.run_pass_group`).  The tasks
live as **leased blobs on a shard transport**
(:mod:`repro.events.transport`) instead of in forked workers' arguments — a local
directory for tests and loopback runs, an object store wherever a real
deployment wants the queue to live.  (The *store* may
additionally sit in a zip archive; the *queue* may not — a zip archive
serializes every mutation through a whole-archive rewrite, so concurrent
writers would erase each other's claims, and both the coordinator and
the worker refuse one.)

Queue layout (all names relative to the queue transport)::

    run.pkl                        pickled run manifest: store transport
                                   spec, pass specs, lease timeout
    tasks/task-00002.a000          pending task, attempt 0 (the pickled
                                   spec indices of pass group 2);
                                   requeues bump the attempt tag, so a
                                   blob name is unique per (task,
                                   attempt) generation
    claims/task-00002.a000.<wid>   leased task: the pending blob renamed
                                   under the claiming worker's id
    beats/task-00002.a000.<wid>    heartbeat counter, renewed on a timer
                                   while the worker folds
    results/task-00002.a000.<wid>  the claim's result: the group's
                                   payload list, an allow-listed pickle
    errors/task-00002.a000.<wid>   a worker-side failure report
    done | abort                   terminal markers (abort carries the
                                   reason)

Lease lifecycle.  A worker claims a pending task with one
generation-tagged rename (``tasks/…a000`` → ``claims/…a000.<wid>``):
renames fail when the source is gone, so racing workers resolve to one
winner on any transport with atomic rename, and the attempt tag
guarantees a requeued task never collides with a stale claim of an
earlier generation.  While folding, the worker renews a heartbeat blob
carrying a liveness counter *and* its fold position
(``<counter>:<events folded>``), so the coordinator can tell a slow
worker from a stuck one.  The coordinator polls the queue and tracks,
per task, when its observable state last *changed* (a claim appeared,
the heartbeat advanced, a result landed); comparing change-counters
instead of wall clocks keeps the protocol immune to clock skew between
machines.  A task whose state freezes for longer than the lease
timeout — a worker died mid-fold, or a claim rename was torn on a
copy-then-delete transport — is requeued under the next attempt tag.
Worker-side exceptions short-circuit the wait: the worker publishes an
error blob and releases the claim, and the coordinator requeues
immediately.  After ``max_attempts`` generations the coordinator
publishes the ``abort`` marker (so every worker exits) and raises
:class:`DistributedExecutionError` naming the task and the last failure.

Speculative re-execution covers the gap between "slow" and "dead": when
a *claimed* task's fold position stops advancing for much longer than
the fleet's median progress interval (:data:`SPECULATION_FACTOR` times
it, floored at the lesser of 2 s and a quarter of the lease), the
coordinator re-publishes the task under
the next attempt tag *without* waiting for the lease to expire.  The
original claim is left in place — whichever attempt publishes a durable
result first wins, and the loser's eventual output is bit-identical
debris (folds are deterministic, dedup is by task index).  A task is
speculated at most once per run and never into its final permitted
attempt, so speculation can only add one generation, not burn the retry
budget.

Because folds are deterministic and results publish atomically, the
protocol tolerates zombies: a worker presumed dead that later finishes
simply publishes a bit-identical result for the same task index (first
decode wins, and all reads agree).

A worker claims one task at a time.  The task's result is its group's
payload list — a finished
:class:`~repro.core.detectors.table.FindingPart` per detector, and the
folded guard itself (trace validation) for the coordinator to check —
pickled by :mod:`repro.core.carrycodec` into one result blob named
after the claim.  A run has at most one task per pass, so it publishes
at most six result blobs.  No carry is shipped or merged.  Trust runs
one way: workers unpickle the coordinator's ``run.pkl`` and task blobs
as they are, while the coordinator rebuilds only the codec's
allow-listed types from result blobs.  A result blob it cannot decode
fails its task at once when it answers the task's live attempt (the task
requeues, or the run aborts after ``max_attempts`` with the decode
error), and counts as debris otherwise.  The coordinator checks the
guard as soon as the guard's group lands, and holds back a detector
group's exhausted retries until then, so a detector that failed on an
invalid stream never hides the validation error.  Once every group has landed it gathers the finding rows locally
(:func:`~repro.core.engine.gather_groups`, shared with the process
engine), which is what keeps the differential suite's legs bit-identical.
Parallelism is capped at one task per pass, as on the process engine.
``ompdataperf queue status`` reads a live or finished queue's state and
blob counts.
"""

from __future__ import annotations

import os
import pickle
import re
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import uuid
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.core.carrycodec import CarryCodecError, decode_carries, encode_carries
from repro.core.detectors.table import FindingTable
from repro.core.engine import (
    ENGINES,
    _check_jobs,
    _open_store_from_spec,
    _opt_float,
    _opt_int,
    _opt_str,
    check_landed_guards,
    gather_groups,
    pass_groups,
    run_pass_group,
)
from repro.events.transport import (
    ShardTransport,
    TransportError,
    ZipArchiveTransport,
    list_blobs_under,
    open_transport,
    try_claim_blob,
    try_read_blob,
)
from repro.events.validation import TraceValidationError

#: Version tag of the queue protocol; workers refuse manifests they do
#: not speak rather than mis-folding them.  Version 2 switched results
#: from per-task pickles to batched carry-codec blobs; version 3 made a
#: task a pass group (its spec indices) and a result the group's payload
#: list; version 4 publishes one result blob per claim, named after it,
#: and drops the manifest's ``claim_batch`` field; version 5 pickles the
#: result blobs, read back through the allow-listed unpickler of
#: :mod:`repro.core.carrycodec`.
QUEUE_FORMAT_VERSION = 5

RUN_MANIFEST = "run.pkl"
DONE_MARKER = "done"
ABORT_MARKER = "abort"
TASK_PREFIX = "tasks/"
CLAIM_PREFIX = "claims/"
BEAT_PREFIX = "beats/"
RESULT_PREFIX = "results/"
ERROR_PREFIX = "errors/"

#: A claimed task is speculated once its fold position has been frozen
#: for this many fleet-median progress intervals (and at least
#: ``min(2 s, lease_timeout / 4)``).
SPECULATION_FACTOR = 4.0

#: Test hook honoured by the CLI ``worker`` entry point: the worker calls
#: ``os._exit(3)`` immediately after its N-th successful claim, simulating
#: a machine dying mid-fold with the lease left dangling.  A process-engine
#: worker runs one task, so it honours ``1``: it exits after its fold,
#: before reporting the result.
CRASH_ENV = "OMPDATAPERF_WORKER_CRASH_AFTER_CLAIM"

#: Exit code of a crash-hook death (distinct from error exits).
CRASH_EXIT_CODE = 3

#: Test hook honoured only by the CLI ``worker`` entry point: from its
#: N-th successful claim on, the worker keeps heartbeating but never
#: folds — a *stuck* worker (alive by every liveness signal, making no
#: progress), which is exactly the straggler speculation must rescue.
STALL_ENV = "OMPDATAPERF_WORKER_STALL_AFTER_CLAIM"

# Both patterns are end-anchored so that a transport's in-flight staging
# files (LocalDirTransport publishes through `<name>.tmp-<pid>` +
# os.replace) can never be mistaken for live queue blobs: a pending blob
# ends with the bare task stem, a claim/beat/result/error blob with the
# stem plus exactly one ".<worker-id>" segment (worker ids are sanitized
# to [A-Za-z0-9_-], so they contain no further dots).
_PENDING_NAME = re.compile(r"task-(\d{5})\.a(\d{3})$")
_LEASED_NAME = re.compile(r"task-(\d{5})\.a(\d{3})\.[A-Za-z0-9_-]+$")


class DistributedExecutionError(RuntimeError):
    """A distributed run could not complete (task retries exhausted,
    every worker lost, or the run timed out)."""


def _task_stem(index: int, attempt: int) -> str:
    return f"task-{index:05d}.a{attempt:03d}"


def _parse_pending_name(name: str) -> Optional[tuple[int, int]]:
    match = _PENDING_NAME.search(name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


def _parse_leased_name(name: str) -> Optional[tuple[int, int]]:
    match = _LEASED_NAME.search(name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


def worker_id() -> str:
    """A queue-safe identifier naming the host, process and instance."""
    host = re.sub(r"[^A-Za-z0-9_-]", "-", socket.gethostname()) or "host"
    return f"{host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def _check_queue_transport(transport: ShardTransport) -> None:
    """Reject queue backings that cannot take concurrent writers.

    A zip archive rewrites the whole archive (snapshot + atomic replace)
    on every mutation, so two workers heartbeating concurrently would
    silently erase each other's blobs — fine for a single-writer *store*,
    fatal for a *queue*.
    """
    if isinstance(transport, ZipArchiveTransport):
        raise ValueError(
            f"{transport.describe()}: a zip archive cannot back a task "
            f"queue (every mutation is a whole-archive rewrite, so "
            f"concurrent workers would overwrite each other); use a "
            f"directory or an object store"
        )


@dataclass
class ClaimedTask:
    """A worker-held lease on one task.

    ``counter`` is the liveness half of the heartbeat (bumped on every
    renewal); ``progress`` is the fold-position half (events folded so
    far, ticked by the fold loop) — the coordinator reads the pair as
    ``<counter>:<progress>`` from the beat blob.
    """

    name: str  # full claim blob name
    stem: str  # task-XXXXX.aYYY
    index: int
    attempt: int
    task: tuple[int, ...]  # the pass group's spec indices
    counter: int = 0
    progress: int = 0


class TaskQueue:
    """The queue protocol over one transport — shared by both actors.

    Every method is a small number of blob operations; nothing here holds
    state beyond the transport, so coordinator and workers may live in
    different processes or on different machines.
    """

    def __init__(self, transport: ShardTransport) -> None:
        self.transport = transport

    # -- run manifest --------------------------------------------------- #
    def publish_run(self, manifest: dict) -> None:
        self.transport.write_blob(RUN_MANIFEST, pickle.dumps(manifest))

    def read_run(self) -> Optional[dict]:
        data = try_read_blob(self.transport, RUN_MANIFEST)
        if data is None:
            return None
        try:
            return pickle.loads(data)
        except Exception:  # noqa: BLE001 — not (yet) a readable manifest
            # A torn or garbage manifest reads as "no run yet": workers
            # keep polling (and honour --idle-timeout) instead of dying
            # on an UnpicklingError.
            return None

    # -- tasks and leases ------------------------------------------------ #
    def publish_task(self, index: int, group: Sequence[int], attempt: int = 0) -> None:
        """Publish task ``index``: the spec indices of one pass group."""
        self.transport.write_blob(
            TASK_PREFIX + _task_stem(index, attempt), pickle.dumps(tuple(group))
        )

    def pending_task_names(self) -> list[str]:
        # The end-anchored parse skips anything that is not a live pending
        # blob (staging files, stray debris) rather than claiming it.
        return [
            name
            for name in list_blobs_under(self.transport, TASK_PREFIX)
            if _parse_pending_name(name) is not None
        ]

    def claim(self, pending_name: str, worker: str) -> Optional[ClaimedTask]:
        """Lease one pending task; ``None`` when the race was lost."""
        parsed = _parse_pending_name(pending_name)
        if parsed is None:
            return None
        index, attempt = parsed
        stem = _task_stem(index, attempt)
        claim_name = f"{CLAIM_PREFIX}{stem}.{worker}"
        if not try_claim_blob(self.transport, pending_name, claim_name):
            return None
        data = try_read_blob(self.transport, claim_name)
        if data is not None:
            try:
                task = pickle.loads(data)
            except Exception:  # noqa: BLE001 — corrupt payload
                data = None
        if data is None:
            # Torn copy-then-delete rename (missing or truncated payload);
            # leave the claim dangling — the coordinator's freeze
            # detection requeues the task under the next attempt.
            return None
        claim = ClaimedTask(
            name=claim_name, stem=stem, index=index, attempt=attempt, task=task,
        )
        self.heartbeat(claim)
        return claim

    def heartbeat(self, claim: ClaimedTask) -> None:
        claim.counter += 1
        suffix = claim.name[len(CLAIM_PREFIX):]
        self.transport.write_blob(
            BEAT_PREFIX + suffix, f"{claim.counter}:{claim.progress}".encode()
        )

    def release(self, claim: ClaimedTask) -> None:
        suffix = claim.name[len(CLAIM_PREFIX):]
        self.transport.delete_blob(claim.name)
        self.transport.delete_blob(BEAT_PREFIX + suffix)

    # -- results and failures -------------------------------------------- #
    def publish_result(self, claim: ClaimedTask, payload: bytes) -> None:
        """Publish a claim's encoded result blob atomically."""
        suffix = claim.name[len(CLAIM_PREFIX):]
        self.transport.write_blob(RESULT_PREFIX + suffix, payload)

    def result_names(self) -> list[str]:
        return [
            name
            for name in list_blobs_under(self.transport, RESULT_PREFIX)
            if _parse_leased_name(name) is not None
        ]

    def publish_error(self, claim: ClaimedTask, message: str) -> None:
        suffix = claim.name[len(CLAIM_PREFIX):]
        self.transport.write_blob(ERROR_PREFIX + suffix, message.encode("utf-8"))

    # -- terminal markers ------------------------------------------------- #
    def mark_done(self) -> None:
        self.transport.write_blob(DONE_MARKER, b"")

    def is_done(self) -> bool:
        return self.transport.blob_exists(DONE_MARKER)

    def mark_abort(self, reason: str) -> None:
        self.transport.write_blob(ABORT_MARKER, reason.encode("utf-8"))

    def abort_reason(self) -> Optional[str]:
        data = try_read_blob(self.transport, ABORT_MARKER)
        if data is None:
            return None
        return data.decode("utf-8", errors="replace")


# --------------------------------------------------------------------- #
# Worker
# --------------------------------------------------------------------- #
def run_worker(
    queue,
    *,
    poll_interval: float = 0.5,
    max_tasks: Optional[int] = None,
    idle_timeout: Optional[float] = None,
    echo=None,
    crash_hook: bool = False,
) -> int:
    """Claim, run and publish pass-group tasks until the run terminates.

    ``queue`` is a path or a :class:`~repro.events.transport.ShardTransport`;
    a queue location that does not exist yet is polled into existence, so
    workers may start before the coordinator (the CI smoke job does).
    Returns a process exit code: ``0`` after a ``done`` marker (or
    ``max_tasks`` processed), ``1`` on ``abort`` or a protocol mismatch,
    and — only with ``idle_timeout`` — ``1`` when no run ever appeared.

    A worker serves one run, so it opens that run's store once, on its
    first claim, and keeps it for the tasks after (a failed open is that
    task's error).  It claims one task at a
    time, renews that lease on a timer while it folds, and publishes one
    result blob for it.

    This function is the whole worker: the CLI ``worker`` subcommand calls
    it in a fresh process, the engine's thread mode calls it on a thread,
    and both speak the identical blob protocol.
    """
    say = echo if echo is not None else (lambda message: None)
    wid = worker_id()
    crash_after = stall_after = 0
    if crash_hook:
        try:
            crash_after = int(os.environ.get(CRASH_ENV, "0"))
        except ValueError:
            crash_after = 0
        try:
            stall_after = int(os.environ.get(STALL_ENV, "0"))
        except ValueError:
            stall_after = 0
    started = time.monotonic()
    transport: Optional[ShardTransport] = None
    run: Optional[dict] = None
    done_tasks = 0
    # successful claims (including ones that error) and the run's store
    state = {"claims": 0, "store": None}
    while True:
        if transport is None:
            try:
                transport = open_transport(queue)
            except (FileNotFoundError, ValueError, TransportError):
                transport = None
            if transport is not None:
                try:
                    _check_queue_transport(transport)
                except ValueError as exc:
                    say(f"error: worker {wid}: {exc}")
                    return 1
        if transport is not None:
            tq = TaskQueue(transport)
            try:
                reason = tq.abort_reason()
                if reason is not None:
                    say(f"error: worker {wid}: run aborted by coordinator: {reason}")
                    return 1
                if tq.is_done():
                    say(
                        f"info: worker {wid}: run complete "
                        f"({done_tasks} task(s) processed)"
                    )
                    return 0
                if run is None:
                    run = tq.read_run()
                    if run is not None and run.get("version") != QUEUE_FORMAT_VERSION:
                        say(
                            f"error: worker {wid}: queue speaks protocol version "
                            f"{run.get('version')!r}, this worker speaks "
                            f"{QUEUE_FORMAT_VERSION}"
                        )
                        return 1
                if run is not None:
                    if _run_one_task(tq, run, wid, say, crash_after, stall_after, state):
                        done_tasks += 1
                        if max_tasks is not None and done_tasks >= max_tasks:
                            say(f"info: worker {wid}: max tasks reached, exiting")
                            return 0
                        continue  # look for more work before sleeping
            except OSError as exc:
                # The queue went briefly unreadable (a TransportError, or a
                # raw filesystem race with a listing mid-teardown); treat
                # it like an empty poll and retry.
                say(f"warning: worker {wid}: transient queue error: {exc}")
        if (
            idle_timeout is not None
            and run is None
            and time.monotonic() - started > idle_timeout
        ):
            say(f"error: worker {wid}: no run appeared within {idle_timeout:g}s")
            return 1
        time.sleep(poll_interval)


def _run_one_task(
    tq: TaskQueue,
    run: dict,
    wid: str,
    say,
    crash_after: int,
    stall_after: int,
    state: dict,
) -> bool:
    """Lease one pending task, run its pass group on the run's store and
    publish its result.  Returns whether a result was published."""
    for pending_name in tq.pending_task_names():
        claim = tq.claim(pending_name, wid)
        if claim is not None:
            break
    else:
        return False
    state["claims"] += 1
    if crash_after and state["claims"] >= crash_after:
        # Simulated machine death: lease and heartbeat stay behind
        # exactly as a real mid-fold crash would leave them.
        os._exit(CRASH_EXIT_CODE)
    say(f"info: worker {wid}: claimed task {claim.index} (attempt {claim.attempt})")
    # Renew the lease on a timer, not per unit of work: the heartbeat
    # answers "is this worker alive?", so it must keep ticking however
    # long one shard's fold runs (a batch-granularity heartbeat would let
    # a single slow shard outlive the lease and get requeued under a
    # healthy worker).  Fold *progress* rides the same blob but is
    # republished promptly (at most every ``tick``) so the coordinator
    # sees the fold position advance long before the liveness floor.
    lease = float(run.get("lease_timeout") or 30.0)
    interval = max(min(lease / 4.0, 5.0), 0.02)
    tick = min(interval, 0.25)
    stop = threading.Event()

    def renew() -> None:
        published = claim.progress
        last_full = time.monotonic()
        while not stop.wait(tick):
            refresh = time.monotonic() - last_full >= interval
            if refresh or claim.progress != published:
                try:
                    tq.heartbeat(claim)
                except OSError:
                    return  # queue unreachable; the lease expires naturally
                published = claim.progress
            if refresh:
                last_full = time.monotonic()

    renewer = threading.Thread(target=renew, daemon=True)
    renewer.start()
    try:
        if stall_after and state["claims"] >= stall_after:
            # Simulated stuck worker: the claim is held and heartbeats
            # keep renewing, but the fold never starts.
            say(f"info: worker {wid}: stalling on task {claim.index} (test hook)")
            while True:
                time.sleep(0.5)
        try:
            if state["store"] is None:
                state["store"] = _open_store_from_spec(run["store_spec"])
            store = state["store"]
            specs = run["pass_specs"]

            def tick_progress(events: int) -> None:
                claim.progress += events

            payload = encode_carries(
                run_pass_group(store, [specs[i] for i in claim.task], tick_progress)
            )
        except Exception as exc:  # noqa: BLE001 — report, release, move on
            say(f"error: worker {wid}: task {claim.index} failed: {exc}")
            tq.publish_error(claim, f"{type(exc).__name__}: {exc}")
            tq.release(claim)
            return False
        tq.publish_result(claim, payload)
        # Only release after the result is durably published: a crash
        # between fold and publish must leave the lease to expire.
        tq.release(claim)
    finally:
        stop.set()
        renewer.join(timeout=5.0)
    say(f"info: worker {wid}: published result for task {claim.index}")
    return True


# --------------------------------------------------------------------- #
# Coordinator
# --------------------------------------------------------------------- #
def _beat_progress(beat: Optional[bytes]) -> Optional[bytes]:
    """The fold-position half of a beat payload (``None`` pre-v2 shape)."""
    if not beat:
        return None
    _, sep, tail = beat.partition(b":")
    return tail if sep else None


class _WorkerHandle:
    """One coordinator-spawned worker: a subprocess or a thread."""

    def __init__(self, proc=None, thread=None) -> None:
        self.proc = proc
        self.thread = thread

    def alive(self) -> bool:
        if self.proc is not None:
            return self.proc.poll() is None
        return self.thread.is_alive()

    def stop(self, timeout: float = 10.0) -> None:
        if self.proc is not None:
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        else:
            self.thread.join(timeout=timeout)


class DistributedEngine:
    """Pass groups on queue-fed workers: task blobs in, finding parts out.

    The passes are split into ``min(jobs, len(specs))`` groups by
    :func:`~repro.core.engine.pass_groups`, one task each — a one-shard
    store and ``jobs=1`` run on the queue like any other.  Two deployment
    shapes behind one engine:

    * **self-hosted** (``queue=None``, what ``resolve_engine`` builds):
      the coordinator stages the queue in a scratch directory
      and spawns ``workers`` loopback worker processes (default: one per
      task), so ``--engine distributed`` works on one machine with no
      setup — the distributed twin of the process engine, and a leg of
      the differential suite.
    * **attach** (``queue=<path or transport>``, ``workers=0``): the
      coordinator publishes into an existing queue location and real
      workers — started anywhere with ``ompdataperf worker --queue`` —
      lease the tasks.  The queue location must be empty (one queue is
      one run); workers may be waiting before it exists.

    ``worker_mode="thread"`` runs spawned workers as in-process threads
    over the same blob protocol — cheap enough for property tests to spin
    up a full coordinator/worker round per Hypothesis example.

    Failure handling: a task whose queue state freezes longer than
    ``lease_timeout`` (dead worker) or that reports a worker-side error
    is requeued under the next attempt tag; after ``max_attempts``
    attempts the run aborts with :class:`DistributedExecutionError`.
    A claimed task whose *fold position* stalls relative to the fleet is
    speculatively re-published early — see the module docstring for the
    lifecycle.  Spawned workers that die are replaced while the respawn
    budget lasts.  ``run_timeout`` bounds the whole run when set.
    :attr:`stats` records the last run's task, requeue, respawn,
    speculation, debris and duplicate-result counts (a stable contract;
    see :func:`~repro.core.engine.resolve_engine`).
    """

    name = "distributed"

    #: Options addressable from an ``EngineConfig`` spec string, e.g.
    #: ``"distributed:lease_timeout=10,run_timeout=300"``.
    config_options = {
        "queue": _opt_str,
        "workers": _opt_int,
        "worker_mode": _opt_str,
        "lease_timeout": _opt_float,
        "poll_interval": _opt_float,
        "max_attempts": _opt_int,
        "run_timeout": _opt_float,
    }

    def __init__(
        self,
        queue=None,
        *,
        workers: Optional[int] = None,
        worker_mode: str = "process",
        lease_timeout: float = 30.0,
        poll_interval: float = 0.2,
        max_attempts: int = 3,
        run_timeout: Optional[float] = None,
    ) -> None:
        if worker_mode not in ("process", "thread"):
            raise ValueError(f"unknown worker mode {worker_mode!r}")
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if workers is not None and workers < 0:
            raise ValueError("workers cannot be negative")
        if workers == 0 and queue is None:
            raise ValueError(
                "workers=0 spawns no worker, so it needs an attached queue "
                "that external workers serve"
            )
        self.queue = queue
        self.workers = workers
        self.worker_mode = worker_mode
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        self.max_attempts = max_attempts
        self.run_timeout = run_timeout
        #: Floor of the stall threshold: the lesser of 2s and a quarter of
        #: the lease, so fast fleets speculate promptly while noisy
        #: medians cannot trigger sub-second duplicates.
        self.min_stall = min(2.0, lease_timeout / 4.0)
        #: Observability for the last completed/failed run.
        self.stats: dict = {}

    # ------------------------------------------------------------------ #
    def run(self, specs, stream, *, jobs: int = 1) -> FindingTable:
        _check_jobs(jobs)
        from repro.events.store import ShardedTraceStore

        if not isinstance(stream, ShardedTraceStore):
            raise TypeError(
                "the distributed engine publishes transport specs to its "
                "workers and requires a ShardedTraceStore; shard the trace "
                "first (shard_trace / `ompdataperf trace shard`) or use "
                "the serial engine"
            )
        specs = tuple(specs)
        groups = pass_groups(specs, jobs)

        scratch_dir: Optional[str] = None
        if self.queue is None:
            scratch_dir = tempfile.mkdtemp(prefix="ompdataperf-queue-")
            transport = open_transport(Path(scratch_dir) / "queue", create=True)
            if transport.list_blobs():  # pragma: no cover - fresh tempdir
                raise ValueError(f"{transport.describe()}: scratch queue not empty")
        else:
            transport = self._open_queue()
        num_workers = self.workers if self.workers is not None else len(groups)
        if (
            num_workers > 0
            and self.worker_mode == "process"
            and getattr(transport, "path", None) is None
        ):
            raise ValueError(
                "process-mode workers are launched with a queue path and "
                f"{transport.describe()} has none; pass worker_mode='thread' "
                "or a path-backed queue"
            )

        queue = TaskQueue(transport)
        queue.publish_run(
            {
                "version": QUEUE_FORMAT_VERSION,
                "store_spec": stream.transport.spec(),
                "pass_specs": specs,
                "lease_timeout": self.lease_timeout,
            }
        )
        for index, group in enumerate(groups):
            queue.publish_task(index, group)

        self.stats = {
            "tasks": len(groups),
            "workers": num_workers,
            "requeued": 0,
            "respawned": 0,
            "speculative_launches": 0,
            "debris_blobs": 0,
            "duplicate_results": 0,
        }
        handles = [
            self._spawn_worker(transport) for _ in range(num_workers)
        ]
        respawn_budget = num_workers
        try:
            # Every group's payloads are in hand before the done marker
            # releases the workers and the scratch queue is torn down.
            landed = self._coordinate(
                queue, specs, groups, handles, respawn_budget, transport
            )
            queue.mark_done()
        except TraceValidationError:
            # The guard's verdict is the run's result: the workers are
            # released as from a completed run.
            queue.mark_done()
            raise
        except BaseException:
            # Whatever tore the run down (including KeyboardInterrupt in
            # the coordinator), external workers must not wait forever.
            if queue.abort_reason() is None and not queue.is_done():
                try:
                    queue.mark_abort("coordinator terminated")
                except TransportError:
                    pass
            raise
        finally:
            for handle in handles:
                handle.stop()
            if scratch_dir is not None:
                shutil.rmtree(scratch_dir, ignore_errors=True)

        # The one shared gather loads each shard holding a finding row
        # exactly once.
        return gather_groups(specs, groups, landed, stream)

    # ------------------------------------------------------------------ #
    def _open_queue(self) -> ShardTransport:
        """Open (creating if needed) the attach-mode queue location."""
        transport = open_transport(self.queue, create=True)
        _check_queue_transport(transport)
        if transport.list_blobs():
            raise ValueError(
                f"{transport.describe()}: refusing to coordinate over a "
                f"non-empty queue location (one queue is one run)"
            )
        return transport

    def _spawn_worker(self, transport: ShardTransport) -> _WorkerHandle:
        if self.worker_mode == "thread":
            thread = threading.Thread(
                target=run_worker,
                kwargs={
                    "queue": transport,
                    "poll_interval": min(self.poll_interval, 0.1),
                },
                daemon=True,
            )
            thread.start()
            return _WorkerHandle(thread=thread)
        env = dict(os.environ)
        # The spawned interpreter must find this package even when it is
        # used from a source tree rather than an installed distribution.
        package_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "worker",
                "--queue",
                str(transport.path),
                "--poll-interval",
                str(max(min(self.poll_interval, 0.2), 0.01)),
                "-q",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return _WorkerHandle(proc=proc)

    def _coordinate(
        self,
        queue: TaskQueue,
        specs: Sequence,
        groups: Sequence[Sequence[int]],
        handles: list[_WorkerHandle],
        respawn_budget: int,
        transport: ShardTransport,
    ) -> dict:
        """Poll until every group's payloads land; requeue/speculate leases.

        Result blobs are drained incrementally (each blob read exactly
        once; a task index already landed is a zombie's bit-identical
        duplicate and is dropped).  Returns ``{group position: payload
        list}``.  The guard groups are checked the moment they have all
        landed; a detector task that runs out of attempts before then is
        held back, and its failure raised only once the guards passed.
        """
        started = time.monotonic()
        tasks = range(len(groups))
        current_attempt = {index: 0 for index in tasks}
        # index -> (state token, monotonic time the token last changed)
        observed: dict[int, tuple[tuple, float]] = {}
        landed: dict[int, list] = {}
        guard_tasks = {
            index for index in tasks if any(specs[i].cls.guard for i in groups[index])
        }
        guards_checked = False
        # detector task -> its failure, held until the guards' verdict
        exhausted: dict[int, str] = {}
        seen_results: set[str] = set()
        # Speculation state: per-task fold-position marks, the fleet-wide
        # recent progress intervals, and when each (index, attempt) pair
        # was published (a landing's whole-task fallback interval).
        progress_marks: dict[int, tuple[tuple, float]] = {}
        liveness_marks: dict[int, tuple[tuple, float]] = {}
        progress_intervals: deque = deque(maxlen=64)
        publish_times = {(index, 0): started for index in tasks}
        speculated: set[int] = set()

        def fail_task(index: int, reason: str) -> None:
            attempt = current_attempt[index]
            stem = _task_stem(index, attempt)
            # Clear the dead generation's lease debris so the attempt tag
            # alone distinguishes live state.
            for name in list_blobs_under(transport, CLAIM_PREFIX + stem):
                transport.delete_blob(name)
            for name in list_blobs_under(transport, BEAT_PREFIX + stem):
                transport.delete_blob(name)
            next_attempt = attempt + 1
            if next_attempt >= self.max_attempts:
                message = (
                    f"task {index} failed {next_attempt} attempt(s), last: "
                    f"{reason} (max_attempts={self.max_attempts})"
                )
                if index not in guard_tasks and not guard_tasks <= landed.keys():
                    # A detector may have failed on the very invalidity
                    # the guard reports: wait for the guard's verdict.
                    exhausted[index] = message
                    return
                queue.mark_abort(message)
                raise DistributedExecutionError(message)
            current_attempt[index] = next_attempt
            observed.pop(index, None)
            progress_marks.pop(index, None)
            liveness_marks.pop(index, None)
            self.stats["requeued"] += 1
            queue.publish_task(index, groups[index], attempt=next_attempt)
            publish_times[(index, next_attempt)] = time.monotonic()

        def speculate_task(index: int, now: float) -> None:
            """Re-publish a stalled claim under the next attempt tag.

            The frozen claim is deliberately left in place: if its worker
            is merely slow it will still publish a (bit-identical) result,
            and whichever attempt lands first wins.
            """
            attempt = current_attempt[index]
            next_attempt = attempt + 1
            speculated.add(index)
            current_attempt[index] = next_attempt
            observed.pop(index, None)
            progress_marks.pop(index, None)
            liveness_marks.pop(index, None)
            self.stats["speculative_launches"] += 1
            queue.publish_task(index, groups[index], attempt=next_attempt)
            publish_times[(index, next_attempt)] = now

        def note_debris() -> None:
            self.stats["debris_blobs"] += 1
            if self.stats["debris_blobs"] == 1:
                warnings.warn(
                    "distributed run: dropped result debris from the "
                    "queue (counted in stats['debris_blobs'])",
                    RuntimeWarning,
                    stacklevel=3,
                )

        while True:
            now = time.monotonic()
            names = transport.list_blobs()
            pending = set()
            claims: dict[tuple[int, int], str] = {}
            errors: dict[tuple[int, int], str] = {}
            results: list[tuple[str, int, int]] = []
            for name in names:
                if name.startswith(RESULT_PREFIX):
                    parsed = _parse_leased_name(name)
                    if parsed and name not in seen_results:
                        results.append((name, *parsed))
                elif name.startswith(TASK_PREFIX):
                    parsed = _parse_pending_name(name)
                    if parsed:
                        pending.add(parsed)
                elif name.startswith(CLAIM_PREFIX):
                    parsed = _parse_leased_name(name)
                    if parsed:
                        claims[parsed] = name
                elif name.startswith(ERROR_PREFIX):
                    parsed = _parse_leased_name(name)
                    if parsed:
                        errors[parsed] = name

            for name, index, attempt in results:
                seen_results.add(name)
                data = try_read_blob(transport, name)
                if data is None:
                    continue
                if index not in current_attempt:
                    note_debris()
                    continue
                try:
                    payloads = decode_carries(data)
                except CarryCodecError as exc:
                    if attempt == current_attempt[index] and index not in landed:
                        # The live attempt's result is unusable: fail it
                        # now rather than wait out its lease.
                        fail_task(index, f"result blob undecodable: {exc}")
                    else:
                        note_debris()
                    continue
                if len(payloads) != len(groups[index]):
                    note_debris()
                    continue
                # A zombie's bit-identical duplicate is dropped by task
                # index.
                if index in landed:
                    self.stats["duplicate_results"] += 1
                    continue
                landed[index] = payloads
                # Every landing feeds the fleet-median window: the interval
                # since the claim's last observed progress when we saw one,
                # else since the task was published (its whole wall time) —
                # so the median exists even when folds finish between polls.
                mark = progress_marks.pop(index, None)
                if mark is not None:
                    progress_intervals.append(now - mark[1])
                else:
                    published = publish_times.get((index, current_attempt[index]))
                    if published is not None:
                        progress_intervals.append(now - published)

            if not guards_checked and guard_tasks <= landed.keys():
                guards_checked = True
                check_landed_guards(specs, groups, landed)
                if exhausted:
                    message = exhausted[min(exhausted)]
                    queue.mark_abort(message)
                    raise DistributedExecutionError(message)

            if len(landed) == len(groups):
                return landed

            for index in tasks:
                if index in landed or index in exhausted:
                    continue
                attempt = current_attempt[index]
                key = (index, attempt)
                if key in errors:
                    message = try_read_blob(transport, errors[key])
                    reason = (
                        message.decode("utf-8", errors="replace")
                        if message
                        else "worker reported an error"
                    )
                    fail_task(index, reason)
                    continue
                if key in pending:
                    token: tuple = ("pending", attempt)
                    frozen_means_dead = False
                else:
                    claim_name = claims.get(key)
                    if claim_name is not None:
                        beat_name = BEAT_PREFIX + claim_name[len(CLAIM_PREFIX):]
                        beat = try_read_blob(transport, beat_name)
                        token = ("claim", claim_name, beat)
                        self._track_progress(
                            index, attempt, claim_name, beat, now,
                            progress_marks, liveness_marks,
                            progress_intervals, speculated, speculate_task,
                        )
                    else:
                        # Neither pending nor claimed nor resulted: a torn
                        # claim rename, or a listing racing the worker.
                        token = ("missing", attempt)
                    frozen_means_dead = True
                last = observed.get(index)
                if last is None or last[0] != token:
                    observed[index] = (token, now)
                elif frozen_means_dead and now - last[1] > self.lease_timeout:
                    what = "lease expired" if token[0] == "claim" else "task blob lost"
                    fail_task(index, f"{what} after {self.lease_timeout:g}s")

            # Keep the spawned fleet alive while the budget lasts; a fleet
            # that died entirely can never finish the run, so fail fast.
            if handles:
                for i, handle in enumerate(handles):
                    if not handle.alive():
                        if respawn_budget > 0:
                            respawn_budget -= 1
                            self.stats["respawned"] += 1
                            handles[i] = self._spawn_worker(transport)
                if not any(handle.alive() for handle in handles):
                    message = (
                        f"all {len(handles)} spawned worker(s) exited before "
                        f"the run completed (respawn budget exhausted)"
                    )
                    queue.mark_abort(message)
                    raise DistributedExecutionError(message)

            if (
                self.run_timeout is not None
                and time.monotonic() - started > self.run_timeout
            ):
                message = f"run did not complete within {self.run_timeout:g}s"
                queue.mark_abort(message)
                raise DistributedExecutionError(message)
            time.sleep(self.poll_interval)

    def _track_progress(
        self,
        index: int,
        attempt: int,
        claim_name: str,
        beat: Optional[bytes],
        now: float,
        progress_marks: dict,
        liveness_marks: dict,
        progress_intervals: deque,
        speculated: set,
        speculate_task,
    ) -> None:
        """Record fold-position movement; speculate when it stalls.

        A claimed task's progress token is the fold-position half of its
        beat blob; its liveness token is the full beat bytes (counter
        included).  Every fold-position change feeds the fleet-wide
        interval window.  A task whose fold position freezes for longer
        than :data:`SPECULATION_FACTOR` times the fleet median (floored at
        ``min_stall``) **while its liveness counter keeps ticking** is a
        straggler — alive but stuck — and is re-published under the next
        attempt tag.  A frozen liveness counter means a dead worker, and
        that is the lease-expiry path's job (which also clears the dead
        lease's debris; speculation leaves the old claim in place).
        """
        ptoken = (attempt, claim_name, _beat_progress(beat))
        ltoken = (attempt, claim_name, beat)
        lmark = liveness_marks.get(index)
        if lmark is None or lmark[0] != ltoken:
            liveness_marks[index] = (ltoken, now)
        mark = progress_marks.get(index)
        if mark is None or mark[0] != ptoken:
            if mark is not None and mark[0][:2] == ptoken[:2]:
                # Same claim, fold position advanced: one fleet interval.
                progress_intervals.append(now - mark[1])
            progress_marks[index] = (ptoken, now)
            return
        if (
            index in speculated
            or attempt + 1 >= self.max_attempts
            or not progress_intervals
        ):
            return
        # Alive means the liveness token moved after progress froze.
        if liveness_marks[index][1] <= mark[1]:
            return
        stalled_for = now - mark[1]
        threshold = max(
            SPECULATION_FACTOR * statistics.median(progress_intervals),
            self.min_stall,
        )
        if stalled_for > threshold and stalled_for <= self.lease_timeout:
            speculate_task(index, now)


ENGINES[DistributedEngine.name] = DistributedEngine
