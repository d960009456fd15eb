"""Tests for the distributed execution engine and its task-queue protocol.

Three layers:

* **queue protocol** — :class:`TaskQueue` driven directly over a local
  directory and the fake object store (claims race to one winner,
  heartbeats advance, results round-trip, markers terminate);
* **engine correctness** — thread-mode workers (the full blob protocol
  without subprocess cost) over every store transport, plus one real
  loopback-process run; every task is one pass group;
* **failure handling** — a worker killed mid-fold (the CLI crash hook
  leaves the lease dangling exactly like a dead machine) has its task
  requeued and the findings stay bit-identical; retries are bounded and
  exhaust into a :class:`DistributedExecutionError` plus an ``abort``
  marker every waiting worker obeys.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.core.analysis import analyze_stream, analyze_trace
from repro.core.distributed import (
    CRASH_ENV,
    CRASH_EXIT_CODE,
    DistributedEngine,
    DistributedExecutionError,
    QUEUE_FORMAT_VERSION,
    TaskQueue,
)
from repro.core.engine import ENGINES, available_engines, resolve_engine
from repro.events.store import shard_trace
from repro.events.stream import as_event_stream
from repro.events.synth import make_synthetic_columnar_trace
from repro.events.transport import FakeObjectStoreTransport, LocalDirTransport
from tests.conftest import FileTouch

WORKER_POLL = "0.05"


@pytest.fixture(scope="module")
def trace():
    return make_synthetic_columnar_trace(3_000)


@pytest.fixture(scope="module")
def store(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("distributed-store") / "trace.store"
    return shard_trace(trace, path, shard_events=512)


@pytest.fixture(scope="module")
def expected(trace):
    return _findings(analyze_trace(trace))


def _findings(report):
    return (
        report.counts,
        report.duplicate_groups,
        report.round_trip_groups,
        report.repeated_alloc_groups,
        report.unused_allocations,
        report.unused_transfers,
        report.potential,
    )


def _worker_cmd(queue_path):
    return [
        sys.executable, "-m", "repro.cli", "worker",
        "--queue", str(queue_path), "--poll-interval", WORKER_POLL, "-q",
    ]


def _worker_env(**extra):
    repo_src = str(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def _coordinate_in_thread(store, engine, jobs):
    """Run analyze_stream on a daemon thread; outcome lands in the dict."""
    out: dict = {}

    def target():
        try:
            out["report"] = analyze_stream(store, engine=engine, jobs=jobs)
        except BaseException as exc:  # noqa: BLE001 — surfaced by the test
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, out


# --------------------------------------------------------------------- #
# Registration and resolution
# --------------------------------------------------------------------- #
def test_distributed_engine_registered():
    assert "distributed" in ENGINES
    assert "distributed" in available_engines()
    engine = resolve_engine("distributed")
    assert isinstance(engine, DistributedEngine)
    # The default (self-hosted) shape: scratch queue, loopback processes.
    assert engine.queue is None and engine.worker_mode == "process"
    assert set(DistributedEngine.config_options) == {
        "queue", "workers", "worker_mode", "lease_timeout", "poll_interval",
        "max_attempts", "run_timeout",
    }
    # Claim batching, autoscaling hints and the speculation knobs are gone.
    retired = (
        "claim_batch", "speculate", "speculation_factor", "min_stall",
        "hints_interval",
    )
    for option in retired:
        with pytest.raises(ValueError, match="unknown option"):
            resolve_engine(f"distributed:{option}=1")
    params = inspect.signature(DistributedEngine).parameters
    assert not set(params) & {*retired, "worker_env"}


def test_engine_parameter_validation():
    with pytest.raises(ValueError, match="worker mode"):
        DistributedEngine(worker_mode="carrier-pigeon")
    with pytest.raises(ValueError, match="lease_timeout"):
        DistributedEngine(lease_timeout=0)
    with pytest.raises(ValueError, match="max_attempts"):
        DistributedEngine(max_attempts=0)
    # A self-hosted run with no worker, or a negative worker count, would
    # only ever end at run_timeout; a non-positive poll interval would fail
    # mid-run after the queue is published.
    with pytest.raises(ValueError, match="workers cannot be negative"):
        DistributedEngine(workers=-1)
    with pytest.raises(ValueError, match="workers cannot be negative"):
        DistributedEngine(queue="somewhere", workers=-1)
    with pytest.raises(ValueError, match="workers=0"):
        DistributedEngine(workers=0)
    with pytest.raises(ValueError, match="poll_interval"):
        DistributedEngine(poll_interval=0)
    with pytest.raises(ValueError, match="poll_interval"):
        DistributedEngine(poll_interval=-1)
    # Attach mode with no spawned worker stays valid.
    assert DistributedEngine(queue="somewhere", workers=0).workers == 0


def test_requires_sharded_store(trace):
    stream = as_event_stream(trace, 512)
    with pytest.raises(TypeError, match="ShardedTraceStore"):
        analyze_stream(stream, engine=DistributedEngine(), jobs=2)


def test_one_shard_store_runs_group_tasks_and_releases_attached_workers(
    trace, tmp_path, expected
):
    """Pass groups need no shard split: a one-shard store runs
    ``min(jobs, passes)`` group tasks on workers like any other store, and
    in attach mode external workers serving the queue exit on ``done``."""
    store = shard_trace(trace, tmp_path / "one.store", shard_events=10**9)
    assert store.num_shards == 1
    for jobs, tasks in ((1, 1), (4, 4), (8, 5)):
        engine = DistributedEngine(worker_mode="thread", poll_interval=0.02)
        report = analyze_stream(store, engine=engine, jobs=jobs)
        assert _findings(report) == expected
        assert engine.stats["tasks"] == engine.stats["workers"] == tasks

    queue_dir = tmp_path / "attach-queue"
    engine = DistributedEngine(
        queue=queue_dir, workers=0, poll_interval=0.05, run_timeout=120.0
    )
    thread, out = _coordinate_in_thread(store, engine, jobs=4)
    workers = [
        subprocess.Popen(_worker_cmd(queue_dir), env=_worker_env()) for _ in range(2)
    ]
    try:
        thread.join(timeout=120)
        assert not thread.is_alive(), "coordinator did not finish"
        assert "report" in out, out.get("error")
        assert _findings(out["report"]) == expected
        assert engine.stats["tasks"] == 4
        assert (queue_dir / "done").is_file()
        assert [worker.wait(timeout=60) for worker in workers] == [0, 0]
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()


def test_rejects_zip_archive_queue(store, tmp_path):
    """A zip archive serializes every mutation through a whole-archive
    rewrite, so concurrent workers would erase each other's claims —
    both coordinator and worker must refuse one as the queue."""
    import zipfile

    zip_queue = tmp_path / "queue.zip"
    with zipfile.ZipFile(zip_queue, "w"):
        pass
    engine = DistributedEngine(queue=zip_queue, workers=0, worker_mode="thread")
    with pytest.raises(ValueError, match="cannot back a task queue"):
        analyze_stream(store, engine=engine, jobs=2)
    worker = subprocess.Popen(_worker_cmd(zip_queue), env=_worker_env())
    assert worker.wait(timeout=60) == 1


def test_run_timeout_gives_clear_failure(store, tmp_path):
    """Attach mode with no workers: run_timeout converts
    an otherwise-silent forever-wait into a clear failure."""
    engine = DistributedEngine(
        queue=tmp_path / "abandoned-queue", workers=0,
        poll_interval=0.05, run_timeout=0.5,
    )
    with pytest.raises(DistributedExecutionError, match="did not complete"):
        analyze_stream(store, engine=engine, jobs=2)


def test_heartbeat_renews_on_a_timer_during_one_long_fold(trace, tmp_path):
    """Lease liveness must not depend on batch granularity: a run whose
    every shard folds slower than the lease timeout still completes with
    zero requeues, because the worker renews on a timer."""
    store = shard_trace(trace, tmp_path / "slow.store", shard_events=512)
    real_batches = type(store).batches

    def slow_batches(self):
        for batch in real_batches(self):
            time.sleep(0.5)  # one "shard fold" far beyond the lease
            yield batch

    engine = DistributedEngine(
        queue=tmp_path / "slow-queue", workers=1, worker_mode="thread",
        poll_interval=0.02, lease_timeout=0.3, max_attempts=2,
        run_timeout=60.0,
    )
    import unittest.mock

    with unittest.mock.patch.object(type(store), "batches", slow_batches):
        report = analyze_stream(store, engine=engine, jobs=2)
    assert report.counts is not None
    assert engine.stats["requeued"] == 0


def test_rejects_non_empty_queue(store, tmp_path):
    queue = tmp_path / "dirty-queue"
    queue.mkdir()
    (queue / "leftover").write_text("stale")
    engine = DistributedEngine(queue=queue, workers=0, worker_mode="thread")
    with pytest.raises(ValueError, match="non-empty queue"):
        analyze_stream(store, engine=engine, jobs=2)


# --------------------------------------------------------------------- #
# Queue protocol
# --------------------------------------------------------------------- #
@pytest.fixture(params=["local", "fake"])
def queue_transport(request, tmp_path):
    if request.param == "local":
        return LocalDirTransport(tmp_path / "queue", create=True)
    return FakeObjectStoreTransport()


def test_queue_protocol_round_trip(queue_transport):
    queue = TaskQueue(queue_transport)
    manifest = {"version": QUEUE_FORMAT_VERSION, "store_spec": {"kind": "x"}}
    assert queue.read_run() is None
    queue.publish_run(manifest)
    assert queue.read_run() == manifest

    queue.publish_task(0, [1, 3, 4])
    pending = queue.pending_task_names()
    assert pending == ["tasks/task-00000.a000"]

    claim = queue.claim(pending[0], "worker-a")
    assert claim is not None
    # A task is one pass group: the spec indices it folds.
    assert claim.index == 0 and claim.attempt == 0 and claim.task == (1, 3, 4)
    # The pending blob is gone; a second claimant loses the race.
    assert queue.pending_task_names() == []
    assert queue.claim(pending[0], "worker-b") is None

    # Heartbeats advance a counter blob next to the claim; the payload
    # carries "<liveness counter>:<fold position>".
    beat_name = "beats/task-00000.a000.worker-a"
    assert queue_transport.read_blob(beat_name) == b"1:0"
    claim.progress = 42
    queue.heartbeat(claim)
    assert queue_transport.read_blob(beat_name) == b"2:42"

    # A claim's result is one blob named after the claim.
    queue.publish_result(claim, b"carry-0")
    assert queue.result_names() == ["results/task-00000.a000.worker-a"]
    assert queue_transport.read_blob("results/task-00000.a000.worker-a") == b"carry-0"
    queue.release(claim)
    assert not queue_transport.blob_exists(claim.name)
    assert not queue_transport.blob_exists(beat_name)

    assert not queue.is_done() and queue.abort_reason() is None
    queue.mark_done()
    assert queue.is_done()
    queue.mark_abort("boom")
    assert queue.abort_reason() == "boom"


def test_pending_listing_ignores_staging_and_debris(queue_transport):
    """In-flight staging files (`<name>.tmp-<pid>` on the local transport)
    and stray blobs must never be parsed — or claimed — as tasks."""
    queue = TaskQueue(queue_transport)
    queue.publish_task(0, [0])
    queue_transport.write_blob("tasks/task-00001.a000.tmp-1234", b"half-written")
    queue_transport.write_blob("tasks/README", b"not a task")
    assert queue.pending_task_names() == ["tasks/task-00000.a000"]
    # Direct claims of non-task names are refused before any rename.
    assert queue.claim("tasks/task-00001.a000.tmp-1234", "w1") is None
    assert queue_transport.blob_exists("tasks/task-00001.a000.tmp-1234")


def test_result_listing_ignores_staging_files(queue_transport):
    """A result half-written through its staging file is not a result yet:
    only published per-claim names are listed."""
    queue = TaskQueue(queue_transport)
    queue.publish_task(0, [0])
    claim = queue.claim("tasks/task-00000.a000", "w1")
    queue.publish_result(claim, b"carry")
    queue_transport.write_blob("results/task-00001.a000.w1.tmp-1234", b"\x80\x05\x95")
    queue_transport.write_blob("results/task-00002.a000", b"no worker id")
    queue_transport.write_blob("results/rb-w1-00001", b"old batch name")
    assert queue.result_names() == ["results/task-00000.a000.w1"]


def test_claim_with_corrupt_payload_left_to_lease_expiry(queue_transport):
    """A truncated task payload (torn copy-then-delete rename) must not
    kill the worker; the claim is left dangling for the coordinator."""
    queue_transport.write_blob("tasks/task-00003.a000", b"\x80\x04 truncated")
    queue = TaskQueue(queue_transport)
    assert queue.claim("tasks/task-00003.a000", "w1") is None
    # The rename happened (the pending blob is consumed), so only the
    # coordinator's freeze detection can requeue it — by design.
    assert queue.pending_task_names() == []


def test_requeued_generation_never_collides(queue_transport):
    """Attempt tags keep a stale claim distinct from the live generation."""
    queue = TaskQueue(queue_transport)
    queue.publish_task(2, [0, 2], attempt=0)
    first = queue.claim("tasks/task-00002.a000", "w1")
    assert first is not None
    queue.publish_task(2, [0, 2], attempt=1)  # requeue while the claim dangles
    second = queue.claim("tasks/task-00002.a001", "w2")
    assert second is not None
    assert first.name != second.name
    assert second.attempt == 1


# --------------------------------------------------------------------- #
# Correctness across transports (thread-mode workers)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("destination", ["dir", "zip", "fake"])
@pytest.mark.parametrize("jobs", [2, 5])
def test_thread_workers_match_oracle_over_transports(
    trace, tmp_path, expected, destination, jobs
):
    if destination == "dir":
        target = tmp_path / "t.store"
    elif destination == "zip":
        target = tmp_path / "t.zip"
    else:
        target = FakeObjectStoreTransport()
    store = shard_trace(trace, target, shard_events=512)
    engine = DistributedEngine(
        worker_mode="thread", poll_interval=0.02, lease_timeout=30.0
    )
    report = analyze_stream(store, engine=engine, jobs=jobs)
    assert _findings(report) == expected
    assert engine.stats["tasks"] == jobs
    assert engine.stats["requeued"] == 0


def test_object_store_queue_and_store(trace, expected):
    """Queue *and* store on S3-like transports: claims go copy-then-delete."""
    store = shard_trace(trace, FakeObjectStoreTransport(), shard_events=512)
    queue = FakeObjectStoreTransport()
    engine = DistributedEngine(
        queue=queue, workers=2, worker_mode="thread",
        poll_interval=0.02, lease_timeout=30.0,
    )
    report = analyze_stream(store, engine=engine, jobs=3)
    assert _findings(report) == expected
    # Attach-style queues are left for post-mortem: done marker + results.
    assert queue.blob_exists("done")


def test_more_jobs_than_passes(store, expected):
    """Parallelism is capped at one task (and one spawned worker) per pass."""
    engine = DistributedEngine(worker_mode="thread", poll_interval=0.02)
    report = analyze_stream(store, engine=engine, jobs=64, validate=True)
    assert _findings(report) == expected
    assert engine.stats["tasks"] == engine.stats["workers"] == 6


def test_self_hosted_process_workers(store, expected):
    """The real thing once: loopback worker subprocesses over a scratch queue."""
    engine = DistributedEngine(poll_interval=0.05, lease_timeout=60.0)
    report = analyze_stream(store, engine=engine, jobs=2)
    assert _findings(report) == expected
    stats = engine.stats
    assert stats["tasks"] == 2 and stats["workers"] == 2
    assert stats["requeued"] == 0 and stats["respawned"] == 0
    assert stats["speculative_launches"] == 0
    assert stats["debris_blobs"] == 0 and stats["duplicate_results"] == 0
    assert "peak_unmerged_chains" not in stats  # retired: nothing merges
    assert "hints" not in stats  # retired: no autoscaling snapshot


# --------------------------------------------------------------------- #
# External workers (attach mode)
# --------------------------------------------------------------------- #
def test_attach_mode_with_external_worker(store, tmp_path, expected):
    queue_dir = tmp_path / "attach-queue"
    engine = DistributedEngine(
        queue=queue_dir, workers=0, poll_interval=0.05,
        lease_timeout=30.0, run_timeout=120.0,
    )
    thread, out = _coordinate_in_thread(store, engine, jobs=3)
    # The worker starts against a queue the coordinator may not have
    # created yet — exactly the CI smoke job's start order.
    worker = subprocess.Popen(_worker_cmd(queue_dir), env=_worker_env())
    try:
        thread.join(timeout=120)
        assert not thread.is_alive(), "coordinator did not finish"
        assert "report" in out, out.get("error")
        assert _findings(out["report"]) == expected
        assert worker.wait(timeout=60) == 0  # exits on the done marker
    finally:
        if worker.poll() is None:
            worker.kill()


def test_worker_death_recovery(store, tmp_path, expected):
    """Kill a worker mid-fold: the lease expires, the task is requeued,
    and the completed run's findings are bit-identical."""
    queue_dir = tmp_path / "death-queue"
    engine = DistributedEngine(
        queue=queue_dir, workers=0, poll_interval=0.05,
        lease_timeout=0.75, max_attempts=3, run_timeout=120.0,
    )
    thread, out = _coordinate_in_thread(store, engine, jobs=3)
    crasher = subprocess.Popen(
        _worker_cmd(queue_dir), env=_worker_env(**{CRASH_ENV: "1"})
    )
    healthy = None
    try:
        # The crash hook exits the worker right after its first claim,
        # leaving the lease and heartbeat dangling like a dead machine.
        assert crasher.wait(timeout=60) == CRASH_EXIT_CODE
        healthy = subprocess.Popen(_worker_cmd(queue_dir), env=_worker_env())
        thread.join(timeout=120)
        assert not thread.is_alive(), "coordinator did not finish"
        assert "report" in out, out.get("error")
        assert _findings(out["report"]) == expected
        assert engine.stats["requeued"] >= 1
        assert healthy.wait(timeout=60) == 0
    finally:
        for proc in (crasher, healthy):
            if proc is not None and proc.poll() is None:
                proc.kill()


def test_bounded_retries_then_clear_failure(store, tmp_path):
    """Every attempt dies -> abort marker + DistributedExecutionError."""
    queue_dir = tmp_path / "retry-queue"
    engine = DistributedEngine(
        queue=queue_dir, workers=0, poll_interval=0.05,
        lease_timeout=0.5, max_attempts=2, run_timeout=120.0,
    )
    thread, out = _coordinate_in_thread(store, engine, jobs=2)
    procs = []
    try:
        crasher = subprocess.Popen(
            _worker_cmd(queue_dir), env=_worker_env(**{CRASH_ENV: "1"})
        )
        procs.append(crasher)
        assert crasher.wait(timeout=60) == CRASH_EXIT_CODE
        # Wait for the requeued generation so the second crasher
        # deterministically claims it (attempt tags sort first).
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if list((queue_dir / "tasks").glob("task-*.a001")):
                break
            time.sleep(0.05)
        else:
            pytest.fail("expired lease was never requeued")
        crasher = subprocess.Popen(
            _worker_cmd(queue_dir), env=_worker_env(**{CRASH_ENV: "1"})
        )
        procs.append(crasher)
        assert crasher.wait(timeout=60) == CRASH_EXIT_CODE

        thread.join(timeout=120)
        assert not thread.is_alive(), "coordinator did not finish"
        error = out.get("error")
        assert isinstance(error, DistributedExecutionError)
        assert "attempt" in str(error) and "max_attempts=2" in str(error)
        # The abort marker turns away every later worker with an error.
        late = subprocess.Popen(_worker_cmd(queue_dir), env=_worker_env())
        procs.append(late)
        assert late.wait(timeout=60) == 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()


def test_worker_error_requeues_without_waiting_for_lease(trace, tmp_path):
    """A worker-side exception publishes an error blob; the coordinator
    requeues immediately (no lease wait) and exhausts into a clear abort."""
    store = shard_trace(trace, tmp_path / "t.store", shard_events=512)
    # Sabotage the store before the run: the coordinator publishes its
    # tasks without reading a shard, but every worker reopening the store
    # from its spec finds the shard blobs gone and raises mid-fold.
    for shard in store.shards:
        store.transport.delete_blob(shard.file)
    engine = DistributedEngine(
        queue=tmp_path / "error-queue", workers=1, worker_mode="thread",
        poll_interval=0.02, lease_timeout=60.0, max_attempts=2,
        run_timeout=60.0,
    )
    started = time.monotonic()
    with pytest.raises(DistributedExecutionError) as excinfo:
        analyze_stream(store, engine=engine, jobs=2)
    # Error blobs short-circuit: both attempts fail well inside the 60s
    # lease timeout, so exhaustion cannot have come from lease expiry.
    assert time.monotonic() - started < 60.0
    assert "cannot read blob" in str(excinfo.value)
    assert engine.stats["requeued"] >= 1


# --------------------------------------------------------------------- #
# Debris accounting, duplicates, speculation
# --------------------------------------------------------------------- #
def test_undecodable_current_result_fails_its_task_at_once(store, tmp_path, monkeypatch):
    """A live attempt's result that the coordinator cannot decode fails
    the task at once: it requeues, and after ``max_attempts`` the run
    aborts with the decode error, long before the lease could expire."""
    from repro.core import carrycodec

    monkeypatch.delitem(
        carrycodec._allowed(), ("repro.core.detectors.table", "FindingPart")
    )
    engine = DistributedEngine(
        queue=tmp_path / "undecodable-queue", workers=1, worker_mode="thread",
        poll_interval=0.02, lease_timeout=60.0, max_attempts=2,
        run_timeout=60.0,
    )
    started = time.monotonic()
    with pytest.raises(DistributedExecutionError) as excinfo:
        analyze_stream(store, engine=engine, jobs=2)
    assert time.monotonic() - started < 20.0
    assert "result blob undecodable" in str(excinfo.value)
    assert "is not allowed" in str(excinfo.value)
    assert engine.stats["requeued"] >= 1
    assert engine.stats["debris_blobs"] == 0


def _run_with_result_blob(store, queue_dir, name, data):
    """Analyze ``store`` on a queue where ``data`` sits under the result
    name ``name``, in front of any real result; one worker thread serves
    the run.  Returns the engine, the report and the warnings raised."""
    import warnings

    from repro.core.distributed import RUN_MANIFEST, run_worker
    from repro.events.transport import open_transport

    engine = DistributedEngine(
        queue=queue_dir, workers=0, poll_interval=0.05,
        lease_timeout=60.0, run_timeout=120.0,
    )

    def inject_then_work():
        # Wait for the coordinator to create the queue, drop the blob,
        # then serve the run from this thread.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if queue_dir.exists():
                transport = open_transport(queue_dir)
                if transport.blob_exists(RUN_MANIFEST):
                    break
            time.sleep(0.01)
        transport.write_blob(name, data)
        run_worker(queue_dir, poll_interval=0.05, echo=None)

    worker = threading.Thread(target=inject_then_work, daemon=True)
    worker.start()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = analyze_stream(store, engine=engine, jobs=2)
    worker.join(timeout=60)
    return engine, report, [w for w in caught if "debris" in str(w.message)]


#: A result name for task 0 under an attempt the run never reaches.
STALE_RESULT = "results/task-00000.a009.garbage"


def test_undecodable_stale_result_blobs_counted_and_warned(store, tmp_path, expected):
    """A garbage blob under results/ that answers no live attempt is
    dropped, but with a trace: one RuntimeWarning per run and a
    stats["debris_blobs"] count."""
    engine, report, debris_warnings = _run_with_result_blob(
        store, tmp_path / "debris-queue", STALE_RESULT, b"not a carry payload"
    )
    assert _findings(report) == expected
    assert len(debris_warnings) == 1
    assert engine.stats["debris_blobs"] == 1
    # The garbage blob did not consume any task: nothing was requeued.
    assert engine.stats["requeued"] == 0


def test_undecodable_current_result_blob_requeues(store, tmp_path, expected):
    """A garbage blob under the live attempt's result name fails that
    attempt: the task requeues at once (not at lease expiry), nothing
    counts as debris, and the findings are unchanged."""
    started = time.monotonic()
    engine, report, debris_warnings = _run_with_result_blob(
        store, tmp_path / "requeue-queue", "results/task-00000.a000.garbage",
        b"not a carry payload",
    )
    assert time.monotonic() - started < 30.0
    assert _findings(report) == expected
    assert engine.stats["requeued"] == 1
    assert engine.stats["debris_blobs"] == 0
    assert not debris_warnings


def test_foreign_global_result_blob_is_debris_and_never_called(store, tmp_path, expected):
    """A result pickle naming a global outside the codec's allow-list is
    debris like any garbage blob, and the global is never called: its
    marker file never appears."""
    import pickle

    marker = tmp_path / "marker"
    engine, report, debris_warnings = _run_with_result_blob(
        store, tmp_path / "foreign-queue", STALE_RESULT,
        pickle.dumps([FileTouch(marker)], protocol=5),
    )
    assert _findings(report) == expected
    assert len(debris_warnings) == 1
    assert engine.stats["debris_blobs"] == 1
    assert engine.stats["requeued"] == 0
    assert not marker.exists()


def test_result_staging_file_is_not_debris(store, tmp_path, expected):
    """A truncated staging file of a result (what a worker's publish
    holds until its atomic replace) is neither decoded nor dropped as
    debris: no warning, ``debris_blobs == 0``."""
    import warnings

    from repro.core.distributed import RUN_MANIFEST, run_worker
    from repro.events.transport import open_transport

    queue_dir = tmp_path / "staging-queue"
    engine = DistributedEngine(
        queue=queue_dir, workers=0, poll_interval=0.05,
        lease_timeout=60.0, run_timeout=120.0,
    )

    def inject_then_work():
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if queue_dir.exists():
                transport = open_transport(queue_dir)
                if transport.blob_exists(RUN_MANIFEST):
                    break
            time.sleep(0.01)
        transport.write_blob("results/task-00000.a000.w1.tmp-1234", b"\x80\x05\x95\x00")
        run_worker(queue_dir, poll_interval=0.05, echo=None)

    worker = threading.Thread(target=inject_then_work, daemon=True)
    worker.start()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = analyze_stream(store, engine=engine, jobs=2)
    worker.join(timeout=60)
    assert _findings(report) == expected
    assert not [w for w in caught if "debris" in str(w.message)]
    assert engine.stats["debris_blobs"] == 0
    assert engine.stats["requeued"] == 0


def test_zombie_results_are_dropped_as_duplicates(store, tmp_path, expected):
    """Two attempts of one task both publish: a zombie of attempt 0 and a
    late speculative attempt 1.  The first result to land wins, the other
    counts in ``stats["duplicate_results"]``, and the findings equal the
    serial run's."""
    from repro.core.carrycodec import encode_carries
    from repro.core.distributed import RUN_MANIFEST, run_worker
    from repro.core.engine import _open_store_from_spec, run_pass_group
    from repro.events.transport import open_transport

    queue_dir = tmp_path / "zombie-queue"
    engine = DistributedEngine(
        queue=queue_dir, workers=0, poll_interval=0.05,
        lease_timeout=60.0, run_timeout=120.0,
    )

    def zombies_then_work():
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if queue_dir.exists():
                transport = open_transport(queue_dir)
                if transport.blob_exists(RUN_MANIFEST):
                    break
            time.sleep(0.01)
        queue = TaskQueue(transport)
        while not queue.pending_task_names():
            time.sleep(0.01)
        run = queue.read_run()
        claim = queue.claim("tasks/task-00000.a000", "zombie-a")
        specs = [run["pass_specs"][i] for i in claim.task]
        zombie_store = _open_store_from_spec(run["store_spec"])
        payload = encode_carries(run_pass_group(zombie_store, specs))
        queue.publish_result(claim, payload)
        transport.write_blob("results/task-00000.a001.zombie-b", payload)
        queue.release(claim)
        run_worker(queue_dir, poll_interval=0.05, echo=None)

    worker = threading.Thread(target=zombies_then_work, daemon=True)
    worker.start()
    report = analyze_stream(store, engine=engine, jobs=2)
    worker.join(timeout=60)
    assert _findings(report) == expected
    assert engine.stats["duplicate_results"] >= 1
    assert engine.stats["debris_blobs"] == 0
    assert engine.stats["requeued"] == 0
    assert sorted(p.name for p in (queue_dir / "results").iterdir())[:2] == [
        "task-00000.a000.zombie-a", "task-00000.a001.zombie-b",
    ]


def test_stalled_worker_finishes_via_speculation(store, tmp_path, expected):
    """A worker that heartbeats but never folds (the stall hook) is
    detected by the frozen fold position and its task re-published under
    the next attempt tag; the run completes well before lease_timeout
    without a single lease-expiry requeue."""
    from repro.core.distributed import STALL_ENV

    queue_dir = tmp_path / "stall-queue"
    lease = 30.0
    engine = DistributedEngine(
        queue=queue_dir, workers=0, poll_interval=0.05,
        lease_timeout=lease, max_attempts=3, run_timeout=120.0,
    )
    thread, out = _coordinate_in_thread(store, engine, jobs=6)
    stalled = subprocess.Popen(
        _worker_cmd(queue_dir), env=_worker_env(**{STALL_ENV: "1"})
    )
    healthy = None
    try:
        # Wait until the stalled worker holds its claim (it is the only
        # worker, so the first claim blob is necessarily its own).
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if queue_dir.exists() and list((queue_dir / "claims").glob("*")):
                break
            time.sleep(0.01)
        else:
            pytest.fail("stalled worker never claimed a task")
        stall_started = time.monotonic()
        healthy = subprocess.Popen(_worker_cmd(queue_dir), env=_worker_env())
        thread.join(timeout=90)
        elapsed = time.monotonic() - stall_started
        assert not thread.is_alive(), "coordinator did not finish"
        assert "report" in out, out.get("error")
        assert _findings(out["report"]) == expected
        # Speculation beat the lease: the stalled task was re-published
        # early and the duplicate attempt finished the run.
        assert engine.stats["speculative_launches"] >= 1
        assert engine.stats["requeued"] == 0
        assert elapsed < lease * 0.75
        assert healthy.wait(timeout=60) == 0
    finally:
        for proc in (stalled, healthy):
            if proc is not None and proc.poll() is None:
                proc.kill()
