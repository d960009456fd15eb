"""Process engine lifecycle and load-accounting tests.

Every run of a :class:`~repro.core.engine.ProcessEngine` starts one
worker process per pass group and is done with it when the run ends.
Loads: every worker attaches each shard of its scan itself, as views, so
``map_count`` is ``tasks × shards`` on every transport.
Shutdown: no worker process is left alive after a clean run, after a
failed worker, after an injected worker crash
(``OMPDATAPERF_WORKER_CRASH_AFTER_CLAIM``), and after a
``KeyboardInterrupt`` in the parent, whether it comes while the workers
fold or in the gather after them.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core import engine as engine_mod
from repro.core.analysis import analyze_stream, analyze_trace
from repro.core.distributed import CRASH_ENV, CRASH_EXIT_CODE
from repro.core.engine import ProcessEngine
from repro.events.store import ShardedTraceStore, shard_trace
from repro.events.synth import make_synthetic_columnar_trace
from repro.events.transport import FakeObjectStoreTransport

STATS_KEYS = {
    "spawn_count",
    "spawn_seconds",
    "tasks",
    "workers",
    "open_seconds",
    "map_seconds",
    "map_count",
    "fold_seconds",
    "overhead_seconds",
    "overhead_per_task",
}


@pytest.fixture(scope="module")
def trace():
    return make_synthetic_columnar_trace(2400)


@pytest.fixture(scope="module")
def store(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("process-store") / "trace.store"
    return shard_trace(trace, path, shard_events=256)


@pytest.fixture(scope="module")
def stores(store, trace, tmp_path_factory):
    """One store per kind of transport: a directory, a zip archive and an
    object store."""
    zip_path = tmp_path_factory.mktemp("process-store-zip") / "trace.zip"
    return {
        "directory": store,
        "zip": shard_trace(trace, zip_path, shard_events=256),
        "object store": shard_trace(trace, FakeObjectStoreTransport(), shard_events=256),
    }


@pytest.fixture
def workers(monkeypatch) -> list:
    """Every worker process a process engine starts from now on."""
    started = []
    make_context = engine_mod._process_context

    class Recording:
        def __init__(self, ctx) -> None:
            self.Queue = ctx.Queue
            self._ctx = ctx

        def Process(self, *args, **kwargs):
            proc = self._ctx.Process(*args, **kwargs)
            started.append(proc)
            return proc

    monkeypatch.setattr(engine_mod, "_process_context", lambda: Recording(make_context()))
    return started


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


def _assert_shut_down(workers, count: int) -> None:
    assert len(workers) == count
    for proc in workers:
        assert not proc.is_alive()
        assert proc.exitcode is not None  # joined, not just signalled
    assert multiprocessing.active_children() == []


# --------------------------------------------------------------------- #
# Shutdown
# --------------------------------------------------------------------- #
def test_failed_worker_raises_and_leaves_no_worker(store, tmp_path, trace, workers):
    broken = shard_trace(trace, tmp_path / "broken.store", shard_events=256)
    for blob in broken.transport.list_blobs():
        broken.transport.delete_blob(blob)  # the workers cannot open it
    with pytest.raises(RuntimeError, match="process engine worker failed"):
        analyze_stream(broken, engine=ProcessEngine(), jobs=2)
    _assert_shut_down(workers, 2)


def test_worker_crash_raises_its_exit_code(store, monkeypatch, workers):
    # Each worker hard-exits after finishing its task, before reporting
    # the result.  The engine must notice instead of waiting forever.
    monkeypatch.setenv(CRASH_ENV, "1")
    with pytest.raises(RuntimeError, match=rf"died \(exit codes \[{CRASH_EXIT_CODE}\]\)"):
        analyze_stream(store, engine=ProcessEngine(), jobs=2)
    _assert_shut_down(workers, 2)


def test_crash_hook_counts_tasks(store, monkeypatch, workers):
    # A worker runs one task, so a crash after the second never comes.
    monkeypatch.setenv(CRASH_ENV, "2")
    expected = _findings(analyze_stream(store))
    assert _findings(analyze_stream(store, engine=ProcessEngine(), jobs=2)) == expected
    _assert_shut_down(workers, 2)


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


@pytest.mark.parametrize("where", ["while folding", "in the gather"])
def test_no_worker_survives_keyboard_interrupt(store, monkeypatch, workers, where):
    if where == "while folding":
        monkeypatch.setattr(engine_mod, "_collect", _interrupt)
    else:
        monkeypatch.setattr(engine_mod.FindingTable, "gather", _interrupt)
    with pytest.raises(KeyboardInterrupt):
        analyze_stream(store, engine=ProcessEngine(), jobs=2)
    _assert_shut_down(workers, 2)


def test_clean_runs_leave_no_worker(store, trace, workers):
    expected = _findings(analyze_trace(trace))
    eng = ProcessEngine()
    for jobs in (2, 1):
        assert _findings(analyze_stream(store, engine=eng, jobs=jobs)) == expected
    # Two runs of one engine start their own workers: 2, then 1.
    _assert_shut_down(workers, 3)


# --------------------------------------------------------------------- #
# Loads and stats
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("layout", ["directory", "zip", "object store"])
def test_every_worker_loads_each_shard_itself(layout, stores, trace):
    # A local shard is mapped in place, a zip member or an object is read
    # and viewed in place; either way every worker attaches each shard of
    # its one scan itself: one load per task and shard.
    stream = stores[layout]
    assert isinstance(stream, ShardedTraceStore)
    eng = ProcessEngine()
    assert _findings(analyze_stream(stream, engine=eng, jobs=2)) == _findings(
        analyze_trace(trace)
    )
    stats = eng.stats
    assert stats["tasks"] == 2
    assert stats["map_count"] == stats["tasks"] * stream.num_shards


@pytest.mark.parametrize("jobs", [1, 2])
def test_stats_shape_and_overhead_accounting(store, jobs):
    # jobs == 1 is one pass group on one worker, like any other job count.
    eng = ProcessEngine()
    analyze_stream(store, engine=eng, jobs=jobs)
    stats = eng.stats
    assert set(stats) == STATS_KEYS
    assert stats["tasks"] == stats["workers"] == stats["spawn_count"] == jobs
    assert stats["open_seconds"] > 0.0  # every worker opens the store
    assert stats["map_count"] == jobs * store.num_shards
    assert stats["overhead_seconds"] == pytest.approx(
        stats["spawn_seconds"] + stats["open_seconds"] + stats["map_seconds"]
    )
    assert stats["overhead_per_task"] == pytest.approx(stats["overhead_seconds"] / jobs)
