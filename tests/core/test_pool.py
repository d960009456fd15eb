"""Warm worker pool lifecycle and load-accounting tests.

The warm pool's contract has three parts.  Reuse: a ``keep_pool=True``
engine spawns each worker exactly once and keeps its stores open across
runs, which ``ProcessEngine.stats`` makes observable (``spawn_count``,
``pool_reuse``, ``open_seconds``).  Loads: every worker maps or decodes
each shard of its scan itself, so ``decode_count + map_count`` is
``tasks × shards`` on every run and every transport.  Shutdown: the
engine's pool is closed and no worker process is left alive after a
clean run, after an injected worker crash
(``OMPDATAPERF_WORKER_CRASH_AFTER_CLAIM``), and after a
``KeyboardInterrupt`` in the parent.
"""

from __future__ import annotations

import pytest

from repro.core import engine as engine_mod
from repro.core.analysis import analyze_stream, analyze_trace
from repro.core.distributed import CRASH_ENV
from repro.core.engine import ProcessEngine
from repro.events.store import shard_trace
from repro.events.synth import make_synthetic_columnar_trace


@pytest.fixture(scope="module")
def trace():
    return make_synthetic_columnar_trace(2400)


@pytest.fixture(scope="module")
def store(trace, tmp_path_factory):
    # Pinned to the legacy npz format, whose shards every load decodes.
    # Flat .odpf shards are mapped in place instead (see
    # test_odpf_store_folds_with_zero_decodes).
    path = tmp_path_factory.mktemp("pool-store") / "trace.store"
    return shard_trace(trace, path, shard_events=256, shard_format="npz")


@pytest.fixture(scope="module")
def odpf_store(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("pool-store-odpf") / "trace.store"
    return shard_trace(trace, path, shard_events=256)


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


def test_warm_pool_reuses_workers_across_runs(trace, store):
    expected = _findings(analyze_trace(trace))
    with ProcessEngine(keep_pool=True) as eng:
        assert _findings(analyze_stream(store, engine=eng, jobs=2)) == expected
        first = dict(eng.stats)
        assert _findings(analyze_stream(store, engine=eng, jobs=2)) == expected
        second = dict(eng.stats)

    # Workers spawned exactly once, over both runs.
    assert first["spawn_count"] == 2
    assert second["spawn_count"] == 2
    assert second["spawn_seconds"] == 0.0
    # One pass-group task per worker: the first run is all cold workers…
    assert first["tasks"] == first["workers"] == 2
    assert first["pool_reuse"] == 0
    # …and the second run runs entirely on warm workers with the store
    # already open: its only overhead is loading the shards.
    assert second["tasks"] == second["workers"] == 2
    assert second["pool_reuse"] == second["tasks"]
    assert second["open_seconds"] == 0.0
    assert second["overhead_seconds"] == pytest.approx(
        second["decode_seconds"] + second["map_seconds"]
    )


def test_odpf_store_folds_with_zero_decodes(trace, odpf_store):
    # Flat .odpf shards on a local store are mmapped in place: no decode
    # ever happens, first run included.
    expected = _findings(analyze_trace(trace))
    with ProcessEngine(keep_pool=True) as eng:
        assert _findings(analyze_stream(odpf_store, engine=eng, jobs=2)) == expected
        first = dict(eng.stats)
        assert _findings(analyze_stream(odpf_store, engine=eng, jobs=2)) == expected
        second = dict(eng.stats)
    for stats in (first, second):
        assert stats["decode_count"] == 0
        assert stats["decode_seconds"] == 0.0
        # One scan per worker: each group maps every shard once.
        assert stats["map_count"] == stats["tasks"] * odpf_store.num_shards


@pytest.fixture(scope="module")
def zip_store(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("pool-store-zip") / "trace.zip"
    return shard_trace(trace, path, shard_events=256)


@pytest.mark.parametrize("layout", ["npz", "zip"])
def test_every_worker_loads_each_shard_itself(layout, store, zip_store):
    # Shards that cannot be mapped in place (npz blobs are decoded, zip
    # members are read and viewed) are loaded by every worker that scans
    # them, on every run of a kept pool: one load per task and shard.
    stream = store if layout == "npz" else zip_store
    expected = _findings(analyze_stream(stream))
    with ProcessEngine(keep_pool=True) as eng:
        for _ in range(2):
            assert _findings(analyze_stream(stream, engine=eng, jobs=2)) == expected
            stats = eng.stats
            assert stats["tasks"] == 2
            assert (
                stats["decode_count"] + stats["map_count"]
                == stats["tasks"] * stream.num_shards
            )
            if layout == "npz":
                assert stats["map_count"] == 0


def test_stats_shape_and_overhead_accounting(store):
    eng = ProcessEngine()
    analyze_stream(store, engine=eng, jobs=2)
    stats = eng.stats
    assert set(stats) == {
        "spawn_count",
        "spawn_seconds",
        "tasks",
        "workers",
        "pool_reuse",
        "open_seconds",
        "decode_seconds",
        "decode_count",
        "map_seconds",
        "map_count",
        "fold_seconds",
        "overhead_seconds",
        "overhead_per_task",
    }
    assert stats["spawn_count"] == 2
    assert stats["overhead_seconds"] == pytest.approx(
        stats["spawn_seconds"]
        + stats["open_seconds"]
        + stats["decode_seconds"]
        + stats["map_seconds"]
    )
    assert stats["overhead_per_task"] == pytest.approx(
        stats["overhead_seconds"] / stats["tasks"]
    )


def test_jobs1_populates_the_same_overhead_breakdown(store, odpf_store):
    # jobs == 1 is one pass group on one pool worker, exactly like any
    # other job count: the same stats shape, one task, one spawned worker,
    # and one load per shard.
    eng2 = ProcessEngine()
    analyze_stream(store, engine=eng2, jobs=2)
    shape = set(eng2.stats)

    for stream in (store, odpf_store):
        eng = ProcessEngine()
        analyze_stream(stream, engine=eng, jobs=1)
        stats = eng.stats
        assert set(stats) == shape
        assert stats["tasks"] == stats["workers"] == stats["spawn_count"] == 1
        assert stats["decode_count"] + stats["map_count"] == stream.num_shards
        if stream is odpf_store:  # .odpf shards are mapped in place
            assert stats["decode_count"] == 0


def _track_pools(monkeypatch) -> list:
    """Record every warm pool a process engine builds from now on."""
    pools = []
    ensure = ProcessEngine._ensure_pool

    def tracked(self, workers):
        pool, spawn_seconds = ensure(self, workers)
        pools.append(pool)
        return pool, spawn_seconds

    monkeypatch.setattr(ProcessEngine, "_ensure_pool", tracked)
    return pools


def _assert_shut_down(eng, pools) -> None:
    assert eng._pool is None
    assert pools
    for pool in pools:
        assert pool._closed
        assert not any(proc.is_alive() for proc in pool._workers)


def test_no_worker_survives_clean_shutdown(store, monkeypatch):
    pools = _track_pools(monkeypatch)
    eng = ProcessEngine()
    analyze_stream(store, engine=eng, jobs=2)
    _assert_shut_down(eng, pools)


def test_no_worker_survives_worker_crash(store, monkeypatch):
    # Workers read the crash hook at pool construction; each one
    # hard-exits after finishing its first task, before reporting the
    # result.  The engine must notice and tear down the rest of the pool.
    monkeypatch.setenv(CRASH_ENV, "1")
    pools = _track_pools(monkeypatch)
    eng = ProcessEngine()
    with pytest.raises(RuntimeError, match="worker"):
        analyze_stream(store, engine=eng, jobs=2)
    _assert_shut_down(eng, pools)


def test_no_worker_survives_keyboard_interrupt(store, monkeypatch):
    def interrupt(parts, source):
        raise KeyboardInterrupt

    monkeypatch.setattr(engine_mod.FindingTable, "gather", interrupt)
    pools = _track_pools(monkeypatch)
    eng = ProcessEngine(keep_pool=True)
    with pytest.raises(KeyboardInterrupt):
        analyze_stream(store, engine=eng, jobs=2)
    # The run tears the engine down on ANY exception, keep_pool or not.
    _assert_shut_down(eng, pools)


def test_fold_positions_track_worker_progress(store):
    """The per-worker shared counters advance with folded events: each
    worker scans the stream once for its whole pass group, whatever the
    group's size (the warm-pool analogue of the distributed beat's
    fold-position half)."""
    from repro.core.detectors.duplicates import DuplicateTransferPass
    from repro.core.detectors.repeated_allocs import RepeatedAllocationPass
    from repro.core.detectors.roundtrips import RoundTripPass
    from repro.core.engine import PassSpec
    from repro.core.pool import WarmWorkerPool

    groups = (
        [PassSpec(DuplicateTransferPass), PassSpec(RoundTripPass)],
        [PassSpec(RepeatedAllocationPass)],
    )
    with WarmWorkerPool(2) as pool:
        assert pool.fold_positions() == [0, 0]
        jobs = [
            pool.submit_group(worker, store.transport.spec(), group)
            for worker, group in enumerate(groups)
        ]
        results = pool.collect(jobs)
        positions = pool.fold_positions()
    assert positions == [len(store), len(store)]
    # One payload per spec of the group, in group order.
    assert [len(results[job][0]) for job in jobs] == [2, 1]
    assert [results[job][1]["task_no"] for job in jobs] == [1, 1]
