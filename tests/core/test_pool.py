"""Warm worker pool and shared-shard-cache lifecycle tests.

The warm pool's contract has two halves.  Performance: a
``keep_pool=True`` engine spawns each worker exactly once and keeps
stores open and shards published across runs, which ``ProcessEngine.stats``
makes observable (``spawn_count``, ``pool_reuse``, ``decode_count``,
``cache_hits``).  Safety: shared-memory segments belong to the engine
that owns the cache, never to the workers — so segments must be gone
from ``/dev/shm`` after a clean shutdown, after an injected worker crash
(``OMPDATAPERF_WORKER_CRASH_AFTER_CLAIM``), and after a
``KeyboardInterrupt`` in the parent, with no help from the crashed
party.
"""

from __future__ import annotations

import os

import pytest

from repro.core import engine as engine_mod
from repro.core.analysis import analyze_stream, analyze_trace
from repro.core.distributed import CRASH_ENV
from repro.core.engine import ProcessEngine
from repro.events.shardcache import SharedShardCache, residual_segments
from repro.events.store import shard_trace
from repro.events.synth import make_synthetic_columnar_trace


@pytest.fixture(scope="module")
def trace():
    return make_synthetic_columnar_trace(2400)


@pytest.fixture(scope="module")
def store(trace, tmp_path_factory):
    # Pinned to the legacy npz format: these tests observe the shared
    # cache's decode-once contract, which only applies to shards that
    # need decoding.  Flat .odpf shards bypass the cache by design (see
    # test_odpf_store_folds_with_zero_decodes_and_no_cache).
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
    # …and the second run runs entirely on warm workers with every shard
    # already published to the shared cache: no opens, no decodes.
    assert second["tasks"] == second["workers"] == 2
    assert second["pool_reuse"] == second["tasks"]
    assert second["open_seconds"] == 0.0
    assert second["decode_count"] == 0
    assert second["cache_hits"] > 0
    assert second["overhead_seconds"] == 0.0


def test_odpf_store_folds_with_zero_decodes_and_no_cache(trace, odpf_store):
    # Flat .odpf shards on a local store are mmapped in place: no decode
    # ever happens (first run included), and nothing is published to the
    # shared cache — the store file is its own shared payload.
    expected = _findings(analyze_trace(trace))
    with ProcessEngine(keep_pool=True) as eng:
        assert _findings(analyze_stream(odpf_store, engine=eng, jobs=2)) == expected
        first = dict(eng.stats)
        assert _findings(analyze_stream(odpf_store, engine=eng, jobs=2)) == expected
        second = dict(eng.stats)
    for stats in (first, second):
        assert stats["decode_count"] == 0
        assert stats["decode_seconds"] == 0.0
        assert stats["cache_hits"] == 0
        # One scan per worker: each group maps every shard once.
        assert stats["map_count"] == stats["tasks"] * odpf_store.num_shards
    assert residual_segments() == []


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
        "cache_hits",
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
    # jobs == 1 degrades to a serial run but must still report the full
    # stats shape (the engine benchmark records it per worker count).
    eng2 = ProcessEngine()
    analyze_stream(store, engine=eng2, jobs=2)
    shape = set(eng2.stats)

    eng = ProcessEngine()
    analyze_stream(store, engine=eng, jobs=1)
    stats = eng.stats
    assert set(stats) == shape
    assert stats["tasks"] == 1
    assert stats["workers"] == 0
    assert stats["spawn_seconds"] == 0.0
    assert stats["decode_count"] > 0  # npz shards decode even serially

    eng = ProcessEngine()
    analyze_stream(odpf_store, engine=eng, jobs=1)
    assert set(eng.stats) == shape
    assert eng.stats["decode_seconds"] == 0.0
    assert eng.stats["decode_count"] == 0
    assert eng.stats["map_count"] > 0


def test_no_segments_survive_clean_shutdown(store):
    analyze_stream(store, engine="process", jobs=2)
    assert residual_segments() == []


def test_no_segments_survive_worker_crash(store, monkeypatch):
    # Workers read the crash hook at pool construction; each one
    # hard-exits after finishing its first task, *after* publishing
    # shared segments and before reporting the result — the window where
    # cleanup tied to worker exit would leak.
    monkeypatch.setenv(CRASH_ENV, "1")
    eng = ProcessEngine()
    with pytest.raises(RuntimeError, match="worker"):
        analyze_stream(store, engine=eng, jobs=2)
    assert residual_segments() == []


def test_no_segments_survive_keyboard_interrupt(store, monkeypatch):
    def interrupt(parts, source):
        raise KeyboardInterrupt

    monkeypatch.setattr(engine_mod.FindingTable, "gather", interrupt)
    eng = ProcessEngine(keep_pool=True)
    with pytest.raises(KeyboardInterrupt):
        analyze_stream(store, engine=eng, jobs=2)
    # The run tears the engine down on ANY exception, keep_pool or not:
    # a stranded cache would leak /dev/shm for the process lifetime.
    assert residual_segments() == []


def test_mmap_backend_round_trip(trace, tmp_path):
    owner = SharedShardCache(backend="mmap")
    assert owner.attach(0) is None  # nothing published yet
    owner.publish(0, trace)
    worker = SharedShardCache.from_spec(owner.spec())
    seen = worker.attach(0)
    assert seen is not None
    assert seen.num_data_op_events == trace.num_data_op_events
    assert seen.num_target_events == trace.num_target_events
    worker.close()
    scratch = owner.scratch_dir
    owner.cleanup(1)
    assert not os.path.exists(scratch)


def test_broken_cache_degrades_to_private_decode(trace):
    cache = SharedShardCache(backend="off")
    cache.publish(0, trace)
    assert cache.attach(0) is None
    assert cache.publishes == 0


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
            pool.submit_group(worker, store.transport.spec(), None, group)
            for worker, group in enumerate(groups)
        ]
        results = pool.collect(jobs)
        positions = pool.fold_positions()
    assert positions == [len(store), len(store)]
    # One payload per spec of the group, in group order.
    assert [len(results[job][0]) for job in jobs] == [2, 1]
    assert [results[job][1]["task_no"] for job in jobs] == [1, 1]
