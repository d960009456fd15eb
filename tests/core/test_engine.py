"""Tests for the pluggable execution engines and stream partitioning."""

from __future__ import annotations

import pytest

from repro.core.analysis import analyze_stream, analyze_trace
from repro.core.detectors.duplicates import DuplicateTransferPass
from repro.core.detectors.unused_allocs import UnusedAllocationPass
from repro.core.engine import (
    ENGINES,
    PassSpec,
    ProcessEngine,
    SerialEngine,
    ThreadEngine,
    available_engines,
    process_engine_fallback_reason,
    resolve_engine,
)
from repro.events.columnar import ColumnarTrace
from repro.events.store import shard_trace
from repro.events.stream import (
    SlicedTraceStream,
    as_event_stream,
    partition_ranges,
    partition_stream,
)
from repro.events.synth import make_synthetic_columnar_trace
from repro.events.transport import FakeObjectStoreTransport


@pytest.fixture(scope="module")
def trace():
    return make_synthetic_columnar_trace(4_000)


@pytest.fixture(scope="module")
def store(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("engine-store") / "trace.store"
    return shard_trace(trace, path, shard_events=512)


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


# --------------------------------------------------------------------- #
# partition_ranges / partition_stream
# --------------------------------------------------------------------- #
def test_partition_ranges_balances_events():
    assert partition_ranges([10, 10, 10, 10], 2) == [(0, 2), (2, 4)]
    assert partition_ranges([10, 10, 10, 10], 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    # A dominant batch takes a partition of its own.
    assert partition_ranges([100, 1, 1, 1], 2) == [(0, 1), (1, 4)]


def test_partition_ranges_edge_cases():
    assert partition_ranges([], 3) == []
    assert partition_ranges([5], 4) == [(0, 1)]
    assert partition_ranges([5, 5], 1) == [(0, 2)]
    # More workers than batches: one batch per partition, none empty.
    assert partition_ranges([3, 3], 8) == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        partition_ranges([1, 2], 0)


def test_partition_ranges_cover_everything():
    counts = [7, 1, 1, 9, 2, 40, 3, 3, 5, 1]
    for n in range(1, 14):
        ranges = partition_ranges(counts, n)
        assert ranges[0][0] == 0 and ranges[-1][1] == len(counts)
        for (_, a_hi), (b_lo, _) in zip(ranges[:-1], ranges[1:]):
            assert a_hi == b_lo
        assert all(hi > lo for lo, hi in ranges)
        assert len(ranges) <= min(n, len(counts))


def test_partition_stream_offsets_and_events(store):
    parts = store.partitions(3)
    assert len(parts) == 3
    counts = store.batch_row_counts()
    offset = 0
    lo = 0
    for part in parts:
        assert part.lo == lo
        assert part.data_op_offset == offset
        batch_events = [
            batch.num_data_op_events + batch.num_target_events
            for batch in part.batches()
        ]
        assert sum(batch_events) == part.num_events
        offset += sum(do for do, _ in counts[part.lo : part.hi])
        lo = part.hi
    assert lo == store.num_shards
    assert sum(p.num_events for p in parts) == len(store)


def test_partition_stream_degrades_gracefully(trace, store):
    # n=1 and single-batch streams come back unsplit.
    assert partition_stream(store, 1) == [store]
    single = SlicedTraceStream(trace, shard_events=10**9)
    assert partition_stream(single, 4) == [single]
    # Streams without random access pass through too.
    class Opaque:
        num_devices = 1
        program_name = None
        total_runtime = None

        def batches(self):
            return iter(())

    opaque = Opaque()
    assert partition_stream(opaque, 4) == [opaque]


# --------------------------------------------------------------------- #
# Engines
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_engines_match_the_columnar_oracle(trace, store, engine, jobs):
    expected = _findings(analyze_trace(trace))
    report = analyze_stream(store, engine=engine, jobs=jobs)
    assert _findings(report) == expected


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engines_on_in_memory_slices(trace, engine):
    """Thread/serial engines also partition the in-memory slicer."""
    stream = as_event_stream(trace, 512)
    if engine in ("process", "distributed"):
        # Both ship transport specs to their workers, so both demand a
        # real on-disk (or object-store) sharded store.
        with pytest.raises(TypeError, match="ShardedTraceStore"):
            analyze_stream(stream, engine=engine, jobs=2)
        return
    expected = _findings(analyze_trace(trace))
    assert _findings(analyze_stream(stream, engine=engine, jobs=3)) == expected


def test_more_jobs_than_shards(store):
    expected = _findings(analyze_stream(store))
    report = analyze_stream(store, engine="process", jobs=64)
    assert _findings(report) == expected


@pytest.mark.parametrize("destination", ["zip", "fake"])
def test_process_engine_over_non_local_transports(trace, tmp_path, destination):
    """Process workers reopen the store from its transport spec, so the
    shards may live in a zip archive or an object store, not only a
    directory — findings stay identical, and the finalize-side
    materialisation scans run on the worker pool either way."""
    target = tmp_path / "t.zip" if destination == "zip" else FakeObjectStoreTransport()
    store = shard_trace(trace, target, shard_events=512)
    expected = _findings(analyze_trace(trace))
    report = analyze_stream(store, engine="process", jobs=2)
    assert _findings(report) == expected


def test_thread_engine_over_object_store_transport(trace):
    remote = FakeObjectStoreTransport()
    store = shard_trace(trace, remote, shard_events=512)
    expected = _findings(analyze_trace(trace))
    assert _findings(analyze_stream(store, engine="thread", jobs=3)) == expected


# --------------------------------------------------------------------- #
# Graceful degradation of --engine process
# --------------------------------------------------------------------- #
def test_process_fallback_reason_on_single_core(monkeypatch):
    monkeypatch.setattr("repro.core.engine._usable_cores", lambda: 1)
    reason = process_engine_fallback_reason()
    assert reason is not None and "core" in reason
    monkeypatch.setattr("repro.core.engine._usable_cores", lambda: 8)
    assert process_engine_fallback_reason() is None
    assert process_engine_fallback_reason(jobs=1) is not None


def test_process_fallback_reason_without_start_methods(monkeypatch):
    monkeypatch.setattr("repro.core.engine._usable_cores", lambda: 8)
    monkeypatch.setattr(
        "repro.core.engine.multiprocessing.get_all_start_methods", lambda: []
    )
    reason = process_engine_fallback_reason()
    assert reason is not None and "start method" in reason


def test_resolve_engine_degrades_to_serial_with_warning(monkeypatch):
    monkeypatch.setattr("repro.core.engine._usable_cores", lambda: 1)
    with pytest.warns(RuntimeWarning, match="falling back to the serial engine"):
        engine = resolve_engine("process", jobs=4, degrade=True)
    assert isinstance(engine, SerialEngine)
    # Without degrade the caller gets exactly what it asked for (the
    # differential suites rely on testing the real process engine).
    assert isinstance(resolve_engine("process"), ProcessEngine)
    # A capable machine resolves process requests normally.
    monkeypatch.setattr("repro.core.engine._usable_cores", lambda: 8)
    assert isinstance(
        resolve_engine("process", jobs=4, degrade=True), ProcessEngine
    )


def test_engine_resolution():
    assert available_engines() == ["distributed", "process", "serial", "thread"]
    assert isinstance(resolve_engine("serial"), SerialEngine)
    assert isinstance(resolve_engine("thread"), ThreadEngine)
    assert isinstance(resolve_engine("process"), ProcessEngine)
    assert isinstance(resolve_engine(None), SerialEngine)
    custom = ThreadEngine()
    assert resolve_engine(custom) is custom
    with pytest.raises(ValueError, match="unknown execution engine"):
        resolve_engine("quantum")
    with pytest.raises(TypeError):
        resolve_engine(42)
    with pytest.raises(ValueError, match="unknown execution engine"):
        analyze_stream(as_event_stream(ColumnarTrace(num_devices=1)), engine="nope")


def test_jobs_validated(store):
    for engine in sorted(ENGINES):
        with pytest.raises(ValueError, match="jobs"):
            analyze_stream(store, engine=engine, jobs=0)


def test_pass_spec_builds_with_eager_flag():
    spec = PassSpec(DuplicateTransferPass, {"min_bytes": 16})
    eager = spec.build()
    deferred = spec.build(eager=False)
    assert eager.eager is True
    assert deferred.eager is False
    assert eager.min_bytes == deferred.min_bytes == 16
    # Specs are reusable: every build is a fresh single-use pass.
    assert eager is not spec.build()

    alloc_spec = PassSpec(UnusedAllocationPass, {"num_devices": 2})
    assert alloc_spec.build(eager=False).num_devices == 2


# --------------------------------------------------------------------- #
# EngineConfig (the unified engine spec surface)
# --------------------------------------------------------------------- #
def test_engine_config_parse_round_trip():
    from repro.core.engine import EngineConfig

    config = EngineConfig.parse(
        "distributed:claim_batch=4,lease_timeout=10,speculate=on"
    )
    assert config.name == "distributed"
    assert config.options == {
        "claim_batch": 4, "lease_timeout": 10.0, "speculate": True,
    }
    assert config.spec() == "distributed:claim_batch=4,lease_timeout=10.0,speculate=True"
    # A bare name has no options and round-trips to itself.
    assert EngineConfig.parse("serial") == EngineConfig("serial")
    assert EngineConfig.parse("serial").spec() == "serial"


def test_engine_config_bool_words():
    from repro.core.engine import EngineConfig

    for word, value in [
        ("on", True), ("off", False), ("true", True), ("false", False),
        ("yes", True), ("no", False), ("1", True), ("0", False),
    ]:
        config = EngineConfig.parse(f"distributed:speculate={word}")
        assert config.options["speculate"] is value, word
    with pytest.raises(ValueError, match="bad value"):
        EngineConfig.parse("distributed:speculate=maybe")


def test_engine_config_rejects_unknowns():
    from repro.core.engine import EngineConfig

    with pytest.raises(ValueError, match="unknown execution engine"):
        EngineConfig.parse("quantum:foo=1")
    with pytest.raises(ValueError, match="known options"):
        EngineConfig.parse("distributed:warp_factor=9")
    with pytest.raises(ValueError, match="key=value"):
        EngineConfig.parse("distributed:claim_batch")


def test_engine_config_build_and_resolve():
    from repro.core.distributed import DistributedEngine
    from repro.core.engine import EngineConfig

    engine = resolve_engine("distributed:claim_batch=3,speculate=off,min_stall=0.5")
    assert isinstance(engine, DistributedEngine)
    assert engine.claim_batch == 3
    assert engine.speculate is False
    assert engine.min_stall == 0.5
    # EngineConfig instances resolve too (what the CLI passes through).
    config = EngineConfig.parse("process:keep_pool=on,tasks_per_worker=2")
    built = resolve_engine(config)
    assert isinstance(built, ProcessEngine)
    assert built.keep_pool is True and built.tasks_per_worker == 2


def test_engine_config_option_tables_cover_constructors():
    """Every spec option must be a real constructor kwarg: building a
    config that sets every option must not raise."""
    import inspect

    from repro.core.engine import ENGINES, engine_config_options

    for name, engine_cls in ENGINES.items():
        params = inspect.signature(engine_cls.__init__).parameters
        for option in engine_config_options(name):
            assert option in params, f"{name}:{option}"
