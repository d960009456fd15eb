"""Tests for the pluggable execution engines and their pass groups."""

from __future__ import annotations

import pytest

from repro.core.analysis import analyze_stream, analyze_trace
from repro.core.detectors.duplicates import DuplicateTransferPass
from repro.core.engine import (
    ENGINES,
    PassSpec,
    ProcessEngine,
    SerialEngine,
    available_engines,
    gather_groups,
    pass_groups,
    process_engine_fallback_reason,
    resolve_engine,
    run_pass_group,
)
from repro.events.columnar import ColumnarTrace
from repro.events.store import shard_trace
from repro.events.stream import as_event_stream
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
    """The serial engine also scans the in-memory slicer."""
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


@pytest.fixture(scope="module")
def hostile_store(tmp_path_factory):
    from repro.events.hostile import make_hostile_trace

    path = tmp_path_factory.mktemp("hostile-store") / "trace.store"
    return shard_trace(make_hostile_trace(3000, seed=11), path, shard_events=257)


@pytest.mark.parametrize("jobs", [2, 8])
def test_process_engine_renders_like_serial_on_hostile_trace(hostile_store, jobs):
    """Each pass group runs the serial fold on its worker, so the rendered
    report and the potential estimate match the serial engine byte for
    byte — also with more jobs than there are passes."""
    serial = analyze_stream(hostile_store)
    eng = ProcessEngine()
    report = analyze_stream(hostile_store, engine=eng, jobs=jobs)
    assert report.render() == serial.render()
    assert report.potential.as_dict() == serial.potential.as_dict()
    # One task per pass group, one group per worker.
    assert eng.stats["tasks"] == min(jobs, 5)
    assert eng.stats["workers"] == min(jobs, 5)


def test_process_engine_runs_a_one_shard_store_on_the_pool(trace, tmp_path):
    """Passes need no partitioning, so even a single shard goes to the
    pool instead of degrading to a serial run."""
    store = shard_trace(trace, tmp_path / "one.store", shard_events=10**9)
    assert store.num_shards == 1
    eng = ProcessEngine()
    report = analyze_stream(store, engine=eng, jobs=2)
    assert _findings(report) == _findings(analyze_trace(trace))
    assert eng.stats["tasks"] == 2
    assert eng.stats["workers"] == 2


def _all_specs(validate: bool) -> tuple:
    from repro.core.analysis import _pass_specs
    from repro.events.validation import ValidationPass

    specs = _pass_specs(2)
    if validate:
        specs = (*specs, PassSpec(ValidationPass, {"num_devices": 2}))
    return specs


@pytest.mark.parametrize("validate", [False, True])
@pytest.mark.parametrize("jobs", range(1, 9))
def test_pass_groups_cover_every_spec_once_deterministically(validate, jobs):
    specs = _all_specs(validate)
    groups = pass_groups(specs, jobs)
    assert groups == pass_groups(specs, jobs)
    assert len(groups) == min(jobs, len(specs))
    assert all(groups)
    assert sorted(i for group in groups for i in group) == list(range(len(specs)))
    assert all(group == sorted(group) for group in groups)
    # A group holding the guard is handed out first.
    guard_groups = [any(specs[i].cls.guard for i in group) for group in groups]
    assert guard_groups == sorted(guard_groups, reverse=True)


@pytest.mark.parametrize("validate", [False, True])
def test_two_pass_groups_keep_the_large_carries_apart(validate):
    """Round trips and repeated allocations hold the largest carries after
    duplicates; at two workers they must not share one worker's memory."""
    from repro.core.detectors.repeated_allocs import RepeatedAllocationPass
    from repro.core.detectors.roundtrips import RoundTripPass

    specs = _all_specs(validate)
    for group in pass_groups(specs, 2):
        classes = {specs[i].cls for i in group}
        assert not {RoundTripPass, RepeatedAllocationPass} <= classes


def test_pass_groups_balance_by_static_weight():
    class Heavy(DuplicateTransferPass):
        weight = 100

    class Light(DuplicateTransferPass):
        weight = 1

    specs = [PassSpec(Light), PassSpec(Heavy), PassSpec(Light), PassSpec(Light)]
    assert pass_groups(specs, 2) == [[1], [0, 2, 3]]
    assert pass_groups(specs, 3) == [[1], [0, 3], [2]]


def test_pass_groups_edge_cases():
    specs = _all_specs(False)
    assert pass_groups((), 4) == []
    assert pass_groups(specs[:1], 4) == [[0]]
    assert pass_groups(specs, 1) == [list(range(len(specs)))]
    # More jobs than passes: one pass per group, none empty.
    assert sorted(pass_groups(specs, 64)) == [[i] for i in range(len(specs))]


@pytest.mark.parametrize(
    "order",
    [
        [0, 1, 2, 3, 4, 5],
        [5, 4, 3, 2, 1, 0],
        [0, 2, 4, 1, 3, 5],
        [3, 0, 5, 1, 4, 2],
    ],
    ids=["in-order", "reversed", "interleaved", "shuffled"],
)
def test_gather_groups_is_independent_of_landing_order(store, order):
    """Groups land in whatever order their workers finish; the gathered
    table is the serial one for every order."""
    specs = _all_specs(True)
    groups = pass_groups(specs, 6)
    landed = {}
    for position in order:
        landed[position] = run_pass_group(store, [specs[i] for i in groups[position]])
    assert list(landed) == order
    assert gather_groups(specs, groups, landed, store) == SerialEngine().run(specs, store)


def test_serial_engine_is_one_in_process_group(store, monkeypatch):
    """The serial engine runs every spec as ONE pass group on the calling
    thread, whatever ``jobs`` asks for, and drops each pass as soon as it
    is finalized: no finalized pass is reachable when the next one is
    finalized, nor when the finding gather starts."""
    import threading
    import weakref

    from repro.core import engine as engine_mod
    from repro.core.detectors.table import FindingTable

    specs = _all_specs(True)
    expected = SerialEngine().run(specs, store)

    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)

    calls = []
    run_group = engine_mod.run_pass_group

    def recording_group(stream, group_specs, tick=None):
        calls.append(list(group_specs))
        return run_group(stream, group_specs, tick)

    monkeypatch.setattr(engine_mod, "run_pass_group", recording_group)

    detectors = []  # weak references to every detector pass built
    build = PassSpec.build

    def recording_build(spec):
        pass_ = build(spec)
        if not pass_.guard:
            detectors.append(weakref.ref(pass_))
        return pass_

    monkeypatch.setattr(PassSpec, "build", recording_build)

    finalized = []  # weak references, in finalize order
    alive_at_finalize = []  # finalized passes still reachable, per finalize
    for cls in {spec.cls for spec in specs if not spec.cls.guard}:

        def recording_finalize(self, finalize=cls.finalize):
            alive_at_finalize.append(sum(ref() is not None for ref in finalized))
            part = finalize(self)
            finalized.append(weakref.ref(self))
            return part

        monkeypatch.setattr(cls, "finalize", recording_finalize)

    alive_at_gather = []
    gather = FindingTable.gather

    def recording_gather(cls, parts, source):
        alive_at_gather.append(sum(ref() is not None for ref in detectors))
        return gather(parts, source)

    monkeypatch.setattr(FindingTable, "gather", classmethod(recording_gather))

    assert SerialEngine().run(specs, store, jobs=4) == expected
    assert started == []
    assert calls == [list(specs)]
    assert len(detectors) == len(finalized) == len(specs) - 1
    assert alive_at_finalize == [0] * len(finalized)
    assert alive_at_gather == [0]


def test_process_engine_scans_the_store_once_per_group(store):
    """On an .odpf store every scan maps each shard once, so the worker
    map count is exactly one scan per worker, one worker included."""
    for jobs in (1, 2, 3):
        eng = ProcessEngine()
        analyze_stream(store, engine=eng, jobs=jobs, validate=True)
        assert eng.stats["tasks"] == eng.stats["workers"] == jobs
        assert eng.stats["map_count"] == jobs * store.num_shards


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
    assert available_engines() == ["distributed", "process", "serial"]
    assert isinstance(resolve_engine("serial"), SerialEngine)
    assert isinstance(resolve_engine("process"), ProcessEngine)
    assert isinstance(resolve_engine(None), SerialEngine)
    custom = ProcessEngine()
    assert resolve_engine(custom) is custom
    with pytest.raises(ValueError, match="unknown execution engine"):
        resolve_engine("quantum")
    # The partitioned thread engine is gone; asking for it names the rest.
    with pytest.raises(ValueError, match="available: distributed, process, serial"):
        resolve_engine("thread")
    with pytest.raises(TypeError):
        resolve_engine(42)
    with pytest.raises(ValueError, match="unknown execution engine"):
        analyze_stream(as_event_stream(ColumnarTrace(num_devices=1)), engine="nope")


def test_jobs_validated(store):
    for engine in sorted(ENGINES):
        with pytest.raises(ValueError, match="jobs"):
            analyze_stream(store, engine=engine, jobs=0)


def test_pass_spec_builds_fresh_passes():
    spec = PassSpec(DuplicateTransferPass, {"min_bytes": 16})
    built = spec.build()
    assert built.min_bytes == 16
    # Specs are reusable: every build is a fresh single-use pass.
    assert built is not spec.build()


# --------------------------------------------------------------------- #
# EngineConfig (the unified engine spec surface)
# --------------------------------------------------------------------- #
def test_engine_config_parse_round_trip():
    from repro.core.engine import EngineConfig

    config = EngineConfig.parse(
        "distributed:lease_timeout=10,max_attempts=4,run_timeout=300"
    )
    assert config.name == "distributed"
    assert config.options == {
        "lease_timeout": 10.0, "max_attempts": 4, "run_timeout": 300.0,
    }
    assert config.spec() == (
        "distributed:lease_timeout=10.0,max_attempts=4,run_timeout=300.0"
    )
    # A bare name has no options and round-trips to itself.
    assert EngineConfig.parse("serial") == EngineConfig("serial")
    assert EngineConfig.parse("serial").spec() == "serial"


def test_engine_config_process_has_no_options():
    from repro.core.engine import EngineConfig, engine_config_options

    assert engine_config_options("process") == {}
    assert EngineConfig.parse("process") == EngineConfig("process")
    # The warm pool and its keep_pool switch are gone: each run starts
    # and stops its own workers.
    with pytest.raises(ValueError, match="known options: none"):
        EngineConfig.parse("process:keep_pool=on")


def test_engine_config_rejects_unknowns():
    from repro.core.engine import EngineConfig

    with pytest.raises(ValueError, match="unknown execution engine"):
        EngineConfig.parse("quantum:foo=1")
    with pytest.raises(ValueError, match="known options"):
        EngineConfig.parse("distributed:warp_factor=9")
    with pytest.raises(ValueError, match="key=value"):
        EngineConfig.parse("distributed:lease_timeout")


def test_engine_config_build_and_resolve():
    from repro.core.distributed import DistributedEngine
    from repro.core.engine import EngineConfig

    engine = resolve_engine("distributed:lease_timeout=4,run_timeout=0.5")
    assert isinstance(engine, DistributedEngine)
    assert engine.lease_timeout == 4.0
    assert engine.run_timeout == 0.5
    # The speculation floor is derived from the lease, not an option.
    assert engine.min_stall == 1.0
    assert resolve_engine("distributed:lease_timeout=60").min_stall == 2.0
    # EngineConfig instances resolve too (what the CLI passes through).
    config = EngineConfig.parse("distributed:max_attempts=2,worker_mode=thread")
    built = resolve_engine(config)
    assert isinstance(built, DistributedEngine)
    assert built.max_attempts == 2
    assert isinstance(resolve_engine(EngineConfig.parse("process")), ProcessEngine)
    # The process engine shards by pass: there is no partition knob.
    with pytest.raises(ValueError, match="unknown option 'tasks_per_worker'"):
        EngineConfig.parse("process:tasks_per_worker=2")


def test_engine_config_option_tables_cover_constructors():
    """Every spec option must be a real constructor kwarg: building a
    config that sets every option must not raise."""
    import inspect

    from repro.core.engine import ENGINES, engine_config_options

    for name, engine_cls in ENGINES.items():
        params = inspect.signature(engine_cls.__init__).parameters
        for option in engine_config_options(name):
            assert option in params, f"{name}:{option}"
