"""Trace validation folded into the analysis scan, negative cases first.

``OMPDataPerf.analyze_stream`` validates a stream in the same scan as the
five detector passes: :class:`~repro.events.validation.ValidationPass` is a
guard pass that every engine folds ahead of the detectors.  Each case below
breaks one validator rule in a multi-shard store, and every engine must
refuse the store with exactly the message ``validate_stream`` gives, and
return no findings.  Valid stores keep their findings, and the serial
engine reads each shard once for fold and validation together.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import _pass_specs, analyze_stream
from repro.core.detectors._streaming import (
    FOLD_BATCH_EVENTS,
    StreamingPass,
    check_guards,
    fold_batch_target,
    fold_batches,
)
from repro.core.detectors.table import FindingTable
from repro.core.distributed import DistributedEngine, DistributedExecutionError
from repro.core.engine import (
    PassSpec,
    ProcessEngine,
    check_landed_guards,
    pass_groups,
    run_pass_group,
)
from repro.core.profiler import OMPDataPerf
from repro.events.columnar import CODE_ALLOC, ColumnarTrace
from repro.events.store import ShardedTraceStore, TraceWriter
from repro.events.stream import slice_bounds
from repro.events.validation import TraceValidationError, ValidationPass, validate_stream

from tests.conftest import TraceBuilder

#: Events per shard: two blocks of alloc, h2d, kernel, d2h, delete.  A
#: shard ``k`` holds data-op rows ``[8k, 8k + 8)`` and target rows
#: ``[2k, 2k + 2)``.
SHARD_EVENTS = 10
BLOCKS = 12  # six shards


def _base_trace() -> ColumnarTrace:
    b = TraceBuilder()
    for i in range(BLOCKS):
        host, dev = 0x1000 + i * 0x100, 0xA000 + i * 0x100
        b.alloc(host, dev)
        b.h2d(host, dev, content_hash=i % 3)  # repeated payloads: findings
        b.kernel()
        b.d2h(host, dev, content_hash=i % 3)
        b.delete(host, dev)
    return ColumnarTrace.from_trace(b.build())


def _write_store(ct: ColumnarTrace, path, bounds, total_runtime) -> ShardedTraceStore:
    """One shard per bound, written as-is (no resharding, no checks)."""
    writer = TraceWriter(path, shard_events=10**9, num_devices=ct.num_devices)
    for bound in bounds:
        writer.write_batch(ct.slice_rows(*bound))
        writer.flush()
    return writer.close(total_runtime=total_runtime, program_name="fused")


def _store(path, corrupt=None, *, halve_runtime: bool = False) -> ShardedTraceStore:
    ct = _base_trace()
    bounds = slice_bounds(ct, SHARD_EVENTS)  # cut before corrupting seqs
    if corrupt is not None:
        corrupt(ct)
    runtime = ct.end_time / 2.0 if halve_runtime else ct.total_runtime
    return _write_store(ct, path, bounds, runtime)


def _do(shard: int, row: int) -> int:
    return 8 * shard + row


def _out_of_order(ct):
    ct.do_start_time[_do(1, 2)] = ct.do_start_time[_do(1, 1)] - 1e-6


def _unknown_device(ct):
    ct.do_dest_device_num[_do(2, 0)] = 7


def _duplicate_seq(ct):
    ct.do_seq[_do(2, 5)] = ct.do_seq[_do(2, 4)]


def _live_address_reuse(ct):
    ct.do_kind[_do(3, 3)] = CODE_ALLOC  # the delete becomes a second alloc


def _same_device_transfer(ct):
    ct.do_src_device_num[_do(1, 5)] = ct.do_dest_device_num[_do(1, 5)]


def _missing_hash(ct):
    ct.do_has_content_hash[_do(4, 1)] = False


def _boundary_disorder(ct):
    ct.do_start_time[_do(3, 0)] = ct.do_start_time[_do(3, 0) - 1] - 1e-6


def _boundary_seq(ct):
    ct.do_seq[_do(4, 0)] = ct.do_seq[_do(4, 0) - 1]


def _target_boundary_disorder(ct):
    ct.tgt_start_time[4] = ct.tgt_start_time[3] - 1e-6


def _early_hash_late_boundary(ct):
    ct.do_has_content_hash[_do(0, 1)] = False
    ct.do_start_time[_do(5, 0)] = 0.0


#: case -> (corruption, whether total_runtime is halved, text the
#: validator must report)
CASES = {
    "out_of_order": (_out_of_order, False, ["data-op events are not in chronological order at"]),
    "unknown_device": (_unknown_device, False, ["references unknown destination device 7"]),
    "duplicate_seq": (_duplicate_seq, False, ["duplicate data-op event sequence number"]),
    "live_address_reuse": (_live_address_reuse, False, ["reuses a live device address"]),
    "same_device_transfer": (
        _same_device_transfer, False, ["has identical source and destination device"],
    ),
    "missing_hash": (_missing_hash, False, ["is missing its content hash"]),
    "total_runtime": (None, True, ["total_runtime is earlier than the last recorded event"]),
    "boundary_disorder": (
        _boundary_disorder, False,
        ["shard 3: data-op events are not in chronological order across the shard boundary"],
    ),
    "boundary_seq": (
        _boundary_seq, False,
        ["shard 4: data-op sequence numbers do not ascend across the shard boundary"],
    ),
    "target_boundary_disorder": (
        _target_boundary_disorder, False,
        ["shard 2: target events are not in chronological order across the shard boundary"],
    ),
    "early_hash_late_boundary": (
        _early_hash_late_boundary, False,
        [
            "shard 0: transfer seq=1 is missing its content hash",
            "shard 5: data-op events are not in chronological order across the shard boundary",
        ],
    ),
}


@pytest.fixture(params=sorted(CASES))
def invalid(request, tmp_path):
    corrupt, halve_runtime, expected = CASES[request.param]
    store = _store(tmp_path / "bad.store", corrupt, halve_runtime=halve_runtime)
    assert store.num_shards == 6
    problems = validate_stream(store, strict=False)
    for text in expected:
        assert any(text in problem for problem in problems), (text, problems)
    return store, "; ".join(problems)


#: name -> (engine factory, jobs)
ENGINE_LEGS = {
    "serial": (lambda: "serial", 1),
    # jobs > 1 on the serial engine is validated and otherwise ignored: the
    # same single in-process group must raise the same message
    "serial-prefetch": (lambda: "serial", 2),
    "process": (lambda: "process", 2),
    "distributed": (lambda: DistributedEngine(worker_mode="thread", poll_interval=0.05), 2),
}


@pytest.mark.parametrize("leg", sorted(ENGINE_LEGS))
def test_invalid_store_raises_validate_stream_message(invalid, leg):
    store, message = invalid
    make_engine, jobs = ENGINE_LEGS[leg]
    with pytest.raises(TraceValidationError) as info:
        OMPDataPerf().analyze_stream(store, engine=make_engine(), jobs=jobs)
    assert str(info.value) == message


def test_loopback_process_workers_raise_both_errors(tmp_path):
    """The distributed engine's default loopback worker processes ship the
    folded validation pass in their result pickles; an early shard's missing
    hash and a later boundary error both reach the message."""
    store = _store(tmp_path / "bad.store", _early_hash_late_boundary)
    message = "; ".join(validate_stream(store, strict=False))
    with pytest.raises(TraceValidationError) as info:
        OMPDataPerf().analyze_stream(store, engine=DistributedEngine(poll_interval=0.05), jobs=2)
    assert str(info.value) == message


def test_process_engine_prefers_validation_error_to_detector_error(tmp_path):
    """A detector task folding the whole invalid store fails on its own
    (the hashless transfer); the parent still raises the validation error."""
    store = _store(tmp_path / "bad.store", _missing_hash)
    with pytest.raises(RuntimeError, match="missing its content hash"):
        analyze_stream(store, engine="process", jobs=2)  # no validation
    with pytest.raises(TraceValidationError) as info:
        OMPDataPerf().analyze_stream(store, engine="process", jobs=2)
    assert str(info.value) == "; ".join(validate_stream(store, strict=False))


def test_distributed_engine_prefers_validation_error_to_detector_error(
    tmp_path, monkeypatch
):
    """The distributed twin: the detector group fails on the hashless
    transfer and runs out of attempts while the guard's group is still
    folding; the coordinator holds that failure back and raises the
    validation error once the guard lands."""
    store = _store(tmp_path / "bad.store", _missing_hash)

    def engine():
        return DistributedEngine(worker_mode="thread", poll_interval=0.02, max_attempts=2)

    with pytest.raises(DistributedExecutionError, match="missing its content hash"):
        analyze_stream(store, engine=engine(), jobs=2)  # no validation

    fold = ValidationPass.fold

    def slow_fold(self, batch, offset):
        time.sleep(0.2)  # the guard's group lands well after the failure
        fold(self, batch, offset)

    monkeypatch.setattr(ValidationPass, "fold", slow_fold)
    eng = engine()
    with pytest.raises(TraceValidationError) as info:
        OMPDataPerf().analyze_stream(store, engine=eng, jobs=2)
    assert str(info.value) == "; ".join(validate_stream(store, strict=False))
    assert eng.stats["tasks"] == 2
    assert eng.stats["requeued"] >= 1  # the detector group did fail first


@pytest.mark.parametrize("case", sorted(CASES))
def test_guard_group_raises_as_soon_as_it_lands(case, tmp_path):
    """Whichever pass group holds the validation guard, its folded guard
    carries exactly ``validate_stream``'s errors, and the landed guard
    raises before any other group has landed; the detectors beside it in
    its group are never finalized."""
    corrupt, halve_runtime, _ = CASES[case]
    store = _store(tmp_path / "bad.store", corrupt, halve_runtime=halve_runtime)
    expected = validate_stream(store, strict=False)
    check = {"num_devices": store.num_devices, "total_runtime": store.total_runtime}
    specs = (*_pass_specs(max(store.num_devices, 1)), PassSpec(ValidationPass, check))
    for jobs in range(1, len(specs) + 1):
        groups = pass_groups(specs, jobs)
        guard_group = [specs[i] for i in groups[0]]
        payloads = run_pass_group(store, guard_group)
        (guard,) = [p for p in payloads if isinstance(p, ValidationPass)]
        assert guard.errors() == expected, jobs
        assert [p for p in payloads if p is not guard] == [None] * (len(payloads) - 1)
        with pytest.raises(TraceValidationError) as info:
            check_landed_guards(specs, groups, {0: payloads})
        assert str(info.value) == "; ".join(expected)
        # Groups without the guard settle nothing on their own.
        check_landed_guards(specs, groups, {})


class _Recorder(StreamingPass):
    """A detector stand-in that records which batches it folded."""

    def __init__(self):
        self.offsets: list[int] = []
        self.ends: list[int] = []

    def fold(self, batch, offset):
        self.offsets.append(offset)
        self.ends.append(offset + batch.num_data_op_events)

    def finalize(self):
        raise AssertionError("a detector finalized over an invalid stream")


def test_detectors_stop_folding_once_validation_failed(tmp_path):
    store = _store(tmp_path / "bad.store", _duplicate_seq)  # fails in shard 2
    guard, recorder = ValidationPass(store.num_devices, store.total_runtime), _Recorder()
    with fold_batch_target(1):  # every shard its own detector batch
        fold_batches([recorder, guard], store.batches())
    assert recorder.offsets == [0, 8]  # shards 0 and 1, not 2 onwards
    assert guard.num_batches == store.num_shards
    with pytest.raises(TraceValidationError):
        check_guards([recorder, guard])


@pytest.mark.parametrize("target", [2 * SHARD_EVENTS, FOLD_BATCH_EVENTS])
def test_coalesced_detectors_fold_no_row_past_the_failed_shard(tmp_path, target):
    """Coalesced, the detectors fold at most the groups completed before
    the failing shard: the group holding it is dropped, nothing follows."""
    store = _store(tmp_path / "bad.store", _duplicate_seq)  # fails in shard 2
    guard, recorder = ValidationPass(store.num_devices, store.total_runtime), _Recorder()
    with fold_batch_target(target):
        fold_batches([recorder, guard], store.batches())
    assert all(end <= _do(2, 0) for end in recorder.ends)
    assert recorder.offsets == ([0] if target == 2 * SHARD_EVENTS else [])
    assert guard.num_batches == store.num_shards
    with pytest.raises(TraceValidationError):
        check_guards([recorder, guard])


def test_valid_store_findings_match_unvalidated_run(tmp_path):
    store = _store(tmp_path / "ok.store")
    assert validate_stream(store) == []
    expected = analyze_stream(store).render()
    for leg in sorted(ENGINE_LEGS):
        make_engine, jobs = ENGINE_LEGS[leg]
        report = OMPDataPerf().analyze_stream(store, engine=make_engine(), jobs=jobs)
        assert report.render() == expected, leg


def test_process_engine_folds_validation_into_a_pass_group(tmp_path):
    """Validation joins one worker's pass group instead of costing a scan
    of its own: one task, and one scan, per worker either way."""
    store = _store(tmp_path / "ok.store")
    engine = ProcessEngine()
    for jobs in (2, 6):
        report = OMPDataPerf().analyze_stream(store, engine=engine, jobs=jobs)
        assert report.engine_stats["tasks"] == jobs
        assert report.engine_stats["map_count"] == jobs * store.num_shards
    stats = analyze_stream(store, engine=engine, jobs=2).engine_stats
    assert stats["tasks"] == 2
    assert stats["map_count"] == 2 * store.num_shards


def _count_loads(monkeypatch):
    """Count every shard load, and the loads made before the finding gather."""
    counts = {"loads": 0, "before_gather": None}
    load_batch = ShardedTraceStore.load_batch
    gather = FindingTable.gather.__func__

    def counting_load(self, index):
        counts["loads"] += 1
        return load_batch(self, index)

    def marking_gather(cls, parts, source):
        counts["before_gather"] = counts["loads"]
        return gather(cls, parts, source)

    monkeypatch.setattr(ShardedTraceStore, "load_batch", counting_load)
    monkeypatch.setattr(FindingTable, "gather", classmethod(marking_gather))
    return counts


@pytest.mark.parametrize("validate", [True, False])
def test_serial_analysis_scans_the_store_once(tmp_path, monkeypatch, validate):
    store = _store(tmp_path / "ok.store")
    counts = _count_loads(monkeypatch)
    report = OMPDataPerf(validate=validate).analyze_stream(store)
    assert report.counts.total > 0
    gathered = counts["loads"] - counts["before_gather"]
    assert counts["before_gather"] == store.num_shards  # one scan, not two
    assert 0 < gathered <= store.num_shards


# --------------------------------------------------------------------- #
# The guard's group sweep is exact
# --------------------------------------------------------------------- #
#: rule -> (corrupt shard k of the base trace, lowest k it applies to).
#: The same rule-breakers as ``CASES``, movable to any shard.
BREAKERS = {
    "out_of_order": (
        lambda ct, k: ct.do_start_time.__setitem__(
            _do(k, 2), ct.do_start_time[_do(k, 1)] - 1e-6
        ), 0,
    ),
    "unknown_device": (lambda ct, k: ct.do_dest_device_num.__setitem__(_do(k, 0), 7), 0),
    "duplicate_seq": (
        lambda ct, k: ct.do_seq.__setitem__(_do(k, 5), ct.do_seq[_do(k, 4)]), 0,
    ),
    "live_address_reuse": (lambda ct, k: ct.do_kind.__setitem__(_do(k, 3), CODE_ALLOC), 0),
    "same_device_transfer": (
        lambda ct, k: ct.do_src_device_num.__setitem__(
            _do(k, 5), ct.do_dest_device_num[_do(k, 5)]
        ), 0,
    ),
    "missing_hash": (lambda ct, k: ct.do_has_content_hash.__setitem__(_do(k, 1), False), 0),
    "boundary_disorder": (
        lambda ct, k: ct.do_start_time.__setitem__(
            _do(k, 0), ct.do_start_time[_do(k, 0) - 1] - 1e-6
        ), 1,
    ),
    "boundary_seq": (
        lambda ct, k: ct.do_seq.__setitem__(_do(k, 0), ct.do_seq[_do(k, 0) - 1]), 1,
    ),
    "target_boundary_disorder": (
        lambda ct, k: ct.tgt_start_time.__setitem__(2 * k, ct.tgt_start_time[2 * k - 1] - 1e-6),
        1,
    ),
    # a seq below the previous shard's last, held by no other data op
    "boundary_seq_descends": (
        lambda ct, k: ct.do_seq.__setitem__(_do(k, 0), ct.tgt_seq[2 * k - 1]), 1,
    ),
}

#: detector coalescing targets: every shard alone, two shards, everything
SWEEP_TARGETS = {"one": 1, "two-shards": 2 * SHARD_EVENTS, "default": FOLD_BATCH_EVENTS}


def _shards(corrupt=None, k: int = 0, runtime_shard: Optional[int] = None):
    """The six shards of the base trace, in memory, with shard ``k``
    broken by ``corrupt`` and shard ``runtime_shard`` claiming a
    ``total_runtime`` before its own last event."""
    ct = _base_trace()
    bounds = slice_bounds(ct, SHARD_EVENTS)
    if corrupt is not None:
        corrupt(ct, k)
    shards = [ct.slice_rows(*bound) for bound in bounds]
    if runtime_shard is not None:
        shards[runtime_shard].total_runtime = shards[runtime_shard].end_time / 2
    return shards


class _Stream:
    def __init__(self, shards):
        self.shards = shards
        self.num_devices = shards[0].num_devices
        self.total_runtime = None

    def batches(self):
        return iter(self.shards)


def _guard_errors(shards, target: int) -> ValidationPass:
    guard = ValidationPass(shards[0].num_devices, None)
    with fold_batch_target(target):
        fold_batches([guard], shards)
    assert guard.num_batches == len(shards)
    return guard.errors()


@settings(max_examples=60, deadline=None)
@given(
    rule=st.sampled_from(sorted(BREAKERS)),
    shard=st.integers(min_value=0, max_value=5),
    target=st.sampled_from(sorted(SWEEP_TARGETS)),
)
def test_group_sweep_reports_exactly_what_validate_stream_does(rule, shard, target):
    corrupt, lowest = BREAKERS[rule]
    shards = _shards(corrupt, max(shard, lowest))
    expected = validate_stream(_Stream(shards), strict=False)
    assert expected, rule
    assert _guard_errors(shards, SWEEP_TARGETS[target]) == expected


@pytest.mark.parametrize("target", sorted(SWEEP_TARGETS))
@pytest.mark.parametrize("shard", range(6))
def test_group_sweep_checks_each_shards_own_total_runtime(shard, target):
    """A shard's ``total_runtime`` is checked against its own events; the
    group's concatenation carries none, so the sweep checks each shard."""
    shards = _shards(runtime_shard=shard)
    expected = validate_stream(_Stream(shards), strict=False)
    assert expected == [
        f"shard {shard}: total_runtime is earlier than the last recorded event "
        f"({shards[shard].total_runtime} < {shards[shard].end_time})"
    ]
    assert _guard_errors(shards, SWEEP_TARGETS[target]) == expected


@pytest.mark.parametrize("target, groups", [("one", 6), ("two-shards", 3), ("default", 1)])
def test_clean_group_costs_one_columnar_sweep(monkeypatch, target, groups):
    import repro.events.validation as validation

    calls = []
    sweep = validation._validate_columnar

    def counting(trace, **kwargs):
        calls.append(len(trace))
        return sweep(trace, **kwargs)

    monkeypatch.setattr(validation, "_validate_columnar", counting)
    shards = _shards()
    guard = ValidationPass(shards[0].num_devices, None)
    with fold_batch_target(SWEEP_TARGETS[target]):
        fold_batches([guard], shards)
    assert guard.errors() == []
    assert len(calls) == groups
    assert sum(calls) == sum(len(shard) for shard in shards)
    # The carry equals a per-shard fold's.
    reference = ValidationPass(shards[0].num_devices, None)
    for shard in shards:
        reference.fold(shard, 0)
    assert vars(guard) == vars(reference)


@pytest.mark.parametrize("target", sorted(SWEEP_TARGETS))
def test_group_sweep_end_time_matches_per_shard_with_a_nan(target):
    """A NaN end hides its shard's other data-op ends from that shard's
    ``end_time``, not the whole group's: the ``total_runtime`` message
    names the same last event either way."""
    shards = _shards()
    shards[0].do_end_time[3] = np.nan
    stream = _Stream(shards)
    stream.total_runtime = 1e-9
    expected = validate_stream(stream, strict=False)
    assert expected[-1].endswith(f"({1e-9} < {shards[-1].do_end_time.max()})")
    guard = ValidationPass(stream.num_devices, stream.total_runtime)
    with fold_batch_target(SWEEP_TARGETS[target]):
        fold_batches([guard], shards)
    assert guard.errors() == expected
