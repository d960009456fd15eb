"""Tests for the sharded trace store, the writer and the stream utilities."""

from __future__ import annotations

import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.events.columnar import _DATA_OP_COLUMNS, ColumnarTrace
from repro.events.records import DataOpKind, TargetKind
from repro.events.store import (
    MANIFEST_NAME,
    RetentionPolicy,
    ShardedTraceStore,
    TraceWriter,
    merge_shards,
    shard_trace,
)
from repro.events.stream import (
    SlicedTraceStream,
    StreamStats,
    as_event_stream,
    gather_data_op_rows,
    materialize_data_op_events,
    merge_stream,
    trace_like_view,
)
from repro.events.backends import load_trace
from repro.events.validation import TraceValidationError, validate_stream

from tests.conftest import TraceBuilder


def _sample_trace(cycles: int = 9, num_devices: int = 2) -> ColumnarTrace:
    b = TraceBuilder(num_devices=num_devices)
    for i in range(cycles):
        dev = i % num_devices
        host, daddr = 0x100 + i * 0x10, 0xA000 + i * 0x100
        b.alloc(host, daddr, device=dev)
        b.h2d(host, daddr, content_hash=1 + (i % 3), device=dev)
        b.kernel(device=dev, name=f"k{i}")
        b.d2h(host, daddr, content_hash=100 + i, device=dev)
        b.delete(host, daddr, device=dev)
    return ColumnarTrace.from_trace(b.build())


def _dicts_equal(a: ColumnarTrace, b: ColumnarTrace) -> bool:
    return a.to_trace().to_dict() == b.to_trace().to_dict()


def test_gather_loads_only_the_shards_holding_requested_rows(tmp_path, monkeypatch):
    """The finding gather reads the manifest's per-shard row counts, so a
    store loads exactly the shards that hold a requested row."""
    ct = _sample_trace(cycles=24)
    store = shard_trace(ct, tmp_path / "t.store", shard_events=8)
    last_shard = max(i for i, s in enumerate(store.shards) if s.num_data_op_events)
    loads: list[int] = []
    load_batch = ShardedTraceStore.load_batch

    def counting(self, index):
        loads.append(index)
        return load_batch(self, index)

    monkeypatch.setattr(ShardedTraceStore, "load_batch", counting)
    last_row = store.num_data_op_events - 1
    rows = gather_data_op_rows(store, np.array([0, last_row]))
    assert loads == [0, last_shard]
    assert rows.do_seq.tolist() == [int(ct.do_seq[0]), int(ct.do_seq[last_row])]


def _debug_trace(with_variables: bool, blocks: int = 40) -> ColumnarTrace:
    """Transfers and kernels; with debug variables on two rows in three."""
    ct = ColumnarTrace(num_devices=1, program_name="gather")
    for i in range(blocks):
        t = float(i)
        variable = f"v{i}" if with_variables and i % 3 else None
        ct.append_data_op(
            2 * i, DataOpKind.TRANSFER_TO_DEVICE, 1, 0, 0x100 + i, 0xA00 + i, 64 + i,
            t, t + 0.1, content_hash=i % 7, codeptr=i if i % 4 else None, variable=variable,
        )
        ct.append_target(2 * i + 1, TargetKind.TARGET, 0, t + 0.2, t + 0.3)
    return ct


class _BatchesOnly:
    """A stream that can only be scanned (no per-batch row counts)."""

    def __init__(self, stream):
        self._stream = stream

    def batches(self):
        return self._stream.batches()


@pytest.fixture(scope="module")
def gather_stores(tmp_path_factory):
    base = tmp_path_factory.mktemp("gather")
    return {
        debug: shard_trace(_debug_trace(debug), base / f"debug-{debug}.store", shard_events=7)
        for debug in (True, False)
    }


@settings(max_examples=40, deadline=None)
@given(
    debug=st.booleans(),
    source=st.sampled_from(["store", "sliced", "batches-only"]),
    data=st.data(),
)
def test_gather_equals_merged_select_rows(gather_stores, debug, source, data):
    store = gather_stores[debug]
    n = store.num_data_op_events
    gpos = np.array(
        sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n))), dtype=np.int64
    )
    want = merge_stream(store).select_rows(gpos, [])
    stream = {
        "store": store,
        "sliced": as_event_stream(merge_stream(store), 5),
        "batches-only": _BatchesOnly(store),
    }[source]
    got = gather_data_op_rows(stream, gpos)
    if not debug:
        assert got._variables is None  # no list of Nones was built
    assert got.num_data_op_events == gpos.size
    assert got.num_target_events == 0
    for name, _ in _DATA_OP_COLUMNS:
        assert got.do_column(name).dtype == want.do_column(name).dtype, name
        assert np.array_equal(got.do_column(name), want.do_column(name)), name
    assert got._do_variables == want._do_variables
    assert got.data_op_events == want.data_op_events


def _payload_refs(batch: ColumnarTrace) -> list[weakref.ref]:
    """Weak references to a loaded batch, its shared payload (when it is
    a view of one) and every data-op column it holds."""
    keepalive = getattr(batch, "_shared_keepalive", ())
    refs = [weakref.ref(batch)]
    refs += [weakref.ref(part) for part in keepalive if not isinstance(part, bytes)]
    refs += [weakref.ref(batch._data_ops._arrays[name]) for name, _ in _DATA_OP_COLUMNS]
    return refs


@pytest.mark.parametrize("layout", ["odpf-mapped", "odpf-bytes"])
def test_gather_holds_one_loaded_shard_at_a_time(tmp_path, monkeypatch, layout):
    """Nothing of a gathered shard (its columns, the payload they view)
    is alive when the next shard loads, nor after the gather."""
    store = shard_trace(_debug_trace(True), tmp_path / "t.store", shard_events=7)
    if layout == "odpf-bytes":
        # A transport that cannot map: the payload is the blob's bytes.
        monkeypatch.setattr(type(store.transport), "map_blob", None, raising=False)
    refs: list[weakref.ref] = []
    alive_at_load: list[int] = []
    load_batch = ShardedTraceStore.load_batch

    def probing(self, index):
        alive_at_load.append(sum(ref() is not None for ref in refs))
        batch = load_batch(self, index)
        refs.extend(_payload_refs(batch))
        return batch

    monkeypatch.setattr(ShardedTraceStore, "load_batch", probing)
    rows = gather_data_op_rows(store, np.arange(store.num_data_op_events))
    loaded = sum(shard.num_data_op_events > 0 for shard in store.shards)
    assert len(alive_at_load) == loaded > 5
    # the batch, its mapping and payload view (as far as they take weak
    # references), and its columns
    probed = {"odpf-mapped": 3, "odpf-bytes": 2}[layout] + len(_DATA_OP_COLUMNS)
    assert len(refs) == loaded * probed
    assert alive_at_load == [0] * loaded
    assert all(ref() is None for ref in refs)
    assert rows.num_data_op_events == store.num_data_op_events


def test_gather_rejects_rows_past_the_stream(gather_stores):
    store = gather_stores[False]
    n = store.num_data_op_events
    for stream in (store, _BatchesOnly(store)):
        with pytest.raises(IndexError, match="stream ended"):
            gather_data_op_rows(stream, np.array([0, n]))
    with pytest.raises(ValueError, match="ascending"):
        gather_data_op_rows(store, np.array([3, 3]))


# --------------------------------------------------------------------- #
# Compaction
# --------------------------------------------------------------------- #
def test_compact_coalesces_and_rewrites_manifest(tmp_path):
    ct = _sample_trace(cycles=20)
    store = shard_trace(ct, tmp_path / "t.store", shard_events=3)
    fine_shards = store.num_shards
    summary = store.summary()

    compacted = store.compact(shard_events=25)
    assert compacted.path == store.path
    assert compacted.num_shards < fine_shards
    assert compacted.summary() == summary
    assert _dicts_equal(merge_shards(compacted), ct)

    # The directory holds exactly the new shards plus the manifest —
    # stale fine shards and the scratch directory are gone.
    on_disk = sorted(p.name for p in (tmp_path / "t.store").iterdir())
    assert on_disk == sorted(
        [MANIFEST_NAME] + [s.file for s in compacted.shards]
    )

    # Re-opening from disk sees the rewritten manifest.
    reopened = ShardedTraceStore.open(tmp_path / "t.store")
    assert reopened.num_shards == compacted.num_shards
    assert reopened.summary() == summary


def test_compact_can_split_oversized_shards(tmp_path):
    ct = _sample_trace(cycles=20)
    store = shard_trace(ct, tmp_path / "t.store", shard_events=10**6)
    assert store.num_shards == 1
    split = store.compact(shard_events=16)
    assert split.num_shards > 1
    assert _dicts_equal(merge_shards(split), ct)


def test_compact_drops_empty_shards(tmp_path):
    ct = _sample_trace(cycles=6)
    store = shard_trace(ct, tmp_path / "t.store", shard_events=5)
    # Forge an empty shard in the middle of the manifest, as a damaged or
    # hand-built store might contain.
    empty = ColumnarTrace(num_devices=store.num_devices)
    empty.save_flat(tmp_path / "t.store" / "shard-empty.odpf")
    manifest_path = tmp_path / "t.store" / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["shards"].insert(1, {
        "file": "shard-empty.odpf",
        "num_data_op_events": 0,
        "num_target_events": 0,
        "end_time": 0.0,
        "format": "odpf",
    })
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    store = ShardedTraceStore.open(tmp_path / "t.store")
    with_empty = store.num_shards
    compacted = store.compact(shard_events=5)
    assert compacted.num_shards < with_empty
    assert all(s.num_events > 0 for s in compacted.shards)
    assert _dicts_equal(merge_shards(compacted), ct)


def _assert_manifest_matches_rescan(store: ShardedTraceStore) -> None:
    """Folded manifest statistics must equal a recomputed scan of the shards."""
    recomputed = StreamStats.of_stream(store)
    assert store.num_data_op_events == recomputed.num_data_op_events
    assert store.num_target_events == recomputed.num_target_events
    assert store.end_time == recomputed.end_time
    assert store.data_op_kind_counts() == recomputed.data_op_kind_counts
    assert store.target_kind_counts() == recomputed.target_kind_counts
    stats = store.summary()
    assert stats["bytes_transferred"] == recomputed.bytes_transferred
    assert stats["num_kernel_events"] == recomputed.num_kernel_events
    assert stats["transfer_time"] == pytest.approx(recomputed.transfer_time)
    assert stats["kernel_time"] == pytest.approx(recomputed.kernel_time)


def test_retention_policy_validation():
    with pytest.raises(ValueError, match="max_age"):
        RetentionPolicy(max_age=-1.0)
    with pytest.raises(ValueError, match="max_total_bytes"):
        RetentionPolicy(max_total_bytes=-1)
    with pytest.raises(ValueError, match="max_shards"):
        RetentionPolicy(max_shards=-2)
    with pytest.raises(ValueError, match="unknown event kind"):
        RetentionPolicy(keep_kinds={"warp-drive"})
    assert RetentionPolicy().is_null()
    assert not RetentionPolicy(max_age=1.0).is_null()


def test_compact_retain_max_age_drops_old_events(tmp_path):
    ct = _sample_trace(cycles=12)
    store = shard_trace(ct, tmp_path / "t.store", shard_events=5)
    horizon = store.end_time * 0.4  # keep roughly the newest 40% of event time
    cutoff = store.end_time - horizon

    compacted = store.compact(
        shard_events=5, retention=RetentionPolicy(max_age=horizon)
    )
    merged = merge_shards(compacted)
    assert 0 < len(merged) < len(ct)
    assert float(merged.do_end_time.min(initial=np.inf)) >= cutoff
    assert float(merged.tgt_end_time.min(initial=np.inf)) >= cutoff
    # Exactly the in-horizon events survive, in order.  (The recorded
    # total_runtime is a property of the run, not of the retained subset,
    # so retention preserves it.)
    keep_do = np.flatnonzero(ct.do_end_time >= cutoff)
    keep_tgt = np.flatnonzero(ct.tgt_end_time >= cutoff)
    expected = ct.select_rows(keep_do, keep_tgt)
    expected.total_runtime = compacted.total_runtime
    assert compacted.total_runtime == ct.total_runtime
    assert _dicts_equal(merged, expected)
    _assert_manifest_matches_rescan(compacted)


def test_compact_retain_keep_kinds(tmp_path):
    ct = _sample_trace(cycles=8)
    store = shard_trace(ct, tmp_path / "t.store", shard_events=6)
    compacted = store.compact(
        retention=RetentionPolicy(keep_kinds={"transfer_to_device", "transfer_from_device", "target"})
    )
    merged = merge_shards(compacted)
    kinds = compacted.data_op_kind_counts()
    assert kinds["alloc"] == 0 and kinds["delete"] == 0
    assert kinds["transfer_to_device"] == 8 and kinds["transfer_from_device"] == 8
    assert compacted.target_kind_counts()["target"] == 8
    assert len(merged) == 24
    _assert_manifest_matches_rescan(compacted)


def test_compact_retain_max_shards_keeps_newest(tmp_path):
    ct = _sample_trace(cycles=20)
    store = shard_trace(ct, tmp_path / "t.store", shard_events=8)
    original_end = store.end_time
    compacted = store.compact(
        shard_events=8, retention=RetentionPolicy(max_shards=2)
    )
    assert compacted.num_shards == 2
    merged = merge_shards(compacted)
    # The kept events are the newest contiguous suffix of the trace.
    n_do, n_tgt = merged.num_data_op_events, merged.num_target_events
    suffix = ct.slice_rows(
        ct.num_data_op_events - n_do, ct.num_data_op_events,
        ct.num_target_events - n_tgt, ct.num_target_events,
    )
    suffix.total_runtime = merged.total_runtime
    assert _dicts_equal(merged, suffix)
    assert compacted.end_time == original_end
    _assert_manifest_matches_rescan(compacted)


def test_compact_retain_max_bytes_budget(tmp_path):
    ct = _sample_trace(cycles=24)
    store = shard_trace(ct, tmp_path / "t.store", shard_events=8)
    shard_bytes = [
        (store.path / s.file).stat().st_size for s in store.shards
    ]
    # Budget for roughly two shards of the re-sharded store.
    budget = 2 * max(shard_bytes) + 1
    compacted = store.compact(
        shard_events=8, retention=RetentionPolicy(max_total_bytes=budget)
    )
    assert 0 < compacted.num_shards < store.num_shards
    kept_bytes = sum(
        (compacted.path / s.file).stat().st_size for s in compacted.shards
    )
    assert kept_bytes <= budget
    _assert_manifest_matches_rescan(compacted)

    # A budget smaller than any single shard empties the store (newest
    # data cannot be partially kept at sub-shard granularity).
    emptied = compacted.compact(
        shard_events=8, retention=RetentionPolicy(max_total_bytes=1)
    )
    assert emptied.num_shards == 0
    assert len(emptied) == 0


def test_compact_retention_composes(tmp_path):
    ct = _sample_trace(cycles=16)
    store = shard_trace(ct, tmp_path / "t.store", shard_events=4)
    compacted = store.compact(
        shard_events=4,
        retention=RetentionPolicy(
            max_age=store.end_time,  # everything in horizon
            keep_kinds=frozenset({"transfer_to_device", "target"}),
            max_shards=3,
        ),
    )
    assert compacted.num_shards <= 3
    merged = merge_shards(compacted)
    assert set(np.unique(merged.do_kind)) <= {1}  # to_device code only
    _assert_manifest_matches_rescan(compacted)
    # Round-trips again after retention: still a perfectly valid store.
    assert _dicts_equal(merge_shards(ShardedTraceStore.open(store.path)), merged)


def test_compact_empty_store(tmp_path):
    store = shard_trace(
        ColumnarTrace(num_devices=1), tmp_path / "empty.store", shard_events=4
    )
    compacted = store.compact(shard_events=8)
    assert compacted.num_shards == 0
    assert len(compacted) == 0


# --------------------------------------------------------------------- #
# Store round-tripping
# --------------------------------------------------------------------- #
def test_shard_and_merge_round_trip(tmp_path):
    ct = _sample_trace()
    store = shard_trace(ct, tmp_path / "t.store", shard_events=7)
    assert store.num_shards == -(-len(ct) // 7)
    assert _dicts_equal(merge_shards(store), ct)


def test_store_is_sniffed_by_load_trace(tmp_path):
    ct = _sample_trace()
    shard_trace(ct, tmp_path / "t.store", shard_events=10)
    loaded = load_trace(tmp_path / "t.store")
    assert isinstance(loaded, ShardedTraceStore)


def test_store_summary_needs_no_shard_reads(tmp_path, monkeypatch):
    ct = _sample_trace()
    store = shard_trace(ct, tmp_path / "t.store", shard_events=10)

    def _boom(*args, **kwargs):
        raise AssertionError("summary() must not read shards")

    monkeypatch.setattr(ColumnarTrace, "load_binary", _boom)
    reopened = ShardedTraceStore.open(tmp_path / "t.store")
    assert reopened.summary() == ct.summary()
    assert reopened.data_op_kind_counts()["alloc"] == 9
    assert reopened.target_kind_counts()["target"] == 9
    assert reopened.on_disk_bytes() > 0
    assert len(reopened) == len(ct)


def test_store_rejects_unknown_manifest_version(tmp_path):
    ct = _sample_trace()
    shard_trace(ct, tmp_path / "t.store", shard_events=10)
    manifest_path = tmp_path / "t.store" / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["format_version"] = 999
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported store format version"):
        ShardedTraceStore.open(tmp_path / "t.store")


def test_writer_refuses_non_empty_directory(tmp_path):
    (tmp_path / "occupied").mkdir()
    (tmp_path / "occupied" / "junk").write_text("x")
    with pytest.raises(ValueError, match="non-empty"):
        TraceWriter(tmp_path / "occupied")


def test_writer_bounds_buffer_and_cuts_shards(tmp_path):
    writer = TraceWriter(tmp_path / "w.store", shard_events=4, num_devices=1)
    for i in range(11):
        writer.append_data_op(
            seq=i, kind=DataOpKind.ALLOC, src_device_num=1, dest_device_num=0,
            src_addr=i, dest_addr=0x1000 + i, nbytes=64,
            start_time=float(i), end_time=i + 0.5,
        )
        assert writer.buffered_events <= 4
    store = writer.close(total_runtime=20.0)
    assert store.num_shards == 3
    assert [s.num_events for s in store.shards] == [4, 4, 3]
    assert store.total_runtime == 20.0
    validate_stream(store)


@pytest.mark.parametrize(
    "bad", [dict(src_addr=-1), dict(codeptr=1 << 64)], ids=["negative-src-addr", "codeptr-2**64"]
)
def test_writer_writes_no_shard_after_a_failed_settle(tmp_path, bad):
    # Rows settle into columns when the shard is flushed, so a row numpy
    # cannot store raises there, and nothing of that shard reaches the store.
    writer = TraceWriter(tmp_path / "w.store", shard_events=4, num_devices=1)

    def append(i, **overrides):
        fields = dict(
            seq=i, kind=DataOpKind.ALLOC, src_device_num=1, dest_device_num=0,
            src_addr=i, dest_addr=0x1000 + i, nbytes=64,
            start_time=float(i), end_time=i + 0.5,
        )
        fields.update(overrides)
        writer.append_data_op(**fields)

    for i in range(3):
        append(i)
    with pytest.raises(OverflowError):
        append(3, **bad)
    assert writer.shards == []
    assert writer.transport.list_blobs() == []
    assert writer.buffered_events == 4
    with pytest.raises(OverflowError):
        writer.flush()
    with pytest.raises(OverflowError):
        writer.close()
    assert writer.transport.list_blobs() == []


def test_writer_close_is_idempotent_guard(tmp_path):
    writer = TraceWriter(tmp_path / "w.store", shard_events=4)
    writer.close()
    with pytest.raises(ValueError, match="closed"):
        writer.append_target(
            seq=0, kind=TargetKind.TARGET, device_num=0,
            start_time=0.0, end_time=1.0,
        )


def test_late_device_count_is_manifest_authoritative(tmp_path):
    # Devices can initialise after the first shards were flushed: the
    # writer stamps early shards with a stale count, but close() records
    # the true one in the manifest, which loaded batches and validation
    # must follow.
    writer = TraceWriter(tmp_path / "w.store", shard_events=2, num_devices=1)
    for i in range(5):
        writer.append_data_op(
            seq=i, kind=DataOpKind.ALLOC, src_device_num=2, dest_device_num=i % 2,
            src_addr=i, dest_addr=0x1000 + i, nbytes=64,
            start_time=float(i), end_time=i + 0.5,
        )
    store = writer.close(num_devices=2)
    assert store.num_devices == 2
    for batch in store.batches():
        assert batch.num_devices == 2
    validate_stream(store)  # must not flag stale per-shard device counts
    # The same holds with validation folded into the analysis scan.
    from repro.core.profiler import OMPDataPerf

    for engine, jobs in (("serial", 1), ("process", 2)):
        report = OMPDataPerf().analyze_stream(store, engine=engine, jobs=jobs)
        assert report.counts.unused_allocations == 5


def test_resharding_coalesces_small_shards(tmp_path):
    ct = _sample_trace()
    fine = shard_trace(ct, tmp_path / "fine.store", shard_events=2)
    assert fine.num_shards > 1
    coarse = shard_trace(fine, tmp_path / "coarse.store", shard_events=1000)
    assert coarse.num_shards == 1  # small input batches merged into one shard
    assert _dicts_equal(merge_shards(coarse), ct)
    again = shard_trace(fine, tmp_path / "mid.store", shard_events=7)
    assert [s.num_events for s in again.shards][:-1] == [7] * (again.num_shards - 1)
    assert _dicts_equal(merge_shards(again), ct)


def test_validate_stream_flags_boundary_disorder(tmp_path):
    b = TraceBuilder()
    for i in range(4):
        b.alloc(0x100 + i, 0xA000 + i * 0x100)
    trace = ColumnarTrace.from_trace(b.build())
    store = shard_trace(trace, tmp_path / "t.store", shard_events=2)
    # Corrupt the second shard: shift its events before the first shard's.
    shard = store.load_batch(1)
    bad = ColumnarTrace(num_devices=shard.num_devices)
    for event in shard.data_op_events:
        bad.append_data_op_event(event.with_times(0.0, 0.0))
    bad.save_flat(store.path / store.shards[1].file)
    problems = validate_stream(ShardedTraceStore.open(store.path), strict=False)
    assert any("across the shard boundary" in p for p in problems)
    with pytest.raises(TraceValidationError):
        validate_stream(ShardedTraceStore.open(store.path))


# --------------------------------------------------------------------- #
# Stream utilities
# --------------------------------------------------------------------- #
def test_sliced_stream_is_reiterable():
    ct = _sample_trace()
    stream = SlicedTraceStream(ct, shard_events=6)
    first = [len(batch) for batch in stream.batches()]
    second = [len(batch) for batch in stream.batches()]
    assert first == second
    assert sum(first) == len(ct)


def test_materialize_data_op_events_targeted(tmp_path):
    ct = _sample_trace()
    store = shard_trace(ct, tmp_path / "t.store", shard_events=8)
    gpos = np.array([0, 5, ct.num_data_op_events - 1], dtype=np.int64)
    events = materialize_data_op_events(store, gpos)
    for pos in gpos:
        assert events[int(pos)] == ct.data_op_event_at(int(pos))


def test_materialize_rejects_out_of_range(tmp_path):
    ct = _sample_trace()
    store = shard_trace(ct, tmp_path / "t.store", shard_events=8)
    with pytest.raises(IndexError):
        materialize_data_op_events(store, np.array([ct.num_data_op_events + 7]))


def test_trace_like_view_folds_stats():
    ct = _sample_trace()
    view = trace_like_view(as_event_stream(ct, 5))
    assert view.summary() == ct.summary()
    assert view.runtime == ct.runtime
    # Stores and plain traces pass through unchanged.
    assert trace_like_view(ct) is ct


# --------------------------------------------------------------------- #
# Property: merge(shard(trace, k)) is lossless
# --------------------------------------------------------------------- #
def test_empty_trace_round_trips(tmp_path):
    empty = ColumnarTrace(num_devices=3, program_name="empty")
    store = shard_trace(empty, tmp_path / "e.store", shard_events=4)
    assert store.num_shards == 0
    assert store.is_empty()
    merged = merge_shards(store)
    assert _dicts_equal(merged, empty)
    assert merged.num_devices == 3 and merged.program_name == "empty"


def test_single_event_trace_round_trips(tmp_path):
    b = TraceBuilder()
    b.kernel(name="only")
    ct = ColumnarTrace.from_trace(b.build())
    store = shard_trace(ct, tmp_path / "s.store", shard_events=1)
    assert store.num_shards == 1
    assert _dicts_equal(merge_shards(store), ct)


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from(["alloc", "h2d", "d2h", "kernel"])),
        min_size=0,
        max_size=30,
    ),
    shard_events=st.integers(min_value=1, max_value=40),
)
def test_shard_merge_lossless_property(tmp_path_factory, steps, shard_events):
    b = TraceBuilder(num_devices=2)
    mapped: dict[int, int] = {}
    for var, step in steps:
        dev = var % 2
        host, daddr = 0x100 + var * 0x10, 0xA000 + var * 0x100
        if step == "kernel":
            b.kernel(device=dev)
            continue
        if var not in mapped:
            mapped[var] = daddr
            b.alloc(host, daddr, device=dev)
        if step == "h2d":
            b.h2d(host, daddr, content_hash=var + 1, device=dev)
        elif step == "d2h":
            b.d2h(host, daddr, content_hash=var + 50, device=dev)
    ct = ColumnarTrace.from_trace(b.build())

    # In-memory slicing and the on-disk store must both reassemble losslessly.
    assert _dicts_equal(merge_stream(as_event_stream(ct, shard_events)), ct)
    path = tmp_path_factory.mktemp("prop") / "t.store"
    store = shard_trace(ct, path, shard_events=shard_events)
    assert _dicts_equal(merge_shards(store), ct)
