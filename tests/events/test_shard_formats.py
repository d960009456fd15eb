"""Mixed-format store and flat-shard fault-injection tests.

A store manifest records the format of every shard individually, so a
store migrated halfway (or extended by a newer writer) legitimately holds
legacy ``.npz`` and flat ``.odpf`` shards side by side.  These tests pin
the compatibility contract: a mixed-format store replays bit-identically
through all five analysis legs (object oracle, columnar, serial
streaming, process-partitioned, distributed) over all three transports
(local directory, zip archive, object store), and a torn ``.odpf`` write
can never reach the live manifest — the flat payload's extent check
rejects any truncated buffer even though the commit-marker magic sits at
offset zero and therefore survives a torn prefix.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.core.analysis import analyze_stream, analyze_trace
from repro.core.distributed import DistributedEngine
from repro.events.columnar import (
    _FLAT_PREFIX,
    FLAT_FORMAT_VERSION,
    FLAT_MAGIC,
    ColumnarTrace,
    _align_flat,
)
from repro.events.store import (
    COMPACT_SCRATCH_PREFIX,
    SHARD_FORMAT_NPZ,
    SHARD_FORMAT_ODPF,
    ShardedTraceStore,
    TraceWriter,
    merge_shards,
    shard_trace,
)
from repro.events.stream import as_event_stream
from repro.events.transport import FakeObjectStoreTransport, TransportError

from tests.conftest import TraceBuilder

SHARD_EVENTS = 7


def _sample_trace(cycles: int = 12, num_devices: int = 2):
    b = TraceBuilder(num_devices=num_devices)
    for i in range(cycles):
        dev = i % num_devices
        host, daddr = 0x100 + i * 0x10, 0xA000 + i * 0x100
        b.alloc(host, daddr, device=dev)
        b.h2d(host, daddr, content_hash=1 + (i % 3), device=dev)
        b.kernel(device=dev, name=f"k{i}")
        b.d2h(host, daddr, content_hash=100 + i, device=dev)
        b.delete(host, daddr, device=dev)
    return b.build()


def _mixed_store(trace, destination) -> ShardedTraceStore:
    """Write ``trace`` as a store whose shards alternate npz / odpf."""
    stream = as_event_stream(ColumnarTrace.from_trace(trace), SHARD_EVENTS)
    writer = TraceWriter(
        destination,
        shard_events=SHARD_EVENTS,
        num_devices=stream.num_devices,
        program_name=stream.program_name,
    )
    formats = itertools.cycle((SHARD_FORMAT_NPZ, SHARD_FORMAT_ODPF))
    for batch in stream.batches():
        writer.shard_format = next(formats)
        writer.write_batch(batch)
        writer.flush()  # cut the shard here so the next format flip lands
    return writer.close(total_runtime=stream.total_runtime)


def _destination(kind: str, tmp_path):
    if kind == "local":
        return tmp_path / "t.store"
    if kind == "zip":
        return tmp_path / "t.zip"
    return FakeObjectStoreTransport()


def _dicts_equal(a: ColumnarTrace, b: ColumnarTrace) -> bool:
    return a.to_trace().to_dict() == b.to_trace().to_dict()


def _assert_reports_equal(obj_report, report):
    assert obj_report.counts == report.counts
    assert obj_report.potential == report.potential
    assert obj_report.duplicate_groups == report.duplicate_groups
    assert obj_report.round_trip_groups == report.round_trip_groups
    assert obj_report.repeated_alloc_groups == report.repeated_alloc_groups
    assert obj_report.unused_allocations == report.unused_allocations
    assert obj_report.unused_transfers == report.unused_transfers


# --------------------------------------------------------------------- #
# Mixed-format compatibility
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["local", "zip", "object"])
def test_mixed_format_store_round_trips_bit_identically(kind, tmp_path):
    trace = _sample_trace()
    ct = ColumnarTrace.from_trace(trace)
    store = _mixed_store(trace, _destination(kind, tmp_path))

    counts = store.shard_format_counts()
    assert counts.get(SHARD_FORMAT_NPZ, 0) > 0
    assert counts.get(SHARD_FORMAT_ODPF, 0) > 0
    assert _dicts_equal(merge_shards(store), ct)

    # Reopening goes through manifest parsing (per-shard format field).
    reopened = ShardedTraceStore.open(store.transport)
    assert [s.format for s in reopened.shards] == [s.format for s in store.shards]
    assert _dicts_equal(merge_shards(reopened), ct)


@pytest.mark.parametrize("kind", ["local", "zip", "object"])
def test_mixed_format_store_identical_across_five_legs(kind, tmp_path):
    trace = _sample_trace()
    ct = ColumnarTrace.from_trace(trace)
    store = _mixed_store(trace, _destination(kind, tmp_path))

    obj_report = analyze_trace(trace)
    _assert_reports_equal(obj_report, analyze_trace(ct))
    _assert_reports_equal(obj_report, analyze_stream(store))
    _assert_reports_equal(
        obj_report, analyze_stream(store, engine="process", jobs=2)
    )
    engine = DistributedEngine(
        worker_mode="thread", poll_interval=0.01, run_timeout=120.0
    )
    _assert_reports_equal(obj_report, analyze_stream(store, engine=engine, jobs=2))


def test_legacy_manifest_without_format_field_still_opens(tmp_path):
    """Manifests written before the format field default by extension."""
    import json

    from repro.events.store import MANIFEST_NAME

    trace = _sample_trace()
    ct = ColumnarTrace.from_trace(trace)
    store = shard_trace(ct, tmp_path / "t.store", shard_events=SHARD_EVENTS,
                        shard_format="npz")
    manifest_path = store.path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["shards"]:
        del entry["format"]
    manifest_path.write_text(json.dumps(manifest))

    reopened = ShardedTraceStore.open(store.path)
    assert all(s.format == SHARD_FORMAT_NPZ for s in reopened.shards)
    assert _dicts_equal(merge_shards(reopened), ct)


# --------------------------------------------------------------------- #
# Torn flat-shard writes
# --------------------------------------------------------------------- #
def test_torn_odpf_shard_write_keeps_old_store():
    """A torn ``.odpf`` staged write must never dangle from the manifest.

    The flat payload's magic doubles as the commit marker and lives at
    offset ZERO — an object-store put that commits a torn prefix keeps
    the magic while losing column bytes.  The extent check in
    ``from_shared`` must reject that buffer, and compaction's staging
    discipline must leave the old store untouched.
    """
    remote = FakeObjectStoreTransport()
    trace = _sample_trace()
    ct = ColumnarTrace.from_trace(trace)
    store = shard_trace(ct, remote, shard_events=SHARD_EVENTS, shard_format="npz")

    remote.tear_next_write(0.5)  # first staged .odpf shard write tears
    with pytest.raises(TransportError):
        store.compact(shard_events=30, shard_format="odpf")

    # Old manifest, old shards, same replay.
    reopened = ShardedTraceStore.open(remote)
    for shard in reopened.shards:
        assert shard.format == SHARD_FORMAT_NPZ
        assert remote.blob_exists(shard.file)
    assert _dicts_equal(merge_shards(reopened), ct)

    # The torn scratch blob kept its magic but not its column data: the
    # payload parser must call it truncated, not silently short-read.
    torn = [
        name
        for name in remote.list_objects()
        if name.startswith(COMPACT_SCRATCH_PREFIX)
    ]
    assert torn
    torn_bytes = remote.read_blob(torn[0])
    assert torn_bytes[: len(FLAT_MAGIC)] == FLAT_MAGIC
    with pytest.raises(ValueError, match="truncated flat trace payload"):
        ColumnarTrace.from_shared(memoryview(torn_bytes), source="torn")

    # The next compaction clears the scratch leftovers and succeeds.
    compacted = ShardedTraceStore.open(remote).compact(
        shard_events=30, shard_format="odpf"
    )
    assert all(s.format == SHARD_FORMAT_ODPF for s in compacted.shards)
    assert _dicts_equal(merge_shards(compacted), ct)


def test_truncated_flat_payload_rejected_at_every_cut(tmp_path):
    ct = ColumnarTrace.from_trace(_sample_trace(cycles=3, num_devices=1))
    payload = ct.to_flat_payload()
    # The payload tail is alignment padding, so "one byte short" can still
    # cover every column; cutting a whole 64-byte alignment block cannot.
    for cut in (len(FLAT_MAGIC), 16, len(payload) // 2, len(payload) - 64):
        with pytest.raises(
            ValueError, match="(truncated|too small for a) flat trace payload"
        ):
            ColumnarTrace.from_shared(memoryview(payload[:cut]), source="cut")
    # The full buffer still parses — the cuts above are the only problem.
    assert _dicts_equal(
        ColumnarTrace.from_shared(memoryview(payload), source="full"), ct
    )


def test_truncated_odpf_shard_file_fails_cleanly(tmp_path):
    """A flat shard truncated on disk errors out of the mmap hot path."""
    store = shard_trace(
        ColumnarTrace.from_trace(_sample_trace()),
        tmp_path / "t.store",
        shard_events=SHARD_EVENTS,
    )
    victim = store.path / store.shards[0].file
    victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
    fresh = ShardedTraceStore.open(store.path)
    with pytest.raises(ValueError, match="truncated flat trace payload"):
        fresh.load_batch(0)


def _tampered_payload(ct: ColumnarTrace, edit) -> bytes:
    """``ct``'s flat payload with ``edit`` applied to its parsed header (the
    column data moved to where the new header length puts it)."""
    payload = ct.to_flat_payload()
    _, _, _, header_len = _FLAT_PREFIX.unpack_from(payload, 0)
    header = json.loads(payload[_FLAT_PREFIX.size : _FLAT_PREFIX.size + header_len])
    data = payload[_align_flat(_FLAT_PREFIX.size + header_len) :]
    edit(header)
    header_bytes = json.dumps(header).encode("utf-8")
    data_start = _align_flat(_FLAT_PREFIX.size + len(header_bytes))
    out = bytearray(data_start + len(data))
    out[data_start:] = data
    out[_FLAT_PREFIX.size : _FLAT_PREFIX.size + len(header_bytes)] = header_bytes
    _FLAT_PREFIX.pack_into(out, 0, FLAT_MAGIC, FLAT_FORMAT_VERSION, 0, len(header_bytes))
    return bytes(out)


def _shrink_column(tag: str, name: str):
    def edit(header):
        for column in header["columns"]:
            if column[:2] == [tag, name]:
                column[4] -= np.dtype(column[2]).itemsize  # one row short
    return edit


def _set(key, value):
    return lambda header: header.__setitem__(key, value)


#: header edit -> what the error names
BAD_HEADERS = {
    "data-op column one row short": (_shrink_column("do", "nbytes"), "'nbytes'"),
    "target column one row short": (_shrink_column("tgt", "start_time"), "'start_time'"),
    "data-op column missing": (
        lambda h: h.__setitem__("columns", [c for c in h["columns"] if c[:2] != ["do", "kind"]]),
        "'kind'",
    ),
    "too few variables": (_set("data_op_variables", ["v"]), "string columns"),
    "too many target names": (_set("target_names", ["k"] * 99), "string columns"),
}


@pytest.mark.parametrize("case", sorted(BAD_HEADERS))
def test_flat_payload_checks_fail_at_open_not_at_first_read(case):
    """Column views are built on first read, but every check of the
    payload runs when it is opened."""
    ct = ColumnarTrace.from_trace(_sample_trace(cycles=3, num_devices=1))
    edit, named = BAD_HEADERS[case]
    with pytest.raises(ValueError, match=named):
        ColumnarTrace.from_shared(memoryview(_tampered_payload(ct, edit)), source="bad")
    # the same relayout without the edit parses to the same trace
    same = ColumnarTrace.from_shared(memoryview(_tampered_payload(ct, lambda h: None)))
    assert _dicts_equal(same, ct)


def test_truncated_payload_fails_at_open_with_every_column_unread():
    ct = ColumnarTrace.from_trace(_sample_trace(cycles=3, num_devices=1))
    payload = ct.to_flat_payload()
    with pytest.raises(ValueError, match="truncated flat trace payload"):
        ColumnarTrace.from_shared(memoryview(payload[: len(payload) - 64]))
    opened = ColumnarTrace.from_shared(memoryview(payload))
    assert not opened._data_ops._columns and not opened._targets._columns
    assert opened._variables is None  # no debug variables: no list built
    assert opened._tgt_names == [f"k{i}" for i in range(3)]
