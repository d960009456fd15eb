"""Shard-format contract and flat-shard fault-injection tests.

Every store shard is a flat ``.odpf`` payload, and the manifest records
``"format": "odpf"`` for each.  These tests pin that contract over all
three transports (local directory, zip archive, object store): a store
replays bit-identically through all five analysis legs (object oracle,
columnar, serial streaming, process, distributed); a manifest entry that
is not an ``.odpf`` shard — ``"format": "npz"``, or a legacy entry with
no format field naming an ``.npz`` file — is refused when the store is
opened; and a torn ``.odpf`` write can never reach the live manifest —
the flat payload's extent check rejects any truncated buffer even though
the commit-marker magic sits at offset zero and therefore survives a
torn prefix.
"""

from __future__ import annotations

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
    MANIFEST_NAME,
    ShardedTraceStore,
    merge_shards,
    shard_trace,
)
from repro.events.transport import FakeObjectStoreTransport, TransportError

from tests.conftest import TraceBuilder

SHARD_EVENTS = 7
TRANSPORTS = ["local", "zip", "object"]


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


def _destination(kind: str, tmp_path):
    if kind == "local":
        return tmp_path / "t.store"
    if kind == "zip":
        return tmp_path / "t.zip"
    return FakeObjectStoreTransport()


@pytest.fixture
def make_store(tmp_path):
    """Factory: the sample trace as a store on the named transport."""

    def make(kind: str) -> ShardedTraceStore:
        ct = ColumnarTrace.from_trace(_sample_trace())
        return shard_trace(ct, _destination(kind, tmp_path), shard_events=SHARD_EVENTS)

    return make


def _rewrite_manifest(store: ShardedTraceStore, edit) -> None:
    """Apply ``edit`` to the store's parsed manifest and publish it."""
    manifest = json.loads(store.transport.read_blob(MANIFEST_NAME))
    edit(manifest)
    store.transport.write_blob(MANIFEST_NAME, json.dumps(manifest).encode("utf-8"))


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
# Refused manifest entries
# --------------------------------------------------------------------- #
def _npz_entry(manifest, *, with_field: bool) -> None:
    entry = manifest["shards"][1]
    entry["file"] = "shard-legacy.npz"
    if with_field:
        entry["format"] = "npz"
    else:
        del entry["format"]


@pytest.mark.parametrize("kind", TRANSPORTS)
@pytest.mark.parametrize("with_field", [True, False], ids=["format-npz", "legacy-no-field"])
def test_npz_shard_entry_is_refused_at_open(kind, with_field, make_store):
    store = make_store(kind)
    # A real compressed blob under the entry's name: the refusal is about
    # the manifest, so it must not depend on what the blob holds.
    store.transport.write_blob("shard-legacy.npz", store.load_batch(1).to_binary_bytes())
    _rewrite_manifest(store, lambda m: _npz_entry(m, with_field=with_field))
    with pytest.raises(ValueError, match=r"shard 'shard-legacy\.npz' is in format 'npz'"):
        ShardedTraceStore.open(store.transport)


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_unknown_shard_format_is_refused_at_open(kind, make_store):
    store = make_store(kind)
    _rewrite_manifest(store, lambda m: m["shards"][0].update(format="zstd"))
    with pytest.raises(ValueError, match=r"'zstd'"):
        ShardedTraceStore.open(store.transport)


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_odpf_entry_without_format_field_opens(kind, make_store):
    """A field-less entry naming an ``.odpf`` file is an ``.odpf`` shard."""
    store = make_store(kind)
    expected = merge_shards(store)

    def drop_fields(manifest):
        for entry in manifest["shards"]:
            del entry["format"]

    _rewrite_manifest(store, drop_fields)
    assert _dicts_equal(merge_shards(ShardedTraceStore.open(store.transport)), expected)


# --------------------------------------------------------------------- #
# Round trips on every transport
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", TRANSPORTS)
def test_store_round_trips_bit_identically(kind, make_store):
    ct = ColumnarTrace.from_trace(_sample_trace())
    store = make_store(kind)
    assert store.num_shards > 1
    assert all(s.file.endswith(".odpf") for s in store.shards)
    manifest = json.loads(store.transport.read_blob(MANIFEST_NAME))
    assert {entry["format"] for entry in manifest["shards"]} == {"odpf"}
    assert _dicts_equal(merge_shards(store), ct)

    # Reopening goes through manifest parsing (per-shard format field).
    reopened = ShardedTraceStore.open(store.transport)
    assert reopened.shards == store.shards
    assert _dicts_equal(merge_shards(reopened), ct)


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_store_identical_across_five_legs(kind, make_store):
    trace = _sample_trace()
    ct = ColumnarTrace.from_trace(trace)
    store = make_store(kind)

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


# --------------------------------------------------------------------- #
# Torn flat-shard writes
# --------------------------------------------------------------------- #
def test_torn_odpf_shard_write_keeps_old_store(make_store):
    """A torn ``.odpf`` staged write must never dangle from the manifest.

    The flat payload's magic doubles as the commit marker and lives at
    offset ZERO — an object-store put that commits a torn prefix keeps
    the magic while losing column bytes.  The extent check in
    ``from_shared`` must reject that buffer, and compaction's staging
    discipline must leave the old store untouched.
    """
    store = make_store("object")
    remote = store.transport
    ct = ColumnarTrace.from_trace(_sample_trace())
    old_files = [shard.file for shard in store.shards]

    remote.tear_next_write(0.5)  # first staged .odpf shard write tears
    with pytest.raises(TransportError):
        store.compact(shard_events=30)

    # Old manifest, old shards, same replay.
    reopened = ShardedTraceStore.open(remote)
    assert [shard.file for shard in reopened.shards] == old_files
    assert all(remote.blob_exists(file) for file in old_files)
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
    compacted = ShardedTraceStore.open(remote).compact(shard_events=30)
    assert compacted.num_shards < len(old_files)
    assert not set(s.file for s in compacted.shards) & set(old_files)
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
