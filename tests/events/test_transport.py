"""Transport-protocol conformance suite plus fault-injection cases.

Every :class:`~repro.events.transport.ShardTransport` implementation runs
through the same parametrized contract tests — blob CRUD, rename, atomic
manifest publish, spec round-tripping — and through the store-level
round-trip (a :class:`ShardedTraceStore` written through any transport
reads back bit-identically).  The fake object store additionally gets the
fault-injection cases: a torn manifest write and a missing shard blob must
never leave a store whose manifest references incomplete data
(compaction's crash-safety invariant).
"""

from __future__ import annotations

import os
import pickle
import shutil
import uuid
from pathlib import Path

import pytest

from repro.events.backends import load_trace
from repro.events.columnar import ColumnarTrace
from repro.events.store import (
    COMPACT_SCRATCH_PREFIX,
    MANIFEST_NAME,
    RetentionPolicy,
    ShardedTraceStore,
    TraceWriter,
    merge_shards,
    shard_trace,
)
from repro.events.stream import StreamStats
from repro.events.transport import (
    FakeObjectStoreTransport,
    LocalDirTransport,
    PrefixTransport,
    ShardTransport,
    TransportError,
    ZipArchiveTransport,
    list_blobs_under,
    open_transport,
    transport_from_spec,
    try_claim_blob,
    try_read_blob,
    zip_contains_manifest,
)

from tests.conftest import TraceBuilder

TRANSPORT_KINDS = ("local", "zip", "fake-object-store", "s3")

#: A real S3-compatible endpoint (MinIO in CI) — when set (and not the
#: literal ``moto``), the ``s3`` conformance leg runs against it instead of
#: the in-process moto mock.
S3_TEST_ENDPOINT_ENV = "OMPDATAPERF_S3_TEST_ENDPOINT"

try:
    import boto3  # noqa: F401 — presence probe only

    HAS_BOTO3 = True
except ImportError:  # pragma: no cover - exercised only without boto3
    HAS_BOTO3 = False


def _s3_transport(monkeypatch):
    """Yield a fresh s3 transport: real endpoint when configured, else moto."""
    if not HAS_BOTO3:
        pytest.skip("boto3 not installed")
    from repro.events.transport_s3 import S3ObjectStoreTransport

    prefix = f"conformance/{uuid.uuid4().hex[:12]}"
    endpoint = os.environ.get(S3_TEST_ENDPOINT_ENV)
    if endpoint and endpoint != "moto":
        transport = S3ObjectStoreTransport(
            "ompdataperf-tests", prefix, endpoint_url=endpoint, create=True
        )
        try:
            yield transport
        finally:
            for name in transport.list_blobs():
                transport.delete_blob(name)
        return
    moto = pytest.importorskip("moto")
    for var in ("AWS_ACCESS_KEY_ID", "AWS_SECRET_ACCESS_KEY", "AWS_SECURITY_TOKEN"):
        monkeypatch.setenv(var, "testing")
    monkeypatch.setenv("AWS_DEFAULT_REGION", "us-east-1")
    monkeypatch.delenv("OMPDATAPERF_S3_ENDPOINT", raising=False)
    with moto.mock_aws():
        yield S3ObjectStoreTransport("ompdataperf-tests", prefix, create=True)


@pytest.fixture(params=TRANSPORT_KINDS)
def transport(request, tmp_path, monkeypatch) -> ShardTransport:
    """A fresh empty transport of every kind, same contract expected."""
    if request.param == "local":
        yield LocalDirTransport(tmp_path / "blobs", create=True)
    elif request.param == "zip":
        yield ZipArchiveTransport(tmp_path / "blobs.zip", create=True)
    elif request.param == "fake-object-store":
        yield FakeObjectStoreTransport()
    else:
        yield from _s3_transport(monkeypatch)


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


# --------------------------------------------------------------------- #
# Protocol conformance (same assertions for every transport)
# --------------------------------------------------------------------- #
def test_blob_crud_round_trip(transport):
    assert transport.list_blobs() == []
    assert not transport.blob_exists("a.bin")

    transport.write_blob("a.bin", b"alpha")
    transport.write_blob("b.bin", b"beta")
    assert transport.read_blob("a.bin") == b"alpha"
    assert transport.blob_exists("a.bin")
    assert transport.blob_size("b.bin") == 4
    assert transport.list_blobs() == ["a.bin", "b.bin"]

    transport.delete_blob("a.bin")
    assert not transport.blob_exists("a.bin")
    assert transport.list_blobs() == ["b.bin"]
    transport.delete_blob("a.bin")  # idempotent


def test_overwrite_replaces_content(transport):
    transport.write_blob("x.bin", b"old-old-old")
    transport.write_blob("x.bin", b"new")
    assert transport.read_blob("x.bin") == b"new"
    assert transport.blob_size("x.bin") == 3
    assert transport.list_blobs() == ["x.bin"]


def test_rename_moves_and_overwrites(transport):
    transport.write_blob("src.bin", b"payload")
    transport.write_blob("dst.bin", b"stale")
    transport.rename_blob("src.bin", "dst.bin")
    assert not transport.blob_exists("src.bin")
    assert transport.read_blob("dst.bin") == b"payload"


def test_nested_blob_names(transport):
    transport.write_blob(".compact.tmp/shard-00000.npz", b"staged")
    assert transport.read_blob(".compact.tmp/shard-00000.npz") == b"staged"
    assert ".compact.tmp/shard-00000.npz" in transport.list_blobs()
    transport.rename_blob(".compact.tmp/shard-00000.npz", "shard-g0-00000.npz")
    assert transport.list_blobs() == ["shard-g0-00000.npz"]


def test_missing_blob_reads_raise(transport):
    with pytest.raises(TransportError):
        transport.read_blob("nope.bin")
    with pytest.raises(TransportError):
        transport.blob_size("nope.bin")


def test_invalid_blob_names_rejected(transport):
    for bad in ("/abs.bin", "../escape.bin", ""):
        with pytest.raises(ValueError):
            transport.read_blob(bad)


@pytest.mark.parametrize(
    "bad",
    ["/abs.bin", "../escape.bin", "shards/../../escape.bin", ""],
    ids=["absolute", "parent", "inner-parent", "empty"],
)
def test_memoised_local_names_reject_every_call(tmp_path, bad):
    """Name checks and local paths are memoised per name; a rejected name
    is rejected again on every later call, through every local entry
    point, and nothing is written outside the directory."""
    transport = LocalDirTransport(tmp_path / "blobs", create=True)
    transport.write_blob("ok.bin", b"ok")
    for _ in range(2):
        with pytest.raises(ValueError, match="invalid blob name"):
            transport.read_blob(bad)
        with pytest.raises(ValueError, match="invalid blob name"):
            transport.write_blob(bad, b"x")
        with pytest.raises(ValueError, match="invalid blob name"):
            transport.blob_exists(bad)
        with pytest.raises(TransportError) as mapped:
            transport.map_blob(bad)
        assert isinstance(mapped.value.__cause__, ValueError)
    assert transport.read_blob("ok.bin") == b"ok"
    assert transport.list_blobs() == ["ok.bin"]
    assert not (tmp_path / "escape.bin").exists()


def test_spec_pickles_and_rebuilds(transport):
    transport.write_blob("shard.bin", b"data")
    spec = pickle.loads(pickle.dumps(transport.spec()))
    rebuilt = transport_from_spec(spec)
    assert rebuilt.read_blob("shard.bin") == b"data"


def test_prefix_transport_namespaces(transport):
    transport.write_blob("outside.bin", b"out")
    scratch = PrefixTransport(transport, "scratch")
    scratch.write_blob("inner.bin", b"in")
    assert scratch.list_blobs() == ["inner.bin"]
    assert transport.read_blob("scratch/inner.bin") == b"in"
    scratch.clear()
    assert scratch.list_blobs() == []
    assert transport.read_blob("outside.bin") == b"out"


# --------------------------------------------------------------------- #
# Store round-trip through every transport
# --------------------------------------------------------------------- #
def test_store_round_trips_bit_identically(transport):
    ct = _sample_trace()
    store = shard_trace(ct, transport, shard_events=7)
    assert store.num_shards > 1
    assert _dicts_equal(merge_shards(store), ct)
    # Reopen from scratch: everything (manifest + shards) lives in the
    # transport, nothing on the side.
    reopened = ShardedTraceStore.open(transport)
    assert reopened.summary() == ct.summary()
    assert _dicts_equal(merge_shards(reopened), ct)
    assert reopened.on_disk_bytes() > 0


def test_store_round_trip_identical_across_transports(tmp_path):
    ct = _sample_trace()
    merged = []
    for destination in (
        tmp_path / "t.store",
        tmp_path / "t.zip",
        FakeObjectStoreTransport(),
    ):
        store = shard_trace(ct, destination, shard_events=7)
        merged.append(merge_shards(store))
    assert _dicts_equal(merged[0], ct)
    for other in merged[1:]:
        assert _dicts_equal(merged[0], other)


def test_compact_with_retention_on_every_transport(transport):
    ct = _sample_trace(cycles=20)
    store = shard_trace(ct, transport, shard_events=4)
    fine = store.num_shards
    compacted = store.compact(shard_events=30, retention=RetentionPolicy(max_shards=2))
    assert compacted.num_shards <= 2 < fine
    # Folded manifest statistics match a recomputed scan of what is kept.
    recomputed = StreamStats.of_stream(compacted)
    assert compacted.num_data_op_events == recomputed.num_data_op_events
    assert compacted.num_target_events == recomputed.num_target_events
    assert compacted.data_op_kind_counts() == recomputed.data_op_kind_counts
    # No scratch staging survives a successful compaction.
    assert not any(
        name.startswith(COMPACT_SCRATCH_PREFIX) for name in transport.list_blobs()
    )


def test_writer_refuses_non_empty_transport(transport):
    transport.write_blob("junk.bin", b"x")
    with pytest.raises(ValueError, match="non-empty"):
        TraceWriter(transport)


# --------------------------------------------------------------------- #
# Sniffing
# --------------------------------------------------------------------- #
def test_zip_store_is_sniffed_by_load_trace(tmp_path):
    ct = _sample_trace()
    shard_trace(ct, tmp_path / "t.zip", shard_events=10)
    assert zip_contains_manifest(tmp_path / "t.zip")
    loaded = load_trace(tmp_path / "t.zip")
    assert isinstance(loaded, ShardedTraceStore)
    assert isinstance(loaded.transport, ZipArchiveTransport)
    assert _dicts_equal(merge_shards(loaded), ct)


def test_plain_npz_still_sniffs_as_columnar(tmp_path):
    ct = _sample_trace()
    ct.save_binary(tmp_path / "t.npz")
    assert not zip_contains_manifest(tmp_path / "t.npz")
    assert isinstance(load_trace(tmp_path / "t.npz"), ColumnarTrace)


def test_open_transport_sniffing(tmp_path):
    local = open_transport(tmp_path / "fresh.store", create=True)
    assert isinstance(local, LocalDirTransport)
    archive = open_transport(tmp_path / "fresh.zip", create=True)
    assert isinstance(archive, ZipArchiveTransport)
    assert open_transport(archive) is archive
    with pytest.raises(FileNotFoundError):
        open_transport(tmp_path / "missing.store")
    (tmp_path / "not-a-store.txt").write_text("hello")
    with pytest.raises(ValueError, match="not a store"):
        open_transport(tmp_path / "not-a-store.txt")


# --------------------------------------------------------------------- #
# Object-store semantics: latency and access-pattern accounting
# --------------------------------------------------------------------- #
def test_fake_object_store_counts_operations():
    remote = FakeObjectStoreTransport()
    ct = _sample_trace()
    store = shard_trace(ct, remote, shard_events=10)
    puts_after_write = remote.op_counts["put"]
    assert puts_after_write >= store.num_shards + 1  # shards + manifest

    # The aggregate surface answers from the manifest: zero shard gets.
    gets_before = remote.op_counts.get("get", 0)
    reopened = ShardedTraceStore.open(remote)
    assert reopened.summary() == ct.summary()
    assert remote.op_counts.get("get", 0) == gets_before + 1  # manifest only


def test_fake_object_store_latency_injection():
    remote = FakeObjectStoreTransport(latency=0.001)
    remote.write_blob("a.bin", b"x")
    import time

    t0 = time.perf_counter()
    for _ in range(5):
        remote.read_blob("a.bin")
    assert time.perf_counter() - t0 >= 5 * 0.001


# --------------------------------------------------------------------- #
# Fault injection: crash-safe compaction invariants
# --------------------------------------------------------------------- #
def _remote_store(cycles: int = 20, shard_events: int = 4):
    remote = FakeObjectStoreTransport()
    ct = _sample_trace(cycles=cycles)
    store = shard_trace(ct, remote, shard_events=shard_events)
    return remote, ct, store


def _assert_store_intact(remote, ct):
    """The crash-safety invariant: the live manifest references only
    complete shards, and the store still replays the original trace."""
    reopened = ShardedTraceStore.open(remote)
    for shard in reopened.shards:
        assert remote.blob_exists(shard.file)
    assert _dicts_equal(merge_shards(reopened), ct)


def test_torn_manifest_write_during_compact_keeps_old_store(monkeypatch):
    """A manifest publish that dies mid-write must not lose the store.

    The atomic-publish contract means a torn manifest write never commits
    (real transports stage and replace); model it as the put failing with
    nothing written.  Compaction has already staged and promoted the new
    shards at that point — but the OLD manifest still references the OLD
    shards, which are deleted last, so the store reopens exactly as
    before.
    """
    remote, ct, store = _remote_store()
    real_put = remote.put_object

    def put(key, body):
        if key == MANIFEST_NAME:
            raise TransportError("injected: torn manifest write")
        return real_put(key, body)

    monkeypatch.setattr(remote, "put_object", put)
    with pytest.raises(TransportError, match="torn manifest"):
        store.compact(shard_events=30)
    monkeypatch.undo()
    _assert_store_intact(remote, ct)


def test_torn_staged_shard_write_keeps_old_store():
    remote, ct, store = _remote_store()
    remote.tear_next_write(0.5)  # first staged shard write tears
    with pytest.raises(TransportError):
        store.compact(shard_events=30)
    _assert_store_intact(remote, ct)
    # The torn staged blob stays under the scratch prefix for inspection …
    assert any(
        name.startswith(COMPACT_SCRATCH_PREFIX) for name in remote.list_objects()
    )
    # … and the next compaction clears it and succeeds.
    compacted = ShardedTraceStore.open(remote).compact(shard_events=30)
    assert _dicts_equal(merge_shards(compacted), ct)
    assert not any(
        name.startswith(COMPACT_SCRATCH_PREFIX) for name in remote.list_objects()
    )


def test_missing_shard_blob_raises_cleanly():
    remote, ct, store = _remote_store()
    victim = store.shards[1].file
    remote.delete_object(victim)
    with pytest.raises(TransportError, match="no object"):
        merge_shards(store)
    # Compaction reads every shard, so it fails too — without touching
    # the manifest or the surviving shards.
    with pytest.raises(TransportError):
        ShardedTraceStore.open(remote).compact(shard_events=30)
    reopened = ShardedTraceStore.open(remote)
    assert [s.file for s in reopened.shards] == [s.file for s in store.shards]
    for shard in reopened.shards:
        if shard.file != victim:
            assert remote.blob_exists(shard.file)


def test_local_torn_manifest_write_keeps_old_store(tmp_path, monkeypatch):
    """The local transport's atomic publish: a crash between staging and
    replace leaves the OLD manifest bytes under the live name."""
    import os as os_module

    ct = _sample_trace(cycles=12)
    store = shard_trace(ct, tmp_path / "t.store", shard_events=4)

    real_replace = os_module.replace

    def replace(src, dst):
        if str(dst).endswith(MANIFEST_NAME):
            raise OSError("injected: crash before manifest replace")
        return real_replace(src, dst)

    monkeypatch.setattr("repro.events.transport.os.replace", replace)
    with pytest.raises(TransportError):
        store.compact(shard_events=30)
    monkeypatch.undo()

    reopened = ShardedTraceStore.open(tmp_path / "t.store")
    assert _dicts_equal(merge_shards(reopened), ct)


def test_zip_write_crash_leaves_archive_readable(tmp_path, monkeypatch):
    """A crash mid-write must never corrupt the archive's existing members.

    Every zip mutation stages a temp archive and publishes with one
    ``os.replace``; killing the process between staging and replace (here:
    making the replace itself fail) leaves the ORIGINAL archive byte-for-
    byte intact — no torn central directory, no lost members.
    """
    import os as os_module

    archive = ZipArchiveTransport(tmp_path / "a.zip", create=True)
    archive.write_blob("keep-1.bin", b"one")
    archive.write_blob("keep-2.bin", b"two")
    before = (tmp_path / "a.zip").read_bytes()

    def crash(src, dst):
        raise OSError("injected: crash before archive replace")

    monkeypatch.setattr("repro.events.transport.os.replace", crash)
    with pytest.raises(TransportError):
        archive.write_blob("new.bin", b"three")  # append path
    with pytest.raises(TransportError):
        archive.write_blob("keep-1.bin", b"clobber")  # overwrite path
    with pytest.raises(TransportError):
        archive.delete_blob("keep-2.bin")
    monkeypatch.undo()

    assert (tmp_path / "a.zip").read_bytes() == before
    assert archive.read_blob("keep-1.bin") == b"one"
    assert archive.list_blobs() == ["keep-1.bin", "keep-2.bin"]
    assert os_module.path.getsize(tmp_path / "a.zip") == len(before)


def test_zip_compact_crash_mid_swap_keeps_old_store(tmp_path, monkeypatch):
    """The zip cut-over is ONE apply_batch swap: fail it and the old store
    survives untouched (stronger than the per-op ordering guarantee)."""
    ct = _sample_trace(cycles=12)
    store = shard_trace(ct, tmp_path / "t.zip", shard_events=4)
    before = (tmp_path / "t.zip").read_bytes()

    def crash(src, dst):
        raise OSError("injected: crash before archive replace")

    monkeypatch.setattr("repro.events.transport.os.replace", crash)
    with pytest.raises(TransportError):
        store.compact(shard_events=30, retention=RetentionPolicy(max_shards=1))
    monkeypatch.undo()

    assert (tmp_path / "t.zip").read_bytes() == before
    reopened = ShardedTraceStore.open(tmp_path / "t.zip")
    assert _dicts_equal(merge_shards(reopened), ct)


def test_zip_apply_batch_combines_mutations(tmp_path):
    archive = ZipArchiveTransport(tmp_path / "a.zip", create=True)
    archive.write_blob("old.bin", b"old")
    archive.write_blob("move-me.bin", b"payload")
    archive.write_blob("clobbered.bin", b"stale")
    archive.apply_batch(
        writes={"fresh.bin": b"fresh", "lazy.bin": lambda: b"lazy"},
        renames={"move-me.bin": "clobbered.bin"},
        deletes=["old.bin", "never-existed.bin"],
    )
    assert archive.list_blobs() == ["clobbered.bin", "fresh.bin", "lazy.bin"]
    assert archive.read_blob("clobbered.bin") == b"payload"
    assert archive.read_blob("lazy.bin") == b"lazy"
    with pytest.raises(TransportError, match="no blob"):
        archive.apply_batch(renames={"ghost.bin": "x.bin"})


def test_fail_next_validates_operation():
    remote = FakeObjectStoreTransport()
    with pytest.raises(ValueError):
        remote.fail_next("teleport")
    with pytest.raises(ValueError):
        remote.tear_next_write(1.5)


# --------------------------------------------------------------------- #
# Queue idioms: prefix listing, tolerant reads, claim-by-rename
# --------------------------------------------------------------------- #
def test_list_blobs_under_filters_by_prefix(transport):
    transport.write_blob("tasks/task-00000.a000", b"t0")
    transport.write_blob("tasks/task-00001.a000", b"t1")
    transport.write_blob("results/task-00000.pkl", b"r0")
    transport.write_blob("manifest.json", b"{}")
    assert list_blobs_under(transport, "tasks/") == [
        "tasks/task-00000.a000",
        "tasks/task-00001.a000",
    ]
    assert list_blobs_under(transport, "results/") == ["results/task-00000.pkl"]
    assert list_blobs_under(transport, "nothing/") == []


def test_list_blobs_under_uses_server_side_prefix_on_object_stores():
    remote = FakeObjectStoreTransport()
    remote.write_blob("tasks/a", b"x")
    remote.write_blob("other/b", b"y")
    before = remote.op_counts.get("list", 0)
    assert list_blobs_under(remote, "tasks/") == ["tasks/a"]
    # One prefix-filtered list request, not a full listing plus filtering.
    assert remote.op_counts["list"] == before + 1


def test_try_read_blob_returns_none_for_missing(transport):
    assert try_read_blob(transport, "ghost.bin") is None
    transport.write_blob("real.bin", b"data")
    assert try_read_blob(transport, "real.bin") == b"data"


def test_try_claim_blob_single_winner(transport):
    transport.write_blob("tasks/task-00000.a000", b"payload")
    assert try_claim_blob(
        transport, "tasks/task-00000.a000", "claims/task-00000.a000.w1"
    )
    assert transport.read_blob("claims/task-00000.a000.w1") == b"payload"
    # The source is gone, so the losing claimant's rename fails cleanly.
    assert not try_claim_blob(
        transport, "tasks/task-00000.a000", "claims/task-00000.a000.w2"
    )
    assert not transport.blob_exists("claims/task-00000.a000.w2")


def test_local_dir_listing_survives_concurrent_teardown(tmp_path):
    """A store directory removed mid-listing lists as empty, not a crash
    (distributed workers race their scratch queue's teardown)."""
    local = LocalDirTransport(tmp_path / "gone", create=True)
    local.write_blob("a.bin", b"x")
    shutil.rmtree(tmp_path / "gone")
    assert local.list_blobs() == []


@pytest.mark.parametrize("window", ["after-mkdir", "inside-mkdir"])
@pytest.mark.parametrize("op", ["write", "rename"])
def test_local_publish_survives_a_concurrent_prune_of_its_parent(
    tmp_path, monkeypatch, op, window
):
    """Another writer's ``delete_blob`` prunes the directories it empties.
    When that lands while a publish makes sure of its parent, the publish
    re-creates the parent and retries instead of failing (a distributed
    worker's heartbeat lost that way left its claim without a beat until
    the lease ran out).  The prune can land after ``mkdir`` returned, so
    the write finds no directory, or inside it: ``mkdir(exist_ok=True)``
    found the directory, then checked it, found nothing and raised
    ``FileExistsError``."""
    local = LocalDirTransport(tmp_path / "q", create=True)
    local.write_blob("tasks/t0", b"payload")
    parent = tmp_path / "q" / "beats"
    real_mkdir = Path.mkdir
    pruned = []

    def mkdir(self, *args, **kwargs):
        real_mkdir(self, *args, **kwargs)
        if self == parent and not pruned:
            # The concurrent writer deletes its own (already gone) beat,
            # and the prune removes the directory we just made.
            local.delete_blob("beats/other")
            pruned.append(self)
            if window == "inside-mkdir":
                raise FileExistsError(17, "File exists", str(self))

    monkeypatch.setattr(Path, "mkdir", mkdir)
    if op == "write":
        local.write_blob("beats/b0", b"payload")
    else:
        local.rename_blob("tasks/t0", "beats/b0")
    monkeypatch.undo()
    assert pruned == [parent]
    assert local.read_blob("beats/b0") == b"payload"
    assert local.list_blobs() == (["beats/b0"] if op == "rename" else ["beats/b0", "tasks/t0"])


def test_local_rename_of_a_missing_source_still_fails(tmp_path):
    """The retry is only for a pruned parent: a rename whose source is gone
    (a lost claim race) reports the error as before."""
    local = LocalDirTransport(tmp_path / "q", create=True)
    with pytest.raises(TransportError):
        local.rename_blob("tasks/gone", "claims/gone")


# --------------------------------------------------------------------- #
# Lost-race claim semantics: the fake and real object stores must agree
# --------------------------------------------------------------------- #
def test_task_queue_second_claimer_gets_none(transport):
    """The claim contract every transport must honour identically: the
    losing claimant of a task gets ``None`` — never an exception — whether
    the rename is an atomic ``os.replace`` (local), an archive swap (zip),
    or a non-atomic copy-then-delete (fake and real object stores).  The
    fake and real S3 transports running the SAME assertion is what keeps
    their lost-race semantics from drifting."""
    from repro.core.distributed import TaskQueue

    queue = TaskQueue(transport)
    queue.publish_task(0, [2, 4])
    (pending,) = queue.pending_task_names()
    winner = queue.claim(pending, "w1")
    assert winner is not None
    assert winner.task == (2, 4)
    # The task blob is gone: the second claimant loses cleanly.
    assert queue.claim(pending, "w2") is None
    assert not transport.blob_exists(f"claims/{winner.stem}.w2")


def test_claim_lost_race_never_raises_even_when_delete_lags():
    """On object stores the rename is copy-then-delete, so a claim can die
    between the halves (copy landed, delete failed).  The claimant must
    see that as an ordinary lost race — ``False``, never an exception —
    and the task stays claimable by the next worker."""
    remote = FakeObjectStoreTransport()
    remote.write_blob("tasks/task-00000.a000", b"payload")
    remote.fail_next("delete")
    assert not try_claim_blob(remote, "tasks/task-00000.a000", "claims/a.w1")
    # The source survived the failed rename, so another claimant wins it.
    assert try_claim_blob(remote, "tasks/task-00000.a000", "claims/a.w2")
    assert remote.read_blob("claims/a.w2") == b"payload"
