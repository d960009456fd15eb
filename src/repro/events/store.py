"""Sharded trace storage: bounded-memory ingest and replay over transports.

A sharded trace store is a set of versioned columnar shard blobs plus a
JSON manifest describing the whole trace::

    trace.store/                  # LocalDirTransport (the default layout)
        manifest.json
        shard-00000.odpf
        shard-00001.odpf
        ...

Every shard is a flat ``odpf`` blob, the columnar payload of
:meth:`ColumnarTrace.to_flat_payload`: struct prefix + JSON header +
64-byte-aligned raw column buffers.  On a transport that can memory-map
its blobs (the local directory), opening a shard is O(1): the store builds
zero-copy NumPy views straight over the mapped file — no decompress, no
copy; elsewhere the blob is fetched once and viewed in place.  The
manifest records ``"format": "odpf"`` per shard, and :meth:`ShardedTraceStore.open`
refuses any other entry (such as a legacy compressed ``.npz`` shard).
A compressed archive of a whole trace is the single-file ``.npz`` that
``trace merge`` writes, not a store.

*Where* the blobs live is pluggable: the same manifest + shards layout can
sit in a local directory, inside a single zip archive (cold storage), or
in an object store — see :mod:`repro.events.transport`.  Every entry point
here accepts a path (sniffed to a transport) or a transport instance.

Two actors produce and consume a store:

* :class:`TraceWriter` is the ingest half.  The collector (or
  :func:`shard_trace`) appends events into a bounded columnar buffer; every
  time the buffer reaches ``shard_events`` events it is flushed out as one
  shard blob and reset, so recording a trace of any length needs O(shard)
  memory instead of O(trace).  ``close()`` writes the manifest — per-shard
  row counts plus the folded aggregate statistics — and returns the store.
* :class:`ShardedTraceStore` is the replay half: an
  :class:`~repro.events.protocol.EventStream` whose ``batches()`` loads one
  shard at a time, plus the ``TraceLike`` aggregate surface (``summary()``,
  ``runtime``, event counts) answered straight from the manifest without
  touching a single shard.

:meth:`ShardedTraceStore.compact` re-shards a store in place, optionally
applying a :class:`RetentionPolicy` (drop events older than a horizon,
keep only some event kinds, cap the store's shard count or byte budget)
with the same crash-safety as plain compaction: scratch staging, a single
atomic manifest publish, superseded shards removed last.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterator, Optional

import numpy as np

from repro.events.columnar import (
    DATA_OP_KIND_CODES,
    TARGET_KIND_CODES,
    ColumnarTrace,
)
from repro.events.stream import (
    DEFAULT_SHARD_EVENTS,
    StreamStats,
    merge_stream,
    slice_bounds,
)
from repro.events.transport import (
    LocalDirTransport,
    PrefixTransport,
    ShardTransport,
    open_transport,
    try_map_blob,
)

#: Version tag of the sharded-store manifest format.
STORE_FORMAT_VERSION = 1

#: Identifies a directory as a sharded trace store.
STORE_KIND = "ompdataperf-sharded-trace"

MANIFEST_NAME = "manifest.json"

#: The shard format (doubling as the shard files' extension).
SHARD_FORMAT_ODPF = "odpf"

#: Scratch namespace compaction stages rewritten shards under.
COMPACT_SCRATCH_PREFIX = ".compact.tmp"

#: Every kind name a :class:`RetentionPolicy` keep-kinds filter may use.
RETAINABLE_KINDS = tuple(k.value for k in DATA_OP_KIND_CODES) + tuple(
    k.value for k in TARGET_KIND_CODES
)


@dataclass(frozen=True)
class ShardInfo:
    """One manifest entry: where a shard lives and what it holds."""

    file: str
    num_data_op_events: int
    num_target_events: int
    end_time: float

    @property
    def num_events(self) -> int:
        return self.num_data_op_events + self.num_target_events

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "num_data_op_events": self.num_data_op_events,
            "num_target_events": self.num_target_events,
            "end_time": self.end_time,
            "format": SHARD_FORMAT_ODPF,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ShardInfo":
        file = str(d["file"])
        # Manifests older than the format field name it by the extension.
        fmt = d["format"] if "format" in d else Path(file).suffix[1:]
        if fmt != SHARD_FORMAT_ODPF:
            raise ValueError(
                f"shard {file!r} is in format {fmt!r}; only flat "
                f"{SHARD_FORMAT_ODPF!r} shards can be read"
            )
        return cls(
            file=file,
            num_data_op_events=int(d["num_data_op_events"]),
            num_target_events=int(d["num_target_events"]),
            end_time=float(d["end_time"]),
        )


@dataclass(frozen=True)
class RetentionPolicy:
    """What compaction is allowed to drop, newest data always kept first.

    All limits are optional and compose (every one that is set applies):

    * ``max_age`` — horizon in *event time*: only events whose end time is
      within ``max_age`` of the trace's final end time survive.  Applied
      per event while shards are rewritten, so a shard whose events all
      predate the horizon disappears entirely.
    * ``keep_kinds`` — event kinds (data-op and target kind names, e.g.
      ``{"to_device", "from_device", "target"}``) to retain; everything
      else is dropped.  Applied per event during the rewrite.
    * ``max_shards`` — keep at most this many of the *newest* rewritten
      shards.
    * ``max_total_bytes`` — keep the newest rewritten shards whose on-disk
      blob sizes fit the budget (at least the newest shard always
      survives a positive budget only if it fits; a budget smaller than
      every shard empties the store).

    The manifest's folded statistics are recomputed from what is actually
    kept, so every aggregate query on the compacted store matches a fresh
    scan of its surviving events.
    """

    max_age: Optional[float] = None
    max_total_bytes: Optional[int] = None
    max_shards: Optional[int] = None
    keep_kinds: Optional[frozenset[str]] = None

    def __post_init__(self) -> None:
        if self.max_age is not None and self.max_age < 0:
            raise ValueError("max_age must be non-negative")
        if self.max_total_bytes is not None and self.max_total_bytes < 0:
            raise ValueError("max_total_bytes must be non-negative")
        if self.max_shards is not None and self.max_shards < 0:
            raise ValueError("max_shards must be non-negative")
        if self.keep_kinds is not None:
            object.__setattr__(self, "keep_kinds", frozenset(self.keep_kinds))
            unknown = self.keep_kinds - set(RETAINABLE_KINDS)
            if unknown:
                raise ValueError(
                    f"unknown event kind(s) {sorted(unknown)}; "
                    f"known kinds: {', '.join(RETAINABLE_KINDS)}"
                )

    def is_null(self) -> bool:
        return (
            self.max_age is None
            and self.max_total_bytes is None
            and self.max_shards is None
            and self.keep_kinds is None
        )

    def filter_batch(self, batch: ColumnarTrace, cutoff: Optional[float]) -> ColumnarTrace:
        """Return ``batch`` with the dropped events removed (or unchanged)."""
        do_mask = np.ones(batch.num_data_op_events, dtype=bool)
        tgt_mask = np.ones(batch.num_target_events, dtype=bool)
        if cutoff is not None:
            do_mask &= batch.do_end_time >= cutoff
            tgt_mask &= batch.tgt_end_time >= cutoff
        if self.keep_kinds is not None:
            do_codes = np.array(
                [
                    code
                    for code, kind in enumerate(DATA_OP_KIND_CODES)
                    if kind.value in self.keep_kinds
                ],
                dtype=batch.do_kind.dtype if batch.num_data_op_events else np.int64,
            )
            tgt_codes = np.array(
                [
                    code
                    for code, kind in enumerate(TARGET_KIND_CODES)
                    if kind.value in self.keep_kinds
                ],
                dtype=batch.tgt_kind.dtype if batch.num_target_events else np.int64,
            )
            do_mask &= np.isin(batch.do_kind, do_codes)
            tgt_mask &= np.isin(batch.tgt_kind, tgt_codes)
        if bool(do_mask.all()) and bool(tgt_mask.all()):
            return batch
        return batch.select_rows(np.flatnonzero(do_mask), np.flatnonzero(tgt_mask))


class ShardedTraceStore:
    """A set of columnar shard blobs behaving as stream *and* summary.

    Iterating ``batches()`` yields each shard as a :class:`ColumnarTrace`
    in chronological order; every aggregate query (``summary()``,
    ``num_data_op_events``, per-kind counts, ``space_overhead_bytes``) is
    answered from the manifest alone, so inspecting a multi-gigabyte store
    costs one small manifest read — for any transport.
    """

    def __init__(self, transport: ShardTransport, manifest: dict) -> None:
        self.transport = transport
        #: Filesystem location when the transport has one (local directory
        #: or zip archive), ``None`` for purely remote transports.
        path = getattr(transport, "path", None)
        self.path: Optional[Path] = Path(path) if path is not None else None
        self._manifest = manifest
        self.num_devices: int = int(manifest["num_devices"])
        self.program_name: Optional[str] = manifest.get("program_name")
        self.total_runtime: Optional[float] = manifest.get("total_runtime")
        self.shards: list[ShardInfo] = [
            ShardInfo.from_dict(d) for d in manifest["shards"]
        ]
        self._stats = manifest["stats"]
        #: open accounting: every shard is attached as views (an mmap on
        #: capable transports), never parsed.
        self.map_seconds = 0.0
        self.map_count = 0

    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, source) -> "ShardedTraceStore":
        """Open a store from a path (directory or zip archive) or transport."""
        transport = open_transport(source)
        if not transport.blob_exists(MANIFEST_NAME):
            raise ValueError(
                f"{transport.describe()}: not a sharded trace store (no {MANIFEST_NAME})"
            )
        manifest = json.loads(transport.read_blob(MANIFEST_NAME).decode("utf-8"))
        if manifest.get("kind") != STORE_KIND:
            raise ValueError(f"{transport.describe()}: not a sharded trace store manifest")
        version = manifest.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise ValueError(
                f"{transport.describe()}: unsupported store format version {version}"
            )
        return cls(transport, manifest)

    @staticmethod
    def is_store_dir(path: str | Path) -> bool:
        return (Path(path) / MANIFEST_NAME).is_file()

    # ------------------------------------------------------------------ #
    # EventStream
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def load_batch(self, index: int) -> ColumnarTrace:
        """Attach one shard as zero-copy views — no decode.

        Random access (the targeted finding gather uses it directly).  On
        an mmap-capable transport the views sit directly over the mapped
        store file (the mapping is the batch's keepalive, unmapped when
        the last view drops); elsewhere the blob's bytes are fetched once
        and viewed in place.
        """
        started = perf_counter()
        file = self.shards[index].file
        source = f"{self.transport.describe()}:{file}"
        mapped = try_map_blob(self.transport, file)
        if mapped is not None:
            batch = ColumnarTrace.from_shared(mapped, keepalive=mapped, source=source)
        else:
            data = self.transport.read_blob(file)
            batch = ColumnarTrace.from_shared(
                memoryview(data), keepalive=data, source=source
            )
        self.map_seconds += perf_counter() - started
        self.map_count += 1
        # The manifest is authoritative for trace-level metadata: a shard
        # written early in a run may predate later device initialisations.
        batch.num_devices = self.num_devices
        batch.program_name = self.program_name
        return batch

    def batch_row_counts(self) -> list[tuple[int, int]]:
        return [(s.num_data_op_events, s.num_target_events) for s in self.shards]

    def batches(self) -> Iterator[ColumnarTrace]:
        for index in range(len(self.shards)):
            yield self.load_batch(index)

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    def compact(
        self,
        *,
        shard_events: int = DEFAULT_SHARD_EVENTS,
        retention: Optional[RetentionPolicy] = None,
    ) -> "ShardedTraceStore":
        """Re-shard the store in place, optionally applying retention.

        Consecutive small shards coalesce (and oversized ones split) into
        uniform shards of the target size, empty shards are dropped, and
        the manifest is rewritten.  With a :class:`RetentionPolicy`, the
        rewrite additionally drops events past the age horizon or outside
        the keep-kinds set, then drops the *oldest* rewritten shards until
        the shard-count and byte budgets hold.  Statistics are refolded
        from exactly what is kept, so a compacted store answers the same
        aggregate queries as a fresh scan of its surviving events.

        The swap is crash-safe on every transport: new shards are staged
        under a scratch namespace, promoted into the store under
        generation-tagged names that never collide with the live ones, and
        become visible through one atomic manifest publish — at every
        instant the live manifest references only complete shards.  The
        superseded shards are removed last (a crash can leave orphaned
        shard or scratch blobs, never a manifest pointing at missing
        ones); a failed compaction leaves same-transport scratch blobs in
        place for inspection, and the next compaction clears them.

        Transports with a bulk mutation (:meth:`ZipArchiveTransport.
        apply_batch`, where every single operation costs a full-archive
        pass) stage in a local temp directory instead and take the whole
        cut-over — promotions, manifest publish, old-shard removal — in
        ONE atomic swap.
        """
        retention = retention or RetentionPolicy()
        cutoff: Optional[float] = None
        if retention.max_age is not None:
            cutoff = self.end_time - retention.max_age

        apply_batch = getattr(self.transport, "apply_batch", None)
        staging_dir: Optional[str] = None
        if apply_batch is not None:
            # Per-blob mutations are whole-archive passes on this
            # transport: stage on the local filesystem and swap once.
            staging_dir = tempfile.mkdtemp(prefix="ompdataperf-compact-")
            scratch: ShardTransport = LocalDirTransport(
                Path(staging_dir) / "scratch", create=True
            )
        else:
            scratch = PrefixTransport(self.transport, COMPACT_SCRATCH_PREFIX)
            scratch.clear()  # stale staging from an earlier failed compaction
        old_files = [shard.file for shard in self.shards]

        try:
            return self._compact_into(
                scratch,
                old_files,
                shard_events=shard_events,
                retention=retention,
                cutoff=cutoff,
                apply_batch=apply_batch,
            )
        finally:
            if staging_dir is not None:
                shutil.rmtree(staging_dir, ignore_errors=True)

    def _compact_into(
        self,
        scratch,
        old_files: list[str],
        *,
        shard_events: int,
        retention: "RetentionPolicy",
        cutoff: Optional[float],
        apply_batch,
    ) -> "ShardedTraceStore":
        writer = TraceWriter(
            scratch,
            shard_events=shard_events,
            num_devices=self.num_devices,
            program_name=self.program_name,
        )
        for batch in self.batches():
            writer.write_batch(retention.filter_batch(batch, cutoff))
        staged = writer.close(total_runtime=self.total_runtime)

        # Shard-count and byte budgets: keep the newest staged suffix.
        kept_lo = 0
        if retention.max_shards is not None:
            kept_lo = max(kept_lo, len(staged.shards) - retention.max_shards)
        if retention.max_total_bytes is not None:
            budget = retention.max_total_bytes
            lo = len(staged.shards)
            for shard in reversed(staged.shards[kept_lo:]):
                budget -= scratch.blob_size(shard.file)
                if budget < 0:
                    break
                lo -= 1
            kept_lo = max(kept_lo, lo)
        kept = staged.shards[kept_lo:]
        for shard in staged.shards[:kept_lo]:
            scratch.delete_blob(shard.file)

        if kept_lo > 0:
            stats = StreamStats()
            for shard_stats in writer.shard_stats[kept_lo:]:
                stats.merge(shard_stats)
        else:
            stats = writer.stats

        # Promote the staged shards under names no live shard uses
        # (repeated compactions bump the generation tag).
        generation = 0
        while any(
            self.transport.blob_exists(f"shard-g{generation}-{i:05d}.{SHARD_FORMAT_ODPF}")
            for i in range(len(kept))
        ):
            generation += 1
        promotions: list[tuple[str, str]] = []  # (scratch file, live name)
        renamed: list[ShardInfo] = []
        for i, shard in enumerate(kept):
            name = f"shard-g{generation}-{i:05d}.{SHARD_FORMAT_ODPF}"
            promotions.append((shard.file, name))
            renamed.append(
                ShardInfo(
                    file=name,
                    num_data_op_events=shard.num_data_op_events,
                    num_target_events=shard.num_target_events,
                    end_time=shard.end_time,
                )
            )

        manifest = _build_manifest(
            num_devices=self.num_devices,
            program_name=self.program_name,
            total_runtime=self.total_runtime,
            shards=renamed,
            stats=stats,
        )
        manifest_blob = (json.dumps(manifest, indent=2) + "\n").encode("utf-8")

        if apply_batch is not None:
            # The staged shards live in the local scratch directory; the
            # cut-over writes them in lazily (one blob in memory at a
            # time), publishes the manifest, removes the old shards and
            # any stale same-transport scratch from older failed runs —
            # all in ONE atomic swap.
            stale_scratch = [
                name
                for name in self.transport.list_blobs()
                if name.startswith(COMPACT_SCRATCH_PREFIX + "/")
            ]
            writes: dict = {MANIFEST_NAME: manifest_blob}
            for src, dst in promotions:
                writes[dst] = (lambda file=src: scratch.read_blob(file))
            apply_batch(writes=writes, deletes=old_files + stale_scratch)
        else:
            # Same-transport staging: promote with per-blob renames …
            for src, dst in promotions:
                self.transport.rename_blob(f"{COMPACT_SCRATCH_PREFIX}/{src}", dst)
            # … then the atomic cut-over: one manifest publish flips the
            # store to the new shard set (write_blob is an atomic replace
            # on every transport).
            self.transport.write_blob(MANIFEST_NAME, manifest_blob)
            # Old shards and scratch leftovers go last: a crash before
            # this point orphans blobs, never dangles a manifest reference.
            for file in old_files:
                self.transport.delete_blob(file)
            scratch.clear()
        return ShardedTraceStore.open(self.transport)

    # ------------------------------------------------------------------ #
    # TraceLike aggregate surface (manifest only)
    # ------------------------------------------------------------------ #
    @property
    def host_device_num(self) -> int:
        return self.num_devices

    @property
    def num_data_op_events(self) -> int:
        return int(self._stats["num_data_op_events"])

    @property
    def num_target_events(self) -> int:
        return int(self._stats["num_target_events"])

    @property
    def end_time(self) -> float:
        return float(self._stats["end_time"])

    @property
    def runtime(self) -> float:
        if self.total_runtime is not None:
            return self.total_runtime
        return self.end_time

    def __len__(self) -> int:
        return self.num_data_op_events + self.num_target_events

    def is_empty(self) -> bool:
        return len(self) == 0

    def space_overhead_bytes(self) -> int:
        from repro.events.records import DATA_OP_EVENT_BYTES, TARGET_EVENT_BYTES

        return (
            DATA_OP_EVENT_BYTES * self.num_data_op_events
            + TARGET_EVENT_BYTES * self.num_target_events
        )

    def data_op_kind_counts(self) -> dict[str, int]:
        """Events per data-op kind, from the manifest."""
        return dict(self._stats["data_op_kind_counts"])

    def target_kind_counts(self) -> dict[str, int]:
        """Events per target kind, from the manifest."""
        return dict(self._stats["target_kind_counts"])

    def on_disk_bytes(self) -> int:
        """Total stored size of the store (shards + manifest)."""
        total = self.transport.blob_size(MANIFEST_NAME)
        for shard in self.shards:
            total += self.transport.blob_size(shard.file)
        return total

    def summary(self) -> dict:
        stats = self._stats
        return {
            "program_name": self.program_name,
            "num_devices": self.num_devices,
            "num_target_events": stats["num_target_events"],
            "num_kernel_events": stats["num_kernel_events"],
            "num_data_op_events": stats["num_data_op_events"],
            "num_transfers": stats["num_transfers"],
            "num_allocations": stats["num_allocations"],
            "bytes_transferred": stats["bytes_transferred"],
            "transfer_time": stats["transfer_time"],
            "alloc_time": stats["alloc_time"],
            "kernel_time": stats["kernel_time"],
            "runtime": self.runtime,
            "space_overhead_bytes": self.space_overhead_bytes(),
        }

    # ------------------------------------------------------------------ #
    # Materialisation (the expensive path, for small stores)
    # ------------------------------------------------------------------ #
    def load(self) -> ColumnarTrace:
        """Merge every shard into one in-memory columnar trace."""
        return merge_stream(self)

    @property
    def data_op_events(self):
        return self.load().data_op_events

    @property
    def target_events(self):
        return self.load().target_events


def _build_manifest(
    *,
    num_devices: int,
    program_name: Optional[str],
    total_runtime: Optional[float],
    shards: list[ShardInfo],
    stats: StreamStats,
) -> dict:
    return {
        "kind": STORE_KIND,
        "format_version": STORE_FORMAT_VERSION,
        "num_devices": num_devices,
        "program_name": program_name,
        "total_runtime": total_runtime,
        "shards": [s.to_dict() for s in shards],
        "stats": {
            "num_data_op_events": stats.num_data_op_events,
            "num_target_events": stats.num_target_events,
            "num_kernel_events": stats.num_kernel_events,
            "num_transfers": stats.num_transfers,
            "num_allocations": stats.num_allocations,
            "bytes_transferred": stats.bytes_transferred,
            "transfer_time": stats.transfer_time,
            "alloc_time": stats.alloc_time,
            "kernel_time": stats.kernel_time,
            "end_time": stats.end_time,
            "data_op_kind_counts": stats.data_op_kind_counts,
            "target_kind_counts": stats.target_kind_counts,
        },
    }


class TraceWriter:
    """Bounded-memory trace ingest: buffer, flush shards, write manifest.

    The writer exposes the same ``append_data_op`` / ``append_target``
    surface as :class:`ColumnarTrace`, so the collector can use either as
    its sink.  Whenever the buffer reaches ``shard_events`` events it is
    written out as one shard and reset — ingest memory is O(shard_events)
    no matter how long the monitored program runs.  The destination is a
    path (local directory, or ``*.zip`` for a single-file archive) or any
    :class:`~repro.events.transport.ShardTransport`.
    """

    def __init__(
        self,
        destination,
        *,
        shard_events: int = DEFAULT_SHARD_EVENTS,
        num_devices: int = 1,
        program_name: Optional[str] = None,
    ) -> None:
        if shard_events < 1:
            raise ValueError("shard_events must be at least 1")
        self.transport = open_transport(destination, create=True)
        if self.transport.list_blobs():
            raise ValueError(
                f"{self.transport.describe()}: refusing to write into a "
                f"non-empty store location"
            )
        path = getattr(self.transport, "path", None)
        self.path: Optional[Path] = Path(path) if path is not None else None
        self.shard_events = shard_events
        self.num_devices = num_devices
        self.program_name = program_name
        self.shards: list[ShardInfo] = []
        self.stats = StreamStats()
        #: per-shard folded statistics, aligned with ``shards`` (what lets
        #: retention-aware compaction re-derive the aggregate of any suffix)
        self.shard_stats: list[StreamStats] = []
        self.closed = False
        self._buffer = self._fresh_buffer()

    def _fresh_buffer(self) -> ColumnarTrace:
        return ColumnarTrace(num_devices=self.num_devices, program_name=self.program_name)

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self.closed:
            self.close()

    @property
    def buffered_events(self) -> int:
        return len(self._buffer)

    def _check_open(self) -> None:
        if self.closed:
            raise ValueError("writer is closed")

    # The two appends are the collector's per-event path: the buffer only
    # queues the row (its rows settle into columns when it is flushed), and
    # positional arguments pass through without building a keyword dict.
    def append_data_op(self, *args, **kwargs) -> None:
        if self.closed:
            raise ValueError("writer is closed")
        buffer = self._buffer
        buffer.append_data_op(*args, **kwargs)
        if len(buffer) >= self.shard_events:
            self.flush()

    def append_target(self, *args, **kwargs) -> None:
        if self.closed:
            raise ValueError("writer is closed")
        buffer = self._buffer
        buffer.append_target(*args, **kwargs)
        if len(buffer) >= self.shard_events:
            self.flush()

    def write_batch(self, batch: ColumnarTrace) -> None:
        """Ingest a whole columnar batch.

        The batch is appended to the buffer and complete shards are cut
        from the front, so consecutive small batches coalesce into
        full-size shards — re-sharding a finely sharded store to a larger
        ``shard_events`` genuinely merges its shards.
        """
        self._check_open()
        self._buffer.extend_from(batch)
        if len(self._buffer) < self.shard_events:
            return
        bounds = slice_bounds(self._buffer, self.shard_events)
        remainder: Optional[ColumnarTrace] = None
        for do_lo, do_hi, tgt_lo, tgt_hi in bounds:
            piece = self._buffer.slice_rows(do_lo, do_hi, tgt_lo, tgt_hi)
            if len(piece) < self.shard_events:
                remainder = piece
                break
            self._write_shard(piece)
        self._buffer = remainder if remainder is not None else self._fresh_buffer()

    def flush(self) -> None:
        """Write the buffered events as one shard and reset the buffer."""
        self._check_open()
        if self._buffer.is_empty():
            return
        self._write_shard(self._buffer)
        self._buffer = self._fresh_buffer()

    def _write_shard(self, shard: ColumnarTrace) -> None:
        name = f"shard-{len(self.shards):05d}.{SHARD_FORMAT_ODPF}"
        shard.num_devices = self.num_devices
        shard.program_name = self.program_name
        shard.total_runtime = None  # a shard has no runtime of its own
        self.transport.write_blob(name, shard.to_flat_payload())
        shard_stats = StreamStats()
        shard_stats.fold(shard)
        self.stats.merge(shard_stats)
        self.shard_stats.append(shard_stats)
        self.shards.append(
            ShardInfo(
                file=name,
                num_data_op_events=shard.num_data_op_events,
                num_target_events=shard.num_target_events,
                end_time=shard.end_time,
            )
        )

    def close(
        self,
        *,
        num_devices: Optional[int] = None,
        program_name: Optional[str] = None,
        total_runtime: Optional[float] = None,
    ) -> ShardedTraceStore:
        """Flush the remainder, write the manifest, return the opened store."""
        self._check_open()
        if num_devices is not None:
            self.num_devices = num_devices
        if program_name is not None:
            self.program_name = program_name
        self.flush()
        self.closed = True
        manifest = _build_manifest(
            num_devices=self.num_devices,
            program_name=self.program_name,
            total_runtime=total_runtime,
            shards=self.shards,
            stats=self.stats,
        )
        self.transport.write_blob(
            MANIFEST_NAME, (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
        )
        return ShardedTraceStore.open(self.transport)


def shard_trace(
    trace,
    destination,
    *,
    shard_events: int = DEFAULT_SHARD_EVENTS,
) -> ShardedTraceStore:
    """Write any trace representation (or stream) out as a sharded store.

    ``destination`` is a directory path, a ``*.zip`` archive path, or a
    :class:`~repro.events.transport.ShardTransport`.
    """
    from repro.events.stream import as_event_stream

    stream = as_event_stream(trace)
    writer = TraceWriter(
        destination,
        shard_events=shard_events,
        num_devices=stream.num_devices,
        program_name=stream.program_name,
    )
    for batch in stream.batches():
        writer.write_batch(batch)
    return writer.close(total_runtime=stream.total_runtime)


def merge_shards(store: ShardedTraceStore) -> ColumnarTrace:
    """Merge a sharded store back into one in-memory columnar trace."""
    return merge_stream(store)
