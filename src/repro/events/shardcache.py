"""Decoded-shard cache over shared memory: decode each shard blob once.

Parallel engines used to pay the ``.npz`` decode of every shard in every
worker that touched it — the single largest per-task constant in the
engine benchmarks.  A :class:`SharedShardCache` materialises each shard's
columns into the flat payload format (:meth:`ColumnarTrace.write_flat_payload`)
exactly once, in whichever process first needs the shard, and every other
process builds zero-copy NumPy views over the same physical pages with
:meth:`ColumnarTrace.from_shared`.

Two backends, picked automatically:

* ``shm`` — ``multiprocessing.shared_memory`` segments with deterministic
  names (``odp_<run>_s<index>``).  The cache *owner* (the engine that
  created the run id) unlinks every segment in :meth:`cleanup`; worker
  processes attach, keep their handles mapped for their lifetime, and a
  worker's exit never unlinks a segment other workers still map (see
  :func:`_open_segment` for how the resource tracker is kept honest).
* ``mmap`` — flat payload files under a scratch directory, published
  atomically through a :class:`~repro.events.transport.LocalDirTransport`
  and mapped read-only.  The fallback where POSIX shared memory is not
  available; the OS page cache provides the single-physical-copy property.

Ownership rules (also documented in ``docs/architecture.md``):

1. exactly one process owns a cache (the one that called the constructor
   without a spec); only the owner may :meth:`cleanup`;
2. workers receive the picklable :meth:`spec` and attach with
   :meth:`from_spec`;
3. publication is idempotent: concurrent publication of one index (two
   workers scanning the same shard) is possible, and losing such a race
   is harmless — both writers produce identical bytes;
4. any backend failure (``/dev/shm`` full, scratch dir gone) degrades the
   cache to a no-op for the affected process: correctness never depends
   on the cache, only speed;
5. the cache is skipped entirely for shards that are already flat
   ``.odpf`` payloads behind an mmap-capable transport
   (:func:`direct_map_preferred`): the store file is its own shared
   payload, so publication would only duplicate pages the OS page cache
   already shares.
"""

from __future__ import annotations

import errno
import os
import shutil
import tempfile
import uuid
from typing import Optional

from repro.events.columnar import ColumnarTrace
from repro.events.transport import LocalDirTransport, TransportError, try_map_blob

#: Shared-memory segment name prefix (kept short: macOS caps POSIX shm
#: names at 31 characters; ``odp_`` + 8 hex + ``_s`` + 5 digits = 20).
_SEGMENT_PREFIX = "odp_"

BACKENDS = ("shm", "mmap", "off")


def _shm_module():
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - platform without _posixshmem
        return None
    return shared_memory


def default_backend() -> str:
    """The best backend this platform offers."""
    return "shm" if _shm_module() is not None else "mmap"


def direct_map_preferred(transport, shard_format: str) -> bool:
    """Should loads of this shard bypass the cache and map the store blob?

    True exactly when the shard on disk already *is* a flat payload
    (``"odpf"``) and the transport can memory-map its blobs: then every
    process's views share the store file's own pages through the OS page
    cache, so publishing a second copy into ``/dev/shm`` (or a scratch
    file) buys nothing — the cache step collapses to zero.  The format
    string matches :data:`repro.events.store.SHARD_FORMAT_ODPF` (compared
    literally here to keep this module import-light).
    """
    return shard_format == "odpf" and callable(getattr(transport, "map_blob", None))


def ensure_resource_tracker() -> None:
    """Start the multiprocessing resource tracker in *this* process.

    On Python < 3.13 every ``SharedMemory`` open registers with the
    tracker, and the tracker is spawned lazily by whichever process
    registers first.  If that happens inside a forked worker, each worker
    gets a private tracker the parent's ``unlink()`` can never balance,
    and every one of them prints bogus "leaked shared_memory" warnings at
    exit.  Spawning the tracker in the pool owner *before* forking makes
    all children inherit the same tracker, whose per-name set collapses
    the duplicate registrations.  Harmless no-op on 3.13+ (``track=False``
    keeps the tracker out entirely).
    """
    if _shm_module() is None:  # pragma: no cover - platform without shm
        return
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def _open_segment(name: str, *, create: bool, size: int = 0):
    """Open a shared-memory segment with tracker-safe accounting.

    Segment lifetime belongs to the cache owner, not to whichever process
    happens to die first.  On Python 3.13+ ``track=False`` keeps the
    resource tracker out entirely.  Before 3.13 the tracker registers
    every open (create *and* attach), but all pool workers share the
    parent's tracker process and its per-name bookkeeping is a set, so
    duplicate registrations collapse and the owner's ``unlink()`` sends
    the one matching unregister — accounting stays balanced, and the
    tracker doubles as a last-resort net for an engine that is never
    closed.
    """
    shared_memory = _shm_module()
    try:
        return shared_memory.SharedMemory(name=name, create=create, size=size, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name, create=create, size=size)


class SharedShardCache:
    """Shared views of decoded shards, keyed by shard index.

    Construct with no arguments in the owning process; ship :meth:`spec`
    to workers and rebuild with :meth:`from_spec` there.
    """

    def __init__(
        self,
        *,
        backend: Optional[str] = None,
        run_id: Optional[str] = None,
        scratch_dir: Optional[str] = None,
        owner: bool = True,
    ) -> None:
        self.backend = backend or default_backend()
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown shard-cache backend {self.backend!r}")
        self.run_id = run_id or uuid.uuid4().hex[:8]
        self.owner = owner
        self._scratch_owned = False
        if self.backend == "mmap" and scratch_dir is None:
            scratch_dir = tempfile.mkdtemp(prefix="ompdataperf-shardcache-")
            self._scratch_owned = owner
        self.scratch_dir = scratch_dir
        self._scratch_transport = (
            LocalDirTransport(scratch_dir, create=owner)
            if self.backend == "mmap"
            else None
        )
        #: open segment handles / mmaps, kept alive for the process lifetime
        #: (views into them must never outlive the mapping)
        self._handles: dict[int, object] = {}
        self._broken = self.backend == "off"
        self.hits = 0
        self.publishes = 0
        self.failures = 0

    # ------------------------------------------------------------------ #
    # Worker plumbing
    # ------------------------------------------------------------------ #
    def spec(self) -> dict:
        """Picklable description a worker rebuilds the cache from."""
        return {
            "backend": self.backend,
            "run_id": self.run_id,
            "scratch_dir": self.scratch_dir,
        }

    @classmethod
    def from_spec(cls, spec: Optional[dict]) -> Optional["SharedShardCache"]:
        if spec is None:
            return None
        return cls(
            backend=spec["backend"],
            run_id=spec["run_id"],
            scratch_dir=spec.get("scratch_dir"),
            owner=False,
        )

    def _segment_name(self, index: int) -> str:
        return f"{_SEGMENT_PREFIX}{self.run_id}_s{index:05d}"

    # ------------------------------------------------------------------ #
    # Cache protocol (used by ShardedTraceStore.load_batch)
    # ------------------------------------------------------------------ #
    def attach(self, index: int) -> Optional[ColumnarTrace]:
        """A zero-copy view of shard ``index`` if already published."""
        if self._broken:
            return None
        handle = self._handles.get(index)
        if handle is None:
            handle = self._try_open(index)
            if handle is None:
                return None
            self._handles[index] = handle
        name = self._segment_name(index)
        buf = handle.buf if hasattr(handle, "buf") else handle
        try:
            trace = ColumnarTrace.from_shared(buf, keepalive=handle, source=name)
        except ValueError:
            # The segment exists but its magic is not committed yet — a
            # publisher is mid-write (write_flat_payload stamps the prefix
            # last).  Fall back to a private decode; a later attach sees
            # the committed payload through this same mapping.
            return None
        self.hits += 1
        return trace

    def publish(self, index: int, trace: ColumnarTrace) -> None:
        """Materialise ``trace`` as shard ``index``'s shared payload.

        Best-effort: failures mark the cache broken for this process and
        the caller keeps its privately decoded batch.
        """
        if self._broken or index in self._handles:
            return
        try:
            if self.backend == "shm":
                size = trace.flat_payload_size()
                try:
                    shm = _open_segment(self._segment_name(index), create=True, size=size)
                except FileExistsError:
                    # Lost a (harmless) publication race: identical bytes.
                    return
                trace.write_flat_payload(shm.buf)
                self._handles[index] = shm
            else:
                self._scratch_transport.write_blob(
                    self._blob_name(index), trace.to_flat_payload()
                )
            self.publishes += 1
        except (OSError, TransportError, ValueError):
            # /dev/shm exhausted, scratch dir gone, oversized shard … the
            # cache stops trying; every load falls back to plain decode.
            self.failures += 1
            self._broken = True

    def _blob_name(self, index: int) -> str:
        return f"{self._segment_name(index)}.flat"

    def _try_open(self, index: int):
        try:
            if self.backend == "shm":
                return _open_segment(self._segment_name(index), create=False)
            return try_map_blob(self._scratch_transport, self._blob_name(index))
        except FileNotFoundError:
            return None
        except ValueError:
            # The publisher created the segment but has not sized it yet
            # (shm_open happened, ftruncate has not): mmap of an empty
            # file.  Not published; retry on a later attach.
            return None
        except OSError as exc:  # pragma: no cover - depends on platform
            if exc.errno == errno.ENOENT:
                return None
            self.failures += 1
            self._broken = True
            return None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drop this process's handles (mappings die with the views)."""
        handles, self._handles = self._handles, {}
        for handle in handles.values():
            try:
                handle.close()
            except (BufferError, OSError):  # pragma: no cover - live views
                # NumPy views still reference the mapping; the OS reclaims
                # it when the process exits.  Unlink (below) is unaffected.
                pass

    def cleanup(self, num_shards: int) -> None:
        """Owner-only: unlink every published segment (idempotent).

        Attaches each deterministic segment name and unlinks it, so the
        owner removes segments published by *any* process — including
        workers that crashed after publishing.
        """
        if not self.owner:
            self.close()
            return
        if self.backend == "shm" and _shm_module() is not None:
            for index in range(num_shards):
                handle = self._handles.pop(index, None)
                if handle is None:
                    try:
                        handle = _open_segment(self._segment_name(index), create=False)
                    except (FileNotFoundError, OSError):
                        continue
                try:
                    handle.unlink()
                except (FileNotFoundError, OSError):  # pragma: no cover
                    pass
                try:
                    handle.close()
                except (BufferError, OSError):  # pragma: no cover - live views
                    pass
        self.close()
        if self.backend == "mmap" and self._scratch_owned and self.scratch_dir:
            shutil.rmtree(self.scratch_dir, ignore_errors=True)


def residual_segments(run_id: Optional[str] = None) -> list[str]:
    """Shared-memory segments this module published and never unlinked.

    Linux-only introspection over ``/dev/shm`` (other platforms report
    an empty list); the leak-detection tests assert this is empty after
    every engine shutdown and injected crash.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    wanted = _SEGMENT_PREFIX + (run_id or "")
    return sorted(
        name for name in os.listdir(shm_dir) if name.startswith(wanted)
    )
