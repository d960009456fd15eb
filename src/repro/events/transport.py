"""Pluggable shard transports: where a sharded trace store physically lives.

A :class:`~repro.events.store.ShardedTraceStore` is logically a manifest
plus a set of named shard blobs.  *Where* those blobs live — a local
directory, a single zip archive, an object store — is this module's job,
behind one small :class:`ShardTransport` protocol:

====================================  =========================================
transport                             backing storage
====================================  =========================================
:class:`LocalDirTransport`            a directory of files (the historical and
                                      default layout; renames and manifest
                                      publishes are atomic ``os.replace``)
:class:`ZipArchiveTransport`          one ``.zip`` archive — single-file cold
                                      storage; every mutation stages a temp
                                      archive + atomic replace, and
                                      ``apply_batch`` folds any number of
                                      mutations into one streamed swap
:class:`FakeObjectStoreTransport`     an in-memory dict with S3-like
                                      get/put/list/delete semantics, plus
                                      latency and fault injection for tests
``S3ObjectStoreTransport``            a real S3-compatible bucket (boto3) —
                                      see :mod:`repro.events.transport_s3`;
                                      selected by ``s3://bucket/prefix``
                                      specs anywhere a store path is accepted
====================================  =========================================

Blob names are relative POSIX-style paths (``manifest.json``,
``shard-00000.odpf``, ``.compact.tmp/shard-00001.odpf``).  The contract every
transport honours:

* ``write_blob`` is an **atomic publish**: a concurrent (or post-crash)
  reader sees either the previous content or the new content in full,
  never a torn prefix.  The fake object store models S3's whole-object
  puts the same way — and its fault injection can violate the contract on
  purpose (:meth:`FakeObjectStoreTransport.tear_next_write`) to test that
  the store's crash-safety does not silently depend on it for *shard*
  blobs.
* ``rename_blob`` moves a complete blob; on the local transport it is an
  atomic ``os.replace``, on the object store it is S3's non-atomic
  copy-then-delete (each half atomic per blob).
* ``delete_blob`` is idempotent (missing blobs are not an error).
* ``spec()`` returns a small picklable description from which
  :func:`transport_from_spec` rebuilds an equivalent transport — how the
  process execution engine ships "open this store" to its workers without
  assuming a local path.

:func:`open_transport` sniffs a path (directory vs ``.zip`` archive) or
passes an existing transport through, so every store entry point accepts
either.
"""

from __future__ import annotations

import functools
import os
import shutil
import time
import zipfile
from pathlib import Path, PurePosixPath
from typing import Optional, Protocol, runtime_checkable


class TransportError(OSError):
    """A shard blob could not be read, written, listed or deleted."""


@runtime_checkable
class ShardTransport(Protocol):
    """Storage for one store's named blobs (shards + manifest)."""

    def list_blobs(self) -> list[str]:
        """All blob names, sorted."""
        ...

    def read_blob(self, name: str) -> bytes:
        """Return a blob's full content (:class:`TransportError` if missing)."""
        ...

    def write_blob(self, name: str, data: bytes) -> None:
        """Create or replace a blob atomically (old or new, never torn)."""
        ...

    def delete_blob(self, name: str) -> None:
        """Remove a blob; missing blobs are ignored."""
        ...

    def rename_blob(self, src: str, dst: str) -> None:
        """Move a blob to a new name, replacing any existing ``dst``."""
        ...

    def blob_exists(self, name: str) -> bool:
        ...

    def blob_size(self, name: str) -> int:
        """Size of a blob in bytes (:class:`TransportError` if missing)."""
        ...

    def spec(self) -> dict:
        """A picklable description :func:`transport_from_spec` can rebuild."""
        ...

    def describe(self) -> str:
        """Human-readable location for error messages."""
        ...


#: Distinct blob names whose check (and local path) is remembered: a scan
#: resolves the same shard names every time it runs.
_NAME_CACHE = 4096


@functools.lru_cache(maxsize=_NAME_CACHE)
def _check_blob_name(name: str) -> str:
    """Reject absolute or escaping names; normalise to POSIX separators.

    Memoised: a rejected name raises on every call (a raise is never
    cached)."""
    pure = PurePosixPath(name)
    if pure.is_absolute() or ".." in pure.parts or not pure.parts:
        raise ValueError(f"invalid blob name {name!r}")
    return str(pure)


# --------------------------------------------------------------------- #
# Local directory
# --------------------------------------------------------------------- #
#: Attempts of a local write or rename whose parent directory a concurrent
#: delete keeps pruning, before the error is reported.
_PARENT_RETRIES = 8


@functools.lru_cache(maxsize=_NAME_CACHE)
def _blob_path(root: Path, name: str) -> Path:
    """The file of blob ``name`` under ``root`` (memoised, checked name)."""
    return root / _check_blob_name(name)


class LocalDirTransport:
    """Blobs as files under one directory — the historical store layout."""

    kind = "local"

    def __init__(self, path: str | Path, *, create: bool = False) -> None:
        self.path = Path(path)
        if create:
            if self.path.exists() and not self.path.is_dir():
                raise ValueError(f"{self.path}: exists and is not a directory")
            self.path.mkdir(parents=True, exist_ok=True)

    def _resolve(self, name: str) -> Path:
        return _blob_path(self.path, name)

    def list_blobs(self) -> list[str]:
        if not self.path.is_dir():
            return []
        try:
            return sorted(
                p.relative_to(self.path).as_posix()
                for p in self.path.rglob("*")
                if p.is_file()
            )
        except OSError:
            # The directory vanished mid-walk (a concurrent teardown —
            # e.g. a distributed worker outpolling its scratch queue's
            # removal); a gone store lists as empty, same as above.
            return []

    def read_blob(self, name: str) -> bytes:
        try:
            return self._resolve(name).read_bytes()
        except OSError as exc:
            raise TransportError(f"{self.describe()}: cannot read blob {name!r}: {exc}") from exc

    def map_blob(self, name: str):
        """Memory-map a blob read-only (zero-copy sibling of :meth:`read_blob`).

        Returns an ``mmap.mmap`` the caller owns (and must keep alive as
        long as any view into it).  Only the local-directory transport can
        offer this; callers probe with :func:`try_map_blob` and fall back
        to :meth:`read_blob` elsewhere.
        """
        import mmap

        try:
            with open(self._resolve(name), "rb") as handle:
                return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            # ValueError: zero-length files cannot be mapped.
            raise TransportError(f"{self.describe()}: cannot map blob {name!r}: {exc}") from exc

    def _into_parent(self, target: Path, publish) -> None:
        """Run ``publish()``, which creates ``target``, with its parent
        directory in place.

        Another writer's :meth:`delete_blob` may prune the parent (it
        removes directories it leaves empty) at two points, and both
        re-create it and retry:

        * inside our ``mkdir``, after it found the directory and before it
          checked what it found, which raises ``FileExistsError``;
        * between the ``mkdir`` and the write, which raises
          ``FileNotFoundError`` with the parent gone.  One that leaves the
          parent in place is the caller's to report (a rename whose
          source is gone).
        """
        for attempt in range(_PARENT_RETRIES):
            last = attempt == _PARENT_RETRIES - 1
            try:
                target.parent.mkdir(parents=True, exist_ok=True)
            except FileExistsError:
                if last:
                    raise
                continue
            try:
                publish()
                return
            except FileNotFoundError:
                if last or target.parent.is_dir():
                    raise

    def write_blob(self, name: str, data: bytes) -> None:
        target = self._resolve(name)
        # Stage next to the target and publish with one atomic replace, so a
        # crash mid-write can never leave a torn blob under the final name.
        staged = target.with_name(target.name + f".tmp-{os.getpid()}")

        def publish() -> None:
            staged.write_bytes(data)
            os.replace(staged, target)

        try:
            self._into_parent(target, publish)
        except OSError as exc:
            staged.unlink(missing_ok=True)
            raise TransportError(f"{self.describe()}: cannot write blob {name!r}: {exc}") from exc

    def _prune_empty_dirs(self, start: Path) -> None:
        # Nested blob names (the compaction scratch prefix) map to real
        # subdirectories; removing the last blob removes the namespace.
        current = start
        while current != self.path and current.is_dir():
            try:
                current.rmdir()
            except OSError:
                return
            current = current.parent

    def delete_blob(self, name: str) -> None:
        target = self._resolve(name)
        target.unlink(missing_ok=True)
        self._prune_empty_dirs(target.parent)

    def rename_blob(self, src: str, dst: str) -> None:
        source, target = self._resolve(src), self._resolve(dst)
        try:
            self._into_parent(target, lambda: os.replace(source, target))
        except OSError as exc:
            raise TransportError(
                f"{self.describe()}: cannot rename blob {src!r} -> {dst!r}: {exc}"
            ) from exc
        self._prune_empty_dirs(source.parent)

    def blob_exists(self, name: str) -> bool:
        return self._resolve(name).is_file()

    def blob_size(self, name: str) -> int:
        try:
            return self._resolve(name).stat().st_size
        except OSError as exc:
            raise TransportError(f"{self.describe()}: cannot stat blob {name!r}: {exc}") from exc

    def spec(self) -> dict:
        return {"kind": self.kind, "path": str(self.path)}

    def describe(self) -> str:
        return str(self.path)


# --------------------------------------------------------------------- #
# Single-file zip archive (cold storage)
# --------------------------------------------------------------------- #
class ZipArchiveTransport:
    """Blobs as members of one zip archive — single-file cold storage.

    Reads open the archive per operation (no shared handle, so instances
    stay picklable and concurrent readers never contend).  **Every
    mutation is atomic**: a new blob is appended to a temp *copy* of the
    archive which then replaces the original in one ``os.replace``;
    overwrite, delete and rename stream the surviving members into a
    fresh temp archive and replace likewise — a crash at any instant
    leaves either the old archive or the new one, never a torn central
    directory.  Single mutations therefore cost O(archive); bulk callers
    (compaction) use :meth:`apply_batch` to fold any number of writes,
    renames and deletes into ONE streamed rewrite and one atomic swap.
    The right trade-offs for an archival format that is written once and
    read many times.  Shard payloads are aligned flat buffers that are
    viewed in place, so members are stored uncompressed.
    """

    kind = "zip"

    def __init__(self, path: str | Path, *, create: bool = False) -> None:
        self.path = Path(path)
        if create and not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with zipfile.ZipFile(self.path, "w"):
                pass
        if not self.path.is_file():
            raise TransportError(f"{self.path}: no such archive")

    @staticmethod
    def is_archive(path: str | Path) -> bool:
        """True when ``path`` is a zip file (any zip, not only stores)."""
        path = Path(path)
        if not path.is_file():
            return False
        with path.open("rb") as fh:
            return fh.read(2) == b"PK"

    def _names(self, zf: zipfile.ZipFile) -> list[str]:
        # A replacement member can leave a stale entry in the archive
        # body; readers resolve a name to its LAST entry, so dedupe.
        return sorted(set(zf.namelist()))

    def _staged(self) -> Path:
        return self.path.with_name(self.path.name + f".tmp-{os.getpid()}")

    def list_blobs(self) -> list[str]:
        with zipfile.ZipFile(self.path) as zf:
            return self._names(zf)

    def read_blob(self, name: str) -> bytes:
        name = _check_blob_name(name)
        try:
            with zipfile.ZipFile(self.path) as zf:
                return zf.read(name)
        except KeyError as exc:
            raise TransportError(f"{self.describe()}: no blob {name!r}") from exc
        except (OSError, zipfile.BadZipFile) as exc:
            raise TransportError(f"{self.describe()}: cannot read blob {name!r}: {exc}") from exc

    def apply_batch(
        self,
        *,
        writes: Optional[dict] = None,
        renames: Optional[dict] = None,
        deletes=(),
    ) -> None:
        """Apply writes + renames + deletes in ONE atomic archive swap.

        Surviving members stream one at a time from the old archive into
        a temp archive (O(member) memory, one pass of I/O regardless of
        how many mutations), which then replaces the original
        atomically.  A write value may be ``bytes`` or a zero-argument
        callable returning bytes — callables are invoked one at a time
        during the swap, so a bulk caller (compaction promoting staged
        shards) never holds more than one blob in memory.  Deletes of
        missing members are ignored; renames of missing members raise;
        writes override renamed-over names.
        """
        writes = {
            _check_blob_name(name): data for name, data in (writes or {}).items()
        }
        renames = {
            _check_blob_name(src): _check_blob_name(dst)
            for src, dst in (renames or {}).items()
        }
        deletes = {_check_blob_name(name) for name in deletes}
        staged = self._staged()
        try:
            with zipfile.ZipFile(self.path) as src_zf:
                names = self._names(src_zf)
                missing = set(renames) - set(names)
                if missing:
                    raise TransportError(
                        f"{self.describe()}: no blob {sorted(missing)[0]!r}"
                    )
                rename_targets = set(renames.values())
                with zipfile.ZipFile(
                    staged, "w", compression=zipfile.ZIP_STORED
                ) as dst_zf:
                    for name in names:
                        if name in deletes or name in writes:
                            continue
                        target = renames.get(name, name)
                        if name not in renames and name in rename_targets:
                            continue  # replaced by a renamed-in member
                        if target in writes:
                            continue
                        dst_zf.writestr(target, src_zf.read(name))
                    for name, data in writes.items():
                        dst_zf.writestr(name, data() if callable(data) else data)
            os.replace(staged, self.path)
        except (OSError, zipfile.BadZipFile) as exc:
            staged.unlink(missing_ok=True)
            raise TransportError(f"{self.describe()}: cannot rewrite archive: {exc}") from exc
        finally:
            staged.unlink(missing_ok=True)

    def write_blob(self, name: str, data: bytes) -> None:
        name = _check_blob_name(name)
        if self.blob_exists(name):
            self.apply_batch(writes={name: data})
            return
        # Appending inside the live archive would overwrite its central
        # directory in place (a crash mid-append corrupts EVERY member),
        # so append to a temp copy and swap it in atomically instead.
        staged = self._staged()
        try:
            shutil.copyfile(self.path, staged)
            with zipfile.ZipFile(staged, "a", compression=zipfile.ZIP_STORED) as zf:
                zf.writestr(name, data)
            os.replace(staged, self.path)
        except OSError as exc:
            raise TransportError(f"{self.describe()}: cannot write blob {name!r}: {exc}") from exc
        finally:
            staged.unlink(missing_ok=True)

    def delete_blob(self, name: str) -> None:
        name = _check_blob_name(name)
        if not self.blob_exists(name):
            return
        self.apply_batch(deletes=[name])

    def rename_blob(self, src: str, dst: str) -> None:
        self.apply_batch(renames={src: dst})

    def blob_exists(self, name: str) -> bool:
        name = _check_blob_name(name)
        with zipfile.ZipFile(self.path) as zf:
            return name in zf.namelist()

    def blob_size(self, name: str) -> int:
        name = _check_blob_name(name)
        try:
            with zipfile.ZipFile(self.path) as zf:
                return zf.getinfo(name).file_size
        except KeyError as exc:
            raise TransportError(f"{self.describe()}: no blob {name!r}") from exc

    def spec(self) -> dict:
        return {"kind": self.kind, "path": str(self.path)}

    def describe(self) -> str:
        return str(self.path)


def zip_contains_manifest(path: str | Path) -> bool:
    """True when ``path`` is a zip archive holding a store manifest member.

    The sniffing predicate that distinguishes a zip-archived *store* from a
    binary columnar trace (also a zip): only the former carries a
    ``manifest.json`` member at its root.
    """
    from repro.events.store import MANIFEST_NAME

    if not ZipArchiveTransport.is_archive(path):
        return False
    try:
        with zipfile.ZipFile(path) as zf:
            return MANIFEST_NAME in zf.namelist()
    except (OSError, zipfile.BadZipFile):
        return False


# --------------------------------------------------------------------- #
# In-memory fake object store (tests)
# --------------------------------------------------------------------- #
class FakeObjectStoreTransport:
    """An in-memory object store with S3-like semantics, for tests.

    The primitive surface mirrors S3 — whole-object ``put_object`` /
    ``get_object``, prefix ``list_objects``, idempotent ``delete_object``,
    ``head_object`` metadata, and ``copy_object`` (so "rename" is the
    non-atomic copy-then-delete every real object store forces) — and the
    :class:`ShardTransport` methods are defined on top of those
    primitives, so a test driving the transport exercises exactly the call
    pattern a real object-store client would see.

    Test hooks:

    * ``latency`` — seconds slept on every primitive operation, to make
      request-bound access patterns (e.g. a per-shard read amplification
      bug) measurable.
    * :meth:`fail_next` — queue a :class:`TransportError` for the next
      operation(s) of one kind (``"get"``, ``"put"``, ``"list"``,
      ``"delete"``), leaving stored state untouched.
    * :meth:`tear_next_write` — make the next put commit only a prefix of
      its payload *and then* raise: a torn write, deliberately violating
      the atomic-publish contract to prove crash-safety does not depend on
      it for shard blobs.
    * ``op_counts`` — per-primitive call counters, for asserting access
      patterns (e.g. "the summary path issued zero gets").

    Instances are picklable (the whole "bucket" travels with them), which
    is what lets process-engine workers open a store backed by this
    transport: each worker receives a consistent snapshot, exactly like a
    worker hitting an immutable object-store prefix.
    """

    kind = "fake-object-store"

    def __init__(self, *, latency: float = 0.0) -> None:
        self.latency = float(latency)
        self._objects: dict[str, bytes] = {}
        self.op_counts: dict[str, int] = {}
        self._failures: dict[str, list[BaseException]] = {}
        self._tear_fraction: Optional[float] = None

    # -- S3-like primitive surface -------------------------------------- #
    def _op(self, op: str) -> None:
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        if self.latency > 0.0:
            time.sleep(self.latency)
        queued = self._failures.get(op)
        if queued:
            raise queued.pop(0)

    def put_object(self, key: str, body: bytes) -> None:
        self._op("put")
        if self._tear_fraction is not None:
            fraction, self._tear_fraction = self._tear_fraction, None
            self._objects[key] = bytes(body[: int(len(body) * fraction)])
            raise TransportError(
                f"{self.describe()}: connection lost mid-upload of {key!r}"
            )
        self._objects[key] = bytes(body)

    def get_object(self, key: str) -> bytes:
        self._op("get")
        try:
            return self._objects[key]
        except KeyError:
            raise TransportError(f"{self.describe()}: no object {key!r}") from None

    def list_objects(self, prefix: str = "") -> list[str]:
        self._op("list")
        return sorted(key for key in self._objects if key.startswith(prefix))

    def delete_object(self, key: str) -> None:
        self._op("delete")
        self._objects.pop(key, None)

    def head_object(self, key: str) -> dict:
        self._op("head")
        try:
            return {"ContentLength": len(self._objects[key])}
        except KeyError:
            raise TransportError(f"{self.describe()}: no object {key!r}") from None

    def copy_object(self, src: str, dst: str) -> None:
        self._op("copy")
        try:
            self._objects[dst] = self._objects[src]
        except KeyError:
            raise TransportError(f"{self.describe()}: no object {src!r}") from None

    # -- fault injection ------------------------------------------------- #
    def fail_next(self, op: str, exc: Optional[BaseException] = None) -> None:
        """Queue a failure for the next primitive operation of kind ``op``."""
        if op not in ("get", "put", "list", "delete", "head", "copy"):
            raise ValueError(f"unknown object-store operation {op!r}")
        self._failures.setdefault(op, []).append(
            exc if exc is not None
            else TransportError(f"{self.describe()}: injected {op} failure")
        )

    def tear_next_write(self, keep_fraction: float = 0.5) -> None:
        """Make the next put commit a torn prefix of its payload and raise."""
        if not 0.0 <= keep_fraction < 1.0:
            raise ValueError("keep_fraction must be in [0, 1)")
        self._tear_fraction = keep_fraction

    # -- ShardTransport surface ------------------------------------------ #
    def list_blobs(self) -> list[str]:
        return self.list_objects()

    def read_blob(self, name: str) -> bytes:
        return self.get_object(_check_blob_name(name))

    def write_blob(self, name: str, data: bytes) -> None:
        self.put_object(_check_blob_name(name), data)

    def delete_blob(self, name: str) -> None:
        self.delete_object(_check_blob_name(name))

    def rename_blob(self, src: str, dst: str) -> None:
        # Object stores have no rename: copy, then delete the source.
        self.copy_object(_check_blob_name(src), _check_blob_name(dst))
        self.delete_object(_check_blob_name(src))

    def blob_exists(self, name: str) -> bool:
        return _check_blob_name(name) in self._objects

    def blob_size(self, name: str) -> int:
        return int(self.head_object(_check_blob_name(name))["ContentLength"])

    def spec(self) -> dict:
        # The whole bucket travels in the spec: workers get a consistent
        # read snapshot (the analysis path never writes through it).
        return {"kind": self.kind, "transport": self}

    def describe(self) -> str:
        return "fake-object-store://"


# --------------------------------------------------------------------- #
# Prefix namespace (scratch staging)
# --------------------------------------------------------------------- #
class PrefixTransport:
    """A sub-namespace of another transport (``<prefix>/<name>`` blobs).

    Compaction stages its rewritten shards under a scratch prefix of the
    *same* transport, so staging and promotion never cross a storage
    boundary — promotion is a same-transport rename.
    """

    kind = "prefix"

    def __init__(self, inner: ShardTransport, prefix: str) -> None:
        prefix = _check_blob_name(prefix)
        self.inner = inner
        self.prefix = prefix.rstrip("/") + "/"

    def _wrap(self, name: str) -> str:
        return self.prefix + _check_blob_name(name)

    def list_blobs(self) -> list[str]:
        return sorted(
            name[len(self.prefix):]
            for name in self.inner.list_blobs()
            if name.startswith(self.prefix)
        )

    def read_blob(self, name: str) -> bytes:
        return self.inner.read_blob(self._wrap(name))

    def write_blob(self, name: str, data: bytes) -> None:
        self.inner.write_blob(self._wrap(name), data)

    def delete_blob(self, name: str) -> None:
        self.inner.delete_blob(self._wrap(name))

    def rename_blob(self, src: str, dst: str) -> None:
        self.inner.rename_blob(self._wrap(src), self._wrap(dst))

    def blob_exists(self, name: str) -> bool:
        return self.inner.blob_exists(self._wrap(name))

    def blob_size(self, name: str) -> int:
        return self.inner.blob_size(self._wrap(name))

    def clear(self) -> None:
        """Delete every blob under the prefix."""
        for name in self.list_blobs():
            self.delete_blob(name)

    def spec(self) -> dict:
        return {"kind": self.kind, "prefix": self.prefix, "inner": self.inner.spec()}

    def describe(self) -> str:
        return f"{self.inner.describe()}!{self.prefix}"


# --------------------------------------------------------------------- #
# Shared blob idioms (task queues, lease claims)
# --------------------------------------------------------------------- #
def list_blobs_under(transport: ShardTransport, prefix: str) -> list[str]:
    """All blob names starting with ``prefix``, sorted.

    Object stores answer prefix listings server-side (``list_objects``),
    so the distributed task queue's per-poll scans stay one request; every
    other transport filters its full listing.
    """
    lister = getattr(transport, "list_objects", None)
    if lister is not None:
        return sorted(lister(prefix))
    return [name for name in transport.list_blobs() if name.startswith(prefix)]


def try_read_blob(transport: ShardTransport, name: str) -> Optional[bytes]:
    """A blob's content, or ``None`` when it does not (or no longer) exists.

    Polling loops race against concurrent writers deleting or renaming
    blobs between a listing and the read; this is the read that treats
    losing such a race as an answer rather than an error.
    """
    try:
        return transport.read_blob(name)
    except TransportError:
        return None


def try_map_blob(transport: ShardTransport, name: str):
    """Memory-map a blob when the transport can, else ``None``.

    The zero-copy probe of a flat ``.odpf`` shard load: a local-directory
    transport answers with an ``mmap`` (the caller keeps it alive for as
    long as any view into it); archives and object stores answer ``None``
    and the caller reads the blob and views its bytes in place.
    """
    mapper = getattr(transport, "map_blob", None)
    if mapper is None:
        return None
    try:
        return mapper(name)
    except TransportError:
        return None


def try_claim_blob(transport: ShardTransport, src: str, dst: str) -> bool:
    """Claim ``src`` by renaming it to ``dst``; ``False`` if the race was lost.

    Renames fail when the *source* is gone, so concurrent claimants racing
    for one blob (each renaming it to its own claim name) resolve to
    exactly one winner on transports with atomic rename.  On object
    stores — where rename is copy-then-delete — two racers can briefly
    both hold a copy; claimed work must therefore be idempotent (the
    distributed engine's folds are: duplicate results are bit-identical).
    """
    try:
        transport.rename_blob(src, dst)
    except TransportError:
        return False
    return True


# --------------------------------------------------------------------- #
# Sniffing and specs
# --------------------------------------------------------------------- #
def open_transport(source, *, create: bool = False) -> ShardTransport:
    """Resolve a path (or pass a transport through) to a :class:`ShardTransport`.

    An existing directory — or, with ``create=True``, any path not ending
    in ``.zip`` — becomes a :class:`LocalDirTransport`; a zip archive (or a
    to-be-created ``*.zip`` path) a :class:`ZipArchiveTransport`; an
    ``s3://bucket/prefix`` URL an ``S3ObjectStoreTransport``.  Objects
    already implementing the protocol pass through unchanged.
    """
    if isinstance(source, ShardTransport):
        return source
    if isinstance(source, str) and source.startswith("s3://"):
        from repro.events.transport_s3 import S3ObjectStoreTransport

        return S3ObjectStoreTransport.from_url(source, create=create)
    path = Path(source)
    if path.is_dir():
        return LocalDirTransport(path)
    if path.is_file():
        if ZipArchiveTransport.is_archive(path):
            return ZipArchiveTransport(path)
        raise ValueError(f"{path}: not a store directory or zip archive")
    if not create:
        raise FileNotFoundError(f"{path}: no such store")
    if path.suffix == ".zip":
        return ZipArchiveTransport(path, create=True)
    return LocalDirTransport(path, create=True)


def transport_from_spec(spec: dict) -> ShardTransport:
    """Rebuild a transport from :meth:`ShardTransport.spec` output.

    The inverse the process execution engine uses in its workers: specs
    are small and picklable, transports need not be.
    """
    kind = spec.get("kind")
    if kind == LocalDirTransport.kind:
        return LocalDirTransport(spec["path"])
    if kind == ZipArchiveTransport.kind:
        return ZipArchiveTransport(spec["path"])
    if kind == FakeObjectStoreTransport.kind:
        return spec["transport"]
    if kind == PrefixTransport.kind:
        return PrefixTransport(transport_from_spec(spec["inner"]), spec["prefix"])
    if kind == "s3":
        from repro.events.transport_s3 import S3ObjectStoreTransport

        return S3ObjectStoreTransport.from_spec(spec)
    raise ValueError(f"unknown shard-transport spec kind {kind!r}")
