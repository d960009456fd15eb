"""The storage backends behind :func:`load_trace`.

Each on-disk trace format is one ``(name, sniff, load)`` row of
``_BACKENDS``: a sniffer deciding whether a path is in that format and a
loader producing the corresponding in-memory representation.
``load_trace`` tries the rows in order, most specific first —

====================  ==========================  ==========================
backend               sniff                       loads as
====================  ==========================  ==========================
``sharded``           directory with a manifest   ``ShardedTraceStore``
``sharded-zip``       zip archive holding a       ``ShardedTraceStore`` (over
                      store manifest member       a ``ZipArchiveTransport``)
``flat-columnar``     file with the ``ODPF``      ``ColumnarTrace`` (zero-copy
                      magic (a flat payload)      views over an mmap)
``columnar-binary``   any other zip archive       ``ColumnarTrace``
                      (``PK`` magic)
``json``              anything else               ``Trace``
====================  ==========================  ==========================
"""

from __future__ import annotations

from pathlib import Path


def load_trace(path: str | Path):
    """Load a trace from disk with whichever backend recognises the path."""
    if isinstance(path, str) and path.startswith("s3://"):
        # Remote stores skip path sniffing: an s3 location is always a
        # sharded store (the only layout the transports publish).
        from repro.events.store import ShardedTraceStore
        from repro.events.transport import open_transport

        return ShardedTraceStore.open(open_transport(path))
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{path}: no such trace")
    for _name, sniff, load in _BACKENDS:
        if sniff(path):
            return load(path)
    raise ValueError(f"{path}: no trace backend recognises this path")


# --------------------------------------------------------------------- #
# Backends
# --------------------------------------------------------------------- #
def _sniff_sharded(path: Path) -> bool:
    from repro.events.store import ShardedTraceStore

    return path.is_dir() and ShardedTraceStore.is_store_dir(path)


def _load_sharded(path: Path):
    from repro.events.store import ShardedTraceStore

    return ShardedTraceStore.open(path)


def _sniff_sharded_zip(path: Path) -> bool:
    # A zip-archived store is also a zip archive, so this must sniff
    # before ``columnar-binary``: only a store carries a manifest member.
    from repro.events.transport import zip_contains_manifest

    return zip_contains_manifest(path)


def _load_sharded_zip(path: Path):
    from repro.events.store import ShardedTraceStore
    from repro.events.transport import ZipArchiveTransport

    return ShardedTraceStore.open(ZipArchiveTransport(path))


def _sniff_flat_columnar(path: Path) -> bool:
    from repro.events.columnar import FLAT_MAGIC

    if not path.is_file():
        return False
    with path.open("rb") as fh:
        return fh.read(len(FLAT_MAGIC)) == FLAT_MAGIC


def _load_flat_columnar(path: Path):
    from repro.events.columnar import ColumnarTrace

    return ColumnarTrace.load_flat(path)


def _sniff_columnar_binary(path: Path) -> bool:
    if not path.is_file():
        return False
    with path.open("rb") as fh:
        return fh.read(2) == b"PK"


def _load_columnar_binary(path: Path):
    from repro.events.columnar import ColumnarTrace

    return ColumnarTrace.load_binary(path)


def _sniff_json(path: Path) -> bool:
    return path.is_file()


def _load_json(path: Path):
    from repro.events.trace import Trace

    return Trace.load(path)


_BACKENDS = (
    ("sharded", _sniff_sharded, _load_sharded),
    ("sharded-zip", _sniff_sharded_zip, _load_sharded_zip),
    ("flat-columnar", _sniff_flat_columnar, _load_flat_columnar),
    ("columnar-binary", _sniff_columnar_binary, _load_columnar_binary),
    ("json", _sniff_json, _load_json),
)
