"""Result blobs of the distributed engine, as allow-listed pickles.

A distributed task's payload list (finding parts plus the folded
validation guard) crosses the queue as one pickle.  ``decode_carries``
resolves only the registered classes and NumPy's array, scalar and dtype
reconstructors: any other global, a non-list top level, trailing bytes
or a malformed blob raises :class:`CarryCodecError`, and nothing outside
that set is imported or called.
"""

from __future__ import annotations

import functools
import io
import pickle
from typing import Any, Sequence

import numpy as np


class CarryCodecError(ValueError):
    """Raised for malformed or unsupported carry payloads."""


@functools.lru_cache(maxsize=None)
def _allowed() -> dict[tuple[str, str], Any]:
    # Imported lazily: detector modules may be loading while this one does.
    from repro.core.detectors import _streaming, duplicates, repeated_allocs, roundtrips
    from repro.core.detectors import table, unused_allocs, unused_transfers
    from repro.events import validation

    classes = {
        _streaming: "GrowArray CompositeKeyCounter ColumnBuffer DeviceKernels StreamingAllocPairer",
        unused_transfers: "UnusedTransferPass _DeviceTransferState",
        duplicates: "DuplicateTransferPass",
        roundtrips: "RoundTripPass",
        repeated_allocs: "RepeatedAllocationPass",
        unused_allocs: "UnusedAllocationPass",
        table: "FindingPart",
        validation: "ValidationPass",
    }
    allowed = {(m.__name__, n): getattr(m, n) for m, ns in classes.items() for n in ns.split()}
    # What the installed NumPy pickles arrays, scalars and dtypes as.
    for obj in (np.empty(1).__reduce_ex__(5)[0], np.float64(0).__reduce__()[0], np.dtype):
        allowed[obj.__module__, obj.__qualname__] = obj
    return allowed


class _CarryUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        if (module, name) not in _allowed():
            raise pickle.UnpicklingError(f"global {module}.{name} is not allowed")
        return _allowed()[module, name]


def encode_carries(values: Sequence[Any]) -> bytes:
    """Serialise a list of values (a pass group's payloads, or passes)."""
    return pickle.dumps(list(values), protocol=5)


def decode_carries(data: bytes) -> list[Any]:
    """Restore the list produced by :func:`encode_carries`."""
    stream = io.BytesIO(data)
    try:
        values = _CarryUnpickler(stream).load()
    except Exception as exc:
        raise CarryCodecError(f"malformed carry payload: {exc!r}") from exc
    if not isinstance(values, list) or stream.read(1):
        raise CarryCodecError("carry payload is not exactly one pickled list")
    return values
