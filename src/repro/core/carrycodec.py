"""Compact binary codec for detector carry state.

The parallel engines ship partition carries between processes twice per
task: once over the worker result pipe and once (distributed runs) as
``results/`` blobs on the queue transport.  Pickle handles both today but
pays per-object overhead on every NumPy buffer and drags the full pickle
machinery onto the hot path.  This module replaces it with a versioned
tagged binary format specialised to the closed set of types that actually
appear in carries:

* scalars — ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
  NumPy scalars and ``np.dtype`` instances,
* containers — ``list``, ``tuple`` and insertion-ordered ``dict``
  (composite keys such as ``(device, address)`` tuples included),
* NumPy arrays — dtype string + shape + raw contiguous buffer,
* the registered carry-bearing classes (grow arrays, column buffers,
  kernel cursors, composite-key counters, alloc pairers, per-device
  transfer state and the five detector passes), serialised as their
  ``__dict__`` and restored without running ``__init__`` (the key
  counter's derived lookup index is dropped and rebuilt on first use).

The format is deterministic (``encode(decode(encode(x))) == encode(x)``)
and the decoded carries are bit-identical inputs to ``merge``/``finalize``:
the differential oracle must not be able to tell the codec from pickle.

Wire format::

    b"ODPC"  u16 version  u32 count  value*

where every value is ``tag:u8`` followed by a tag-specific payload (all
integers little-endian).
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Sequence, Tuple, Type

import numpy as np

MAGIC = b"ODPC"
CODEC_VERSION = 1

# Value tags.  Never renumber — bump CODEC_VERSION for incompatible changes.
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03        # fits in a signed 64-bit integer
_T_BIGINT = 0x04     # decimal string (arbitrary precision fallback)
_T_FLOAT = 0x05      # IEEE-754 binary64 bit pattern (inf/nan preserved)
_T_STR = 0x06
_T_BYTES = 0x07
_T_LIST = 0x08
_T_TUPLE = 0x09
_T_DICT = 0x0A       # ordered (key, value) pairs
_T_NDARRAY = 0x0B    # dtype.str, ndim, dims, contiguous buffer
_T_NPSCALAR = 0x0C   # dtype.str, raw item bytes
_T_DTYPE = 0x0D      # dtype.str
_T_OBJECT = 0x0E     # registered class name + encoded state


class CarryCodecError(ValueError):
    """Raised for malformed or unsupported carry payloads."""


# --------------------------------------------------------------------- #
# Registered classes
# --------------------------------------------------------------------- #
def _default_state(obj: Any) -> dict:
    return dict(vars(obj))


def _make_default_restore(cls: Type) -> Callable[[Any], Any]:
    def restore(state: Any) -> Any:
        if not isinstance(state, dict):
            raise CarryCodecError(
                f"carry state for {cls.__name__} must be a dict, "
                f"got {type(state).__name__}"
            )
        obj = cls.__new__(cls)
        if hasattr(cls, "__setstate__"):
            obj.__setstate__(state)
        else:
            obj.__dict__.update(state)
        return obj

    return restore


def _growarray_state(grow: Any) -> dict:
    # Never serialise the raw backing buffer: restoring an empty `_arr`
    # would break extend()'s doubling loop, and the slack tail is noise.
    return {
        "dtype": grow._dtype.str,
        "data": np.ascontiguousarray(grow._arr[: grow.size]),
    }


def _registry() -> Dict[str, Tuple[Type, Callable, Callable]]:
    # Imported lazily to dodge the circular import (detector modules may
    # themselves be imported while this module loads).
    from repro.core.detectors import _streaming as streaming
    from repro.core.detectors.duplicates import DuplicateTransferPass
    from repro.core.detectors.repeated_allocs import RepeatedAllocationPass
    from repro.core.detectors.roundtrips import RoundTripPass
    from repro.core.detectors.unused_allocs import UnusedAllocationPass
    from repro.core.detectors.unused_transfers import (
        UnusedTransferPass,
        _DeviceTransferState,
    )

    def growarray_restore(state: Any) -> Any:
        grow = streaming.GrowArray(np.dtype(state["dtype"]))
        grow.extend(state["data"])
        return grow

    table: Dict[str, Tuple[Type, Callable, Callable]] = {
        "GrowArray": (streaming.GrowArray, _growarray_state, growarray_restore),
        # The key counter's __getstate__ drops its derived lookup index.
        "CompositeKeyCounter": (
            streaming.CompositeKeyCounter,
            streaming.CompositeKeyCounter.__getstate__,
            _make_default_restore(streaming.CompositeKeyCounter),
        ),
    }
    for name, cls in (
        ("ColumnBuffer", streaming.ColumnBuffer),
        ("DeviceKernels", streaming.DeviceKernels),
        ("StreamingAllocPairer", streaming.StreamingAllocPairer),
        ("DeviceTransferState", _DeviceTransferState),
        ("DuplicateTransferPass", DuplicateTransferPass),
        ("RoundTripPass", RoundTripPass),
        ("RepeatedAllocationPass", RepeatedAllocationPass),
        ("UnusedAllocationPass", UnusedAllocationPass),
        ("UnusedTransferPass", UnusedTransferPass),
    ):
        table[name] = (cls, _default_state, _make_default_restore(cls))
    return table


_TABLE: Dict[str, Tuple[Type, Callable, Callable]] = {}
_BY_CLASS: Dict[Type, str] = {}


def _ensure_registry() -> None:
    if not _TABLE:
        _TABLE.update(_registry())
        _BY_CLASS.update({cls: name for name, (cls, _, _) in _TABLE.items()})


# --------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------- #
def _pack_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    out += struct.pack("<I", len(raw))
    out += raw


def _encode_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_T_NONE)
    elif isinstance(value, np.generic):
        # Before bool/int/float: NumPy scalars must round-trip with their
        # exact dtype so merged carries stay bit-identical to pickle's.
        out.append(_T_NPSCALAR)
        _pack_str(out, value.dtype.str)
        raw = value.tobytes()
        out += struct.pack("<I", len(raw))
        out += raw
    elif isinstance(value, bool):
        out.append(_T_TRUE if value else _T_FALSE)
    elif isinstance(value, int):
        try:
            packed = struct.pack("<q", value)
        except struct.error:
            out.append(_T_BIGINT)
            _pack_str(out, str(value))
        else:
            out.append(_T_INT)
            out += packed
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += struct.pack("<d", value)
    elif isinstance(value, str):
        out.append(_T_STR)
        _pack_str(out, value)
    elif isinstance(value, (bytes, bytearray)):
        out.append(_T_BYTES)
        out += struct.pack("<Q", len(value))
        out += value
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        out.append(_T_NDARRAY)
        _pack_str(out, arr.dtype.str)
        out.append(arr.ndim)
        out += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        raw = arr.tobytes()
        out += struct.pack("<Q", len(raw))
        out += raw
    elif isinstance(value, np.dtype):
        out.append(_T_DTYPE)
        _pack_str(out, value.str)
    elif isinstance(value, list):
        out.append(_T_LIST)
        out += struct.pack("<I", len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, tuple):
        out.append(_T_TUPLE)
        out += struct.pack("<I", len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += struct.pack("<I", len(value))
        for key, item in value.items():
            _encode_value(out, key)
            _encode_value(out, item)
    else:
        _ensure_registry()
        name = _BY_CLASS.get(type(value))
        if name is None:
            raise CarryCodecError(
                f"cannot encode carry value of type {type(value).__name__}"
            )
        out.append(_T_OBJECT)
        _pack_str(out, name)
        _, state_fn, _ = _TABLE[name]
        _encode_value(out, state_fn(value))


# --------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------- #
class _Reader:
    __slots__ = ("data", "off")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        end = self.off + n
        if end > len(self.data):
            raise CarryCodecError("truncated carry payload")
        chunk = self.data[self.off : end]
        self.off = end
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def read_str(self) -> str:
        (length,) = self.unpack("<I")
        return self.take(length).decode("utf-8")


def _decode_value(reader: _Reader) -> Any:
    tag = reader.take(1)[0]
    if tag == _T_NONE:
        return None
    if tag == _T_FALSE:
        return False
    if tag == _T_TRUE:
        return True
    if tag == _T_INT:
        return reader.unpack("<q")[0]
    if tag == _T_BIGINT:
        return int(reader.read_str())
    if tag == _T_FLOAT:
        return reader.unpack("<d")[0]
    if tag == _T_STR:
        return reader.read_str()
    if tag == _T_BYTES:
        (length,) = reader.unpack("<Q")
        return reader.take(length)
    if tag == _T_LIST:
        (count,) = reader.unpack("<I")
        return [_decode_value(reader) for _ in range(count)]
    if tag == _T_TUPLE:
        (count,) = reader.unpack("<I")
        return tuple(_decode_value(reader) for _ in range(count))
    if tag == _T_DICT:
        (count,) = reader.unpack("<I")
        result = {}
        for _ in range(count):
            key = _decode_value(reader)
            result[key] = _decode_value(reader)
        return result
    if tag == _T_NDARRAY:
        dtype = np.dtype(reader.read_str())
        ndim = reader.take(1)[0]
        shape = reader.unpack(f"<{ndim}Q") if ndim else ()
        (nbytes,) = reader.unpack("<Q")
        raw = reader.take(nbytes)
        # .copy(): frombuffer views are read-only, and carries mutate.
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if tag == _T_NPSCALAR:
        dtype = np.dtype(reader.read_str())
        (nbytes,) = reader.unpack("<I")
        raw = reader.take(nbytes)
        return np.frombuffer(raw, dtype=dtype)[0]
    if tag == _T_DTYPE:
        return np.dtype(reader.read_str())
    if tag == _T_OBJECT:
        _ensure_registry()
        name = reader.read_str()
        entry = _TABLE.get(name)
        if entry is None:
            raise CarryCodecError(f"unknown carry class {name!r}")
        state = _decode_value(reader)
        return entry[2](state)
    raise CarryCodecError(f"unknown carry tag 0x{tag:02x}")


# --------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------- #
def encode_value(value: Any) -> bytes:
    """Encode one carry value (exposed for tests and tooling)."""
    out = bytearray()
    _encode_value(out, value)
    return bytes(out)


def decode_value(data: bytes) -> Any:
    reader = _Reader(bytes(data))
    value = _decode_value(reader)
    if reader.off != len(reader.data):
        raise CarryCodecError("trailing bytes after carry value")
    return value


def encode_carries(passes: Sequence[Any]) -> bytes:
    """Serialise one partition's list of folded detector passes."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<HI", CODEC_VERSION, len(passes))
    for pass_ in passes:
        _encode_value(out, pass_)
    return bytes(out)


def decode_carries(data: bytes) -> List[Any]:
    """Restore the list of passes produced by :func:`encode_carries`."""
    reader = _Reader(bytes(data))
    if reader.take(4) != MAGIC:
        raise CarryCodecError("not a carry payload (bad magic)")
    version, count = reader.unpack("<HI")
    if version != CODEC_VERSION:
        raise CarryCodecError(
            f"carry payload version {version} is not supported "
            f"(expected {CODEC_VERSION})"
        )
    passes = [_decode_value(reader) for _ in range(count)]
    if reader.off != len(reader.data):
        raise CarryCodecError("trailing bytes after carry payload")
    return passes
