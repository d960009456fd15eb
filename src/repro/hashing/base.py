"""Common hasher interface and registry.

Every hasher maps an arbitrary byte payload to a fixed-width unsigned
integer.  The collector only ever stores the integer (that is the point of
the content-based approach: constant memory per transfer regardless of
payload size), so the interface is deliberately tiny.
"""

from __future__ import annotations

import abc
import enum
from typing import Union

import numpy as np

BytesLike = Union[bytes, bytearray, memoryview, np.ndarray]


def as_bytes(data: BytesLike) -> bytes:
    """Normalise a payload to ``bytes``.

    numpy arrays are serialised through their raw buffer; non-contiguous
    arrays are copied first (matching what a real tool sees: the bytes that
    actually cross the interconnect).
    """
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data).tobytes()
    if isinstance(data, (bytes, bytearray)):
        return bytes(data)
    if isinstance(data, memoryview):
        return data.tobytes()
    raise TypeError(f"cannot hash object of type {type(data).__name__}")


class HashFamily(enum.Enum):
    """Rough grouping used when reporting Table 4 / Figure 5 results."""

    FNV = "fnv"
    MURMUR = "murmur"
    XXHASH = "xxhash"
    CITY = "city"
    T1HA = "t1ha"
    VECTOR = "vector"
    LIBRARY = "library"


class Hasher(abc.ABC):
    """A non-cryptographic content hash."""

    #: registry name, e.g. ``"xxh64"``
    name: str = "abstract"
    #: output width in bits
    bits: int = 64
    #: family used for grouping in the hash evaluation
    family: HashFamily = HashFamily.VECTOR

    @abc.abstractmethod
    def hash_bytes(self, data: bytes, seed: int = 0) -> int:
        """Hash a byte string, returning an unsigned integer of ``self.bits`` bits."""

    def hash(self, data: BytesLike, seed: int = 0) -> int:
        """Hash an arbitrary payload (bytes or numpy array)."""
        return self.hash_bytes(as_bytes(data), seed)

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} bits={self.bits}>"


_REGISTRY: dict[str, Hasher] = {}


def register_hasher(hasher: Hasher, *, replace: bool = False) -> Hasher:
    """Add a hasher instance to the global registry."""
    if not replace and hasher.name in _REGISTRY:
        raise ValueError(f"hasher {hasher.name!r} is already registered")
    _REGISTRY[hasher.name] = hasher
    return hasher


def get_hasher(name: str) -> Hasher:
    """Look up a registered hasher by name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown hasher {name!r}; known hashers: {known}") from None


def available_hashers() -> dict[str, Hasher]:
    """Return a copy of the registry (name -> hasher instance)."""
    _ensure_builtins()
    return dict(_REGISTRY)


_builtins_loaded = False


def _ensure_builtins() -> None:
    """Register the built-in hashers on first use (avoids import cycles)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    from repro.hashing.fnv import FNV1a32, FNV1a64
    from repro.hashing.murmur import Murmur3_32
    from repro.hashing.xx import XXH32, XXH64
    from repro.hashing.city import CityMix64
    from repro.hashing.t1ha import T1HAStyle64
    from repro.hashing.vector import VectorHash64, CRC32Hash, Adler32Hash

    for hasher in (
        FNV1a32(),
        FNV1a64(),
        Murmur3_32(),
        XXH32(),
        XXH64(),
        CityMix64(),
        T1HAStyle64(),
        VectorHash64(),
        CRC32Hash(),
        Adler32Hash(),
    ):
        if hasher.name not in _REGISTRY:
            _REGISTRY[hasher.name] = hasher


def rotl(value: int, count: int, bits: int = 64) -> int:
    """Rotate ``value`` left by ``count`` within a ``bits``-wide word."""
    mask = (1 << bits) - 1
    count %= bits
    value &= mask
    return ((value << count) | (value >> (bits - count))) & mask
