"""Bulk/vectorised hashes: the fast path actually used by the collector.

The paper selects ``t1ha0_avx2`` as the default because SIMD hashes keep the
hashing cost below the host/device transfer cost.  The pure-Python byte- and
word-at-a-time hashes in this package can never reach that regime, so the
reproduction's default hash (``VectorHash64``) hashes the payload with numpy
wide operations (the Python analogue of a SIMD hash), and ``CRC32Hash`` /
``Adler32Hash`` expose zlib's C-speed checksums as additional "library"
hashes.  These three occupy the top of the Table 4 reproduction just as the
AVX2-accelerated hashes top the paper's table.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.hashing.base import HashFamily, Hasher, as_bytes, BytesLike

_MASK64 = (1 << 64) - 1

# Splitmix64-style constants for the per-lane multipliers and finaliser.
_MULT_A = 0xBF58476D1CE4E5B9
_MULT_B = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * _MULT_A) & _MASK64
    x ^= x >> 27
    x = (x * _MULT_B) & _MASK64
    x ^= x >> 31
    return x


class VectorHash64(Hasher):
    """A numpy-vectorised 64-bit mixing hash.

    The payload is viewed as little-endian 64-bit lanes; each lane is mixed
    with a position-dependent multiplier (derived from a splitmix64 stream)
    and the lanes are XOR/sum-folded into a single word, followed by a
    splitmix64 finaliser.  The per-lane work is a handful of numpy ufunc
    calls, so throughput scales with memory bandwidth rather than the Python
    interpreter — the same property the AVX2 hashes have natively.
    """

    name = "vector64"
    bits = 64
    family = HashFamily.VECTOR

    #: number of pre-generated position multipliers; positions beyond this
    #: reuse the table cyclically, offset by a block counter, which keeps the
    #: table small without making lane positions interchangeable.
    _TABLE_SIZE = 4096
    #: full 4096-lane blocks mixed per numpy call on long payloads: 16 blocks
    #: (512 KiB of lanes) keep the scratch buffer cache-sized.
    _CHUNK_BLOCKS = 16

    def __init__(self) -> None:
        stream = np.empty(self._TABLE_SIZE, dtype=np.uint64)
        x = 0x0DDB1A5E55ED1CE5
        for i in range(self._TABLE_SIZE):
            x = _splitmix64(x)
            # Force odd multipliers so the per-lane multiply is a bijection.
            stream[i] = np.uint64(x | 1)
        self._multipliers = stream
        #: per-block salts ``splitmix64(block_start) | 1``, grown on demand
        self._salts = np.empty((0, 1), dtype=np.uint64)

    def hash_bytes(self, data: bytes, seed: int = 0) -> int:
        return self._hash_buffer(np.frombuffer(data, dtype=np.uint8), len(data), seed)

    def hash(self, data: BytesLike, seed: int = 0) -> int:
        """Hash without forcing a bytes copy when given a contiguous array."""
        if isinstance(data, np.ndarray):
            arr = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
            return self._hash_buffer(arr, arr.size, seed)
        raw = as_bytes(data)
        return self._hash_buffer(np.frombuffer(raw, dtype=np.uint8), len(raw), seed)

    def _block_salts(self, blocks: int) -> np.ndarray:
        """Salts of the first ``blocks`` blocks, as a column for broadcasting."""
        salts = self._salts
        if salts.shape[0] < blocks:
            salts = np.array(
                [_splitmix64(b * self._TABLE_SIZE) | 1 for b in range(blocks)],
                dtype=np.uint64,
            ).reshape(-1, 1)
            self._salts = salts
        return salts[:blocks]

    def _hash_buffer(self, buf: np.ndarray, length: int, seed: int) -> int:
        if length == 0:
            return _splitmix64(seed & _MASK64)

        table = self._TABLE_SIZE
        mults = self._multipliers
        n_lanes = length // 8
        acc = 0
        if n_lanes:
            lanes = buf[: n_lanes * 8].view("<u8")
            # Two independent folds so that lane reordering changes the
            # result.  Both are associative (xor, and sum mod 2**64), so a
            # payload is folded chunk by chunk into Python ints.
            if n_lanes <= table:
                mixed = lanes * mults[:n_lanes]
                xor_fold = int(np.bitwise_xor.reduce(mixed))
                sum_fold = int(np.add.reduce(mixed))
            else:
                # Lane i of block b is mixed as (lane ^ salt[b]) * mults[i];
                # full blocks go through as rows of a (blocks, 4096) matrix.
                full = n_lanes // table
                blocks = lanes[: full * table].reshape(full, table)
                salts = self._block_salts(full + 1)
                scratch = np.empty((min(full, self._CHUNK_BLOCKS), table), dtype=np.uint64)
                xor_fold = sum_fold = 0
                for lo in range(0, full, self._CHUNK_BLOCKS):
                    hi = min(lo + self._CHUNK_BLOCKS, full)
                    mixed = scratch[: hi - lo]
                    np.bitwise_xor(blocks[lo:hi], salts[lo:hi], out=mixed)
                    np.multiply(mixed, mults, out=mixed)
                    xor_fold ^= int(np.bitwise_xor.reduce(mixed, axis=None))
                    sum_fold += int(np.add.reduce(mixed, axis=None))
                rest = n_lanes - full * table
                if rest:
                    mixed = (lanes[full * table :] ^ salts[full]) * mults[:rest]
                    xor_fold ^= int(np.bitwise_xor.reduce(mixed))
                    sum_fold += int(np.add.reduce(mixed))
            acc = xor_fold ^ _splitmix64(sum_fold & _MASK64)

        tail_word = int.from_bytes(buf[n_lanes * 8 :].tobytes(), "little")
        h = acc ^ ((length * _GOLDEN) & _MASK64) ^ (seed & _MASK64)
        h = _splitmix64(h)
        h = _splitmix64(h ^ tail_word)
        return h & _MASK64


class CRC32Hash(Hasher):
    """zlib's CRC-32 exposed through the hasher interface.

    CRC-32 is only 32 bits wide, so it is *not* suitable as the collector
    default (birthday collisions are plausible for large traces); it is kept
    as a throughput reference point in the hash evaluation.
    """

    name = "crc32"
    bits = 32
    family = HashFamily.LIBRARY

    def hash_bytes(self, data: bytes, seed: int = 0) -> int:
        return zlib.crc32(data, seed & 0xFFFFFFFF) & 0xFFFFFFFF


class Adler32Hash(Hasher):
    """zlib's Adler-32 exposed through the hasher interface.

    Adler-32 is a checksum rather than a hash (short inputs with equal byte
    sums collide); it is kept purely as a throughput reference point in the
    hash evaluation and must never be used as the collector default.  The
    seed is folded into the result with a splitmix-style mix because the
    checksum's own initial value only affects the low half of the state.
    """

    name = "adler32"
    bits = 32
    family = HashFamily.LIBRARY

    def hash_bytes(self, data: bytes, seed: int = 0) -> int:
        value = zlib.adler32(data, 1) & 0xFFFFFFFF
        if seed:
            value ^= (_splitmix64(seed) & 0xFFFFFFFF)
        return value
