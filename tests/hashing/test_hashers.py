"""Tests for the content-hash substrate (Appendix B)."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.hashing import DEFAULT_HASHER
from repro.hashing.base import available_hashers, get_hasher, register_hasher, rotl
from repro.hashing.fnv import FNV1a32, FNV1a64
from repro.hashing.murmur import Murmur3_32
from repro.hashing.xx import XXH32, XXH64


class TestKnownVectors:
    """Reference test vectors for the published algorithms."""

    def test_fnv1a32_empty(self):
        assert FNV1a32().hash_bytes(b"") == 0x811C9DC5

    def test_fnv1a32_known(self):
        # FNV-1a("a") from the reference implementation.
        assert FNV1a32().hash_bytes(b"a") == 0xE40C292C

    def test_fnv1a64_empty(self):
        assert FNV1a64().hash_bytes(b"") == 0xCBF29CE484222325

    def test_fnv1a64_known(self):
        assert FNV1a64().hash_bytes(b"a") == 0xAF63DC4C8601EC8C

    def test_murmur3_empty(self):
        assert Murmur3_32().hash_bytes(b"", seed=0) == 0

    def test_murmur3_known(self):
        # Reference vectors from the MurmurHash3 x86_32 implementation.
        assert Murmur3_32().hash_bytes(b"hello", seed=0) == 0x248BFA47
        assert Murmur3_32().hash_bytes(b"hello, world", seed=0) == 0x149BBB7F

    def test_xxh32_empty(self):
        assert XXH32().hash_bytes(b"", seed=0) == 0x02CC5D05

    def test_xxh64_empty(self):
        assert XXH64().hash_bytes(b"", seed=0) == 0xEF46DB3751D8E999


class TestAllHashers:
    @pytest.fixture(params=sorted(available_hashers()))
    def hasher(self, request):
        return get_hasher(request.param)

    def test_deterministic(self, hasher):
        data = b"The quick brown fox jumps over the lazy dog" * 7
        assert hasher.hash_bytes(data) == hasher.hash_bytes(data)

    def test_output_width_respected(self, hasher):
        data = bytes(range(256)) * 3
        value = hasher.hash_bytes(data)
        assert 0 <= value <= hasher.mask

    def test_distinct_payloads_rarely_collide(self, hasher):
        if hasher.name == "adler32":
            pytest.skip("Adler-32 is a checksum kept only as a throughput reference")
        values = {hasher.hash_bytes(f"payload-{i}".encode()) for i in range(512)}
        # A non-cryptographic 32-bit hash should still separate 512 short keys.
        assert len(values) >= 510

    def test_numpy_and_bytes_agree(self, hasher):
        arr = np.arange(257, dtype=np.float64)
        assert hasher.hash(arr) == hasher.hash_bytes(arr.tobytes())

    def test_non_contiguous_array_hashed_by_content(self, hasher):
        arr = np.arange(64, dtype=np.float64)
        strided = arr[::2]
        assert hasher.hash(strided) == hasher.hash_bytes(np.ascontiguousarray(strided).tobytes())

    def test_seed_changes_result(self, hasher):
        data = b"seed sensitivity check, long enough to exercise stripes" * 2
        assert hasher.hash_bytes(data, seed=0) != hasher.hash_bytes(data, seed=1)

    def test_single_bit_flip_changes_hash(self, hasher):
        data = bytearray(b"\x00" * 129)
        base = hasher.hash_bytes(bytes(data))
        data[64] ^= 0x01
        assert hasher.hash_bytes(bytes(data)) != base

    @given(st.binary(min_size=0, max_size=200))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_arbitrary_payloads_accepted(self, hasher, data):
        value = hasher.hash_bytes(data)
        assert 0 <= value <= hasher.mask


class TestVectorHash:
    def test_length_extension_sensitivity(self):
        h = get_hasher("vector64")
        a = b"\x01" * 64
        b = b"\x01" * 72
        assert h.hash_bytes(a) != h.hash_bytes(b)

    def test_lane_order_sensitivity(self):
        h = get_hasher("vector64")
        forward = np.arange(1024, dtype=np.uint64)
        backward = forward[::-1].copy()
        assert h.hash(forward) != h.hash(backward)

    def test_large_buffer_block_path(self):
        h = get_hasher("vector64")
        big = np.arange(h._TABLE_SIZE * 3 + 5, dtype=np.uint64)
        assert h.hash(big) == h.hash(big.copy())


def _pin_payload(n: int) -> bytes:
    """``n`` deterministic, well-mixed bytes (independent of any RNG)."""
    words = np.arange(1, (n + 7) // 8 + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    words ^= words >> np.uint64(29)
    return words.view(np.uint8)[:n].tobytes()


_CHUNK = 16 * 4096 * 8
_PIN_SEEDS = (0, 7, 1 << 63, (1 << 64) - 1)
#: vector64 values of ``_pin_payload(size)`` under each of ``_PIN_SEEDS``.
#: Sizes cover the tail-only path (1-7), the one-block table edge, the
#: 16-block chunk edge and multi-chunk payloads with a partial last block.
_VECTOR64_PINS = {
    0: (0xe220a8397b1dcdaf, 0x63cbe1e459320dd7, 0x481ec0a212a9f3db, 0xe4d971771b652c20),
    1: (0xa7fa27681c0e2b48, 0x78fa7602beaeec20, 0x4e93ab16d39543e1, 0x852c9935518f9843),
    2: (0x5349d971a66e4847, 0x8bc82cfe509761bc, 0x9c3a3f45978f9e67, 0x4277ece089a48114),
    3: (0x7ec916a0104ace14, 0x73d32d17667e5822, 0x178f74fd47859cab, 0xb68b078a76757e8f),
    4: (0x37886eab3dbc1950, 0x1e15ec4a6033921b, 0x3a99e33f85521014, 0x400694031c68262f),
    5: (0xeab2d28a3f95ee1b, 0x5eee5e875a6972e2, 0xbb25c907603abce4, 0x53d5e55fda7584d9),
    6: (0xa7ee65cc3f47b3fd, 0x973405ac8de6406, 0xed7eb5557b4854ed, 0x4997fc49302b644),
    7: (0xf095d8ba3403780b, 0x3adde672d5f18e0a, 0xb6c8bc0788b45315, 0x9a2448ba25501b87),
    8: (0x904170a7cc2e199b, 0x6e4913e66d389aea, 0x7577e103c9edd68, 0xf06ebdcb2e75938c),
    4095 * 8: (0xc7c62617ae9e3264, 0x94ee5e36678344a7, 0xd6a9e5810e864cce, 0xbd9e0b8bf676002a),
    4096 * 8: (0x7d988b416890358a, 0x3037b87b99ae1d9c, 0xdfbd70e8726cab4, 0xae908bcb28853995),
    4097 * 8: (0x21bc067142a9975a, 0x972bf1310ec47db0, 0x65a56fce77447bd, 0x4589a4198d99a232),
    _CHUNK - 8: (0xcca7ff6c7a1f2254, 0xd657fa3180c0f370, 0x6168049df480644a, 0x6f441c05b53f51ec),
    _CHUNK: (0x289c6e222b725874, 0x41480fd0564e472e, 0xf15646d176221cf8, 0x91e91227f279fe13),
    _CHUNK + 8: (0xf35fed88e8c4ca5b, 0x7fe1445def158ac8, 0xe03ec986f6df38ce, 0xd23a6cbc8b4d3550),
    (2 << 20) + 5: (0x51196cc86870fde3, 0x4de289401a3f18ec, 0x4e9c3dc2911d388c, 0xbda019018be833c7),
    (3 << 20) + 17: (0x3267b2813b804a96, 0xc76427be29b37236, 0x33b3f0b807ac095b, 0xe33c9d3993df5fae),
}


class TestVectorHashPins:
    """Pinned ``VectorHash64`` values: any change to the mixing is a format
    change (content hashes are stored in traces) and must fail here."""

    @pytest.fixture(autouse=True)
    def _overflow_is_an_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("size", sorted(_VECTOR64_PINS))
    def test_pinned_values(self, size):
        h = get_hasher("vector64")
        data = _pin_payload(size)
        got = tuple(h.hash_bytes(data, seed) for seed in _PIN_SEEDS)
        assert got == _VECTOR64_PINS[size]

    @pytest.mark.parametrize("size", [0, 5, 4097 * 8, _CHUNK + 8, (2 << 20) + 5])
    def test_array_and_bytes_agree(self, size):
        h = get_hasher("vector64")
        raw = np.frombuffer(_pin_payload(size), dtype=np.uint8)
        as_uint8 = raw.copy()
        as_float = raw[: size - size % 8].view(np.float64).copy()
        fortran = np.asfortranarray(as_float[: (as_float.size // 2) * 2].reshape(2, -1))
        for arr in (as_uint8, as_float, fortran):
            for seed in _PIN_SEEDS:
                assert h.hash(arr, seed) == h.hash_bytes(arr.tobytes(), seed)


class TestRegistry:
    def test_default_hasher_registered(self):
        assert DEFAULT_HASHER in available_hashers()

    def test_unknown_hasher_raises(self):
        with pytest.raises(KeyError):
            get_hasher("not-a-hash")

    def test_duplicate_registration_rejected(self):
        existing = get_hasher("fnv1a32")
        with pytest.raises(ValueError):
            register_hasher(existing)

    def test_rotl_behaviour(self):
        assert rotl(1, 1, 32) == 2
        assert rotl(0x80000000, 1, 32) == 1
        assert rotl(1, 64) == 1
