"""Property tests for :class:`CompositeKeyCounter` against a plain-dict oracle.

The counter is the streaming twin of a ``dict`` from composite key to
(member count, smallest gpos, payload of that row, uid).  Every
:class:`KeyFold` field is checked against that dict after each batch.
Keys mix ``uint64`` values at and above 2^63 with negative ``int32``
devices, and share their first column across keys, so the packed-key
ordering is exercised where it differs from naive byte order.  Counters
pass through the carry codec between folds, which drops the sorted lookup
index and makes the next fold rebuild it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.carrycodec import decode_carries, encode_carries
from repro.core.detectors._streaming import CompositeKeyCounter, pack_keys

_DTYPES = (np.uint64, np.int32, np.int64)
_COLUMN_VALUES = (
    # one content hash / host address shared by several keys, and the
    # uint64 values whose sign bit is set
    [0, 1, 0xDEADBEEF, 2**63 - 1, 2**63, 2**64 - 1],
    # device numbers, negative ones included (host device, sentinels)
    [-(2**31), -1, 0, 1, 7],
    # sizes
    [-1, 0, 8, 2**62],
)


@st.composite
def key_streams(draw):
    """Batches of ``(key, payload)`` rows with globally unique gpos."""
    ncols = draw(st.sampled_from([2, 3]))
    key = st.tuples(*(st.sampled_from(_COLUMN_VALUES[j]) for j in range(ncols)))
    keys = draw(st.lists(key, min_size=1, max_size=6))
    row = st.tuples(st.integers(0, len(keys) - 1), st.integers(-(2**40), 2**40))
    batches = draw(st.lists(st.lists(row, max_size=12), max_size=6))
    # Rows arrive out of gpos order (pairs complete in delete order).
    total = sum(len(batch) for batch in batches)
    gpos = iter(draw(st.permutations(range(total))))
    return [
        {
            "keys": [keys[k] for k, _ in batch],
            "gpos": [next(gpos) for _ in batch],
            "payload": [p for _, p in batch] if draw(st.booleans()) else None,
            "roundtrip": draw(st.booleans()),
        }
        for batch in batches
    ], ncols


def _columns(keys, ncols):
    return tuple(
        np.array([k[j] for k in keys], dtype=_DTYPES[j]) for j in range(ncols)
    )


def _roundtrip(counter):
    (decoded,) = decode_carries(encode_carries([counter]))
    return decoded


class Oracle:
    """Dict model of one counter; folds a batch and checks the KeyFold."""

    def __init__(self) -> None:
        self.table: dict[tuple, list[int]] = {}  # key -> [count, first, payload, uid]

    def fold(self, counter, batch, ncols) -> None:
        keys, gpos, payload = batch["keys"], batch["gpos"], batch["payload"]
        fold = counter.fold(
            _columns(keys, ncols),
            np.array(gpos, dtype=np.int64),
            None if payload is None else np.array(payload, dtype=np.int64),
        )
        if not keys:
            assert fold.inverse.size == 0 and fold.key_uid.size == 0
            return
        # Rows carry payload 0 until a caller first supplies one.
        rows_payload = payload if payload is not None else [0] * len(keys)

        # inverse: one slot per distinct batch key
        slot_key: dict[int, tuple] = {}
        for key, slot in zip(keys, fold.inverse.tolist()):
            assert slot_key.setdefault(slot, key) == key
        assert len(set(slot_key.values())) == len(slot_key) == fold.prior_count.size

        before = {key: list(stats) for key, stats in self.table.items()}
        for key, g, p in zip(keys, gpos, rows_payload):
            stats = self.table.get(key)
            if stats is None:
                self.table[key] = [1, g, p, None]
            else:
                stats[0] += 1
                if g < stats[1]:
                    stats[1], stats[2] = g, p

        fresh = []
        for slot, key in slot_key.items():
            stats = self.table[key]
            prior = before.get(key)
            assert fold.prior_count[slot] == (prior[0] if prior else 0)
            assert fold.total_count[slot] == stats[0]
            assert fold.first_gpos[slot] == stats[1]
            assert fold.first_payload[slot] == stats[2]
            assert tuple(int(col[slot]) for col in fold.keys) == key
            if prior:
                assert fold.key_uid[slot] == prior[3]
                assert fold.prior_first_gpos[slot] == prior[1]
                assert fold.prior_payload[slot] == prior[2]
            else:
                stats[3] = int(fold.key_uid[slot])
                fresh.append(stats[3])
        # Dense uids: only keys the table did not hold get one.
        assert sorted(fresh) == list(range(len(before), len(self.table)))
        assert counter.num_keys == len(self.table)


def _fold_all(batches, ncols):
    counter, oracle = CompositeKeyCounter(), Oracle()
    for batch in batches:
        if batch["roundtrip"]:
            counter = _roundtrip(counter)
        oracle.fold(counter, batch, ncols)
    return counter, oracle


@settings(max_examples=300, deadline=None)
@given(key_streams())
def test_fold_matches_dict_oracle(stream):
    batches, ncols = stream
    _fold_all(batches, ncols)


def test_packed_keys_sort_like_lexsort():
    rng = np.random.default_rng(5)
    n = 2000
    cols = (
        rng.choice(np.array(_COLUMN_VALUES[0], dtype=np.uint64), n),
        rng.integers(-(2**31), 2**31, n, dtype=np.int64).astype(np.int32),
        rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64),
    )
    packed = pack_keys(cols)
    order = np.lexsort(cols[::-1])
    assert (np.argsort(packed, kind="stable") == order).all()
