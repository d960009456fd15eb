"""Property tests for :class:`CompositeKeyCounter` against a plain-dict oracle.

The counter is the streaming twin of a ``dict`` from composite key to
(member count, smallest gpos, payload of that row, uid).  Every
:class:`KeyFold` field is checked against that dict after each batch.
Keys mix ``uint64`` values at and above 2^63 with negative ``int32``
devices, and share their first column across keys.  Counters pass through
the carry codec between folds, which drops the sorted lookup index and
makes the next fold rebuild it.  The same oracle runs again with the key
mix forced to collide, so distinct keys that share a mix meet both inside
one batch and in the index.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.carrycodec import decode_carries, encode_carries
from repro.core.detectors import _streaming
from repro.core.detectors._streaming import CompositeKeyCounter, mix_keys

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


def _low_bits_mix(cols):
    """A degenerate mix: four values in all, from the first column only."""
    return cols[0].astype(np.uint64) & np.uint64(3)


@settings(max_examples=300, deadline=None)
@given(key_streams())
def test_fold_matches_dict_oracle_when_mixes_collide(stream):
    batches, ncols = stream
    with mock.patch.object(_streaming, "mix_keys", _low_bits_mix):
        _fold_all(batches, ncols)


def test_forced_collisions_meet_in_batch_and_index():
    """Distinct keys of one mix, in one batch and then against the index,
    stay distinct keys."""
    hashes = np.array([4, 8, 4, 12], dtype=np.uint64)  # all mix to 0
    devices = np.array([0, 0, 0, 1], dtype=np.int32)
    with mock.patch.object(_streaming, "mix_keys", _low_bits_mix):
        counter = CompositeKeyCounter()
        first = counter.fold((hashes, devices), np.arange(4, dtype=np.int64))
        assert counter.num_keys == 3
        assert first.total_count[first.inverse].tolist() == [2, 1, 2, 1]
        again = counter.fold(
            (hashes[::-1].copy(), devices[::-1].copy()), np.arange(4, 8, dtype=np.int64)
        )
    assert counter.num_keys == 3
    assert again.prior_count[again.inverse].tolist() == [1, 2, 1, 2]
    assert again.total_count[again.inverse].tolist() == [2, 4, 2, 4]
    assert again.key_uid[again.inverse].tolist() == first.key_uid[first.inverse][::-1].tolist()


def test_keys_sharing_a_mix_but_not_the_last_column_never_merge():
    """Two keys whose mix ignores their only difference, the last column,
    keep separate counts, first positions and uids across folds."""

    def ignore_last(cols):
        return mix_keys(cols[:-1])

    hashes = np.array([7, 7], dtype=np.uint64)
    sizes = np.array([8, 16], dtype=np.int64)
    devices = np.zeros(2, dtype=np.int32)
    with mock.patch.object(_streaming, "mix_keys", ignore_last):
        counter = CompositeKeyCounter()
        for batch, base in ((slice(0, 1), 0), (slice(1, 2), 1), (slice(0, 2), 2)):
            fold = counter.fold(
                (hashes[batch], devices[batch], sizes[batch]),
                np.arange(base, base + len(hashes[batch]), dtype=np.int64),
            )
    assert counter.num_keys == 2
    assert fold.keys[2][fold.inverse].tolist() == [8, 16]
    assert fold.prior_count.tolist() == [1, 1]
    assert fold.total_count.tolist() == [2, 2]
    assert fold.prior_first_gpos[fold.inverse].tolist() == [0, 1]
    assert fold.key_uid[fold.inverse].tolist() == [0, 1]


def test_mix_separates_keys_that_differ_in_one_column():
    rng = np.random.default_rng(5)
    n = 4000
    cols = [
        rng.choice(np.array(_COLUMN_VALUES[0], dtype=np.uint64), n),
        rng.integers(-(2**31), 2**31, n, dtype=np.int64).astype(np.int32),
        rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64),
    ]
    base = mix_keys(cols)
    assert (mix_keys([col.copy() for col in cols]) == base).all()
    for j in range(len(cols)):
        changed = list(cols)
        changed[j] = cols[j] + cols[j].dtype.type(1)
        assert (mix_keys(changed) != base).all()


def test_mix_rejects_float_columns():
    with np.testing.assert_raises(TypeError):
        mix_keys([np.zeros(3, dtype=np.float64)])
