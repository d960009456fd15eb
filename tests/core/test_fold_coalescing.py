"""The scan loop folds detectors over coalesced batches.

``fold_batches`` hands every pass, guards first, groups of consecutive
shards holding at least ``FOLD_BATCH_EVENTS`` events, concatenated lazily
by ``ColumnarTrace.concat`` once per group.  These tests pin the grouping
(how many folds, at which gpos, the same batch for guards and detectors),
the pass-through of shards that reach the target alone, the lazy column
reads and views, and ``concat``'s equality with ``merge_stream``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.detectors._streaming import StreamingPass, fold_batch_target, fold_batches
from repro.events.columnar import _DATA_OP_COLUMNS, _TARGET_COLUMNS, ColumnarTrace
from repro.events.records import DataOpKind, TargetKind
from repro.events.store import shard_trace
from repro.events.validation import ValidationPass
from repro.events.stream import as_event_stream, merge_stream

from tests.conftest import TraceBuilder

#: 98 blocks of alloc, h2d, kernel, d2h, delete in 10-event shards: 49
#: shards of 8 data-op rows and 2 target rows each.
SHARD_EVENTS = 10
BLOCKS = 98


def _trace() -> ColumnarTrace:
    b = TraceBuilder()
    for i in range(BLOCKS):
        host, dev = 0x1000 + i * 0x100, 0xA000 + i * 0x100
        b.alloc(host, dev)
        b.h2d(host, dev, content_hash=i % 5)
        b.kernel()
        b.d2h(host, dev, content_hash=i % 5)
        b.delete(host, dev)
    return ColumnarTrace.from_trace(b.build())


class _Recorder(StreamingPass):
    """Records every batch it folds, and the gpos it was folded at."""

    def __init__(self, guard: bool = False, read=()):
        self.guard = guard
        self.read = read
        self.batches: list[ColumnarTrace] = []
        self.offsets: list[int] = []

    def fold(self, batch, offset):
        for name in self.read:
            batch.do_column(name)
        self.batches.append(batch)
        self.offsets.append(offset)

    def fold_group(self, batches, batch, offset):
        self.fold(batch, offset)

    def merge(self, other):
        raise AssertionError("not merged here")

    def finalize(self):
        raise AssertionError("not finalized here")


#: (target, folds): 80 is the sparse benchmark's shape, eight shards per
#: fold and a last fold of one, ceil(490 / 80) = 7 folds.
@pytest.mark.parametrize(
    "target, folds", [(1, 49), (10, 49), (25, 17), (80, 7), (1 << 16, 1)]
)
def test_guards_fold_the_detectors_groups(tmp_path, target, folds):
    store = shard_trace(_trace(), tmp_path / "t.store", shard_events=SHARD_EVENTS)
    assert store.num_shards == 49
    guard, detector = _Recorder(guard=True), _Recorder()
    check = ValidationPass(store.num_devices, store.total_runtime)
    with fold_batch_target(target):
        fold_batches([detector, guard, check], store.batches())

    starts = np.cumsum([0] + [s.num_data_op_events for s in store.shards])
    per_fold = math.ceil(target / SHARD_EVENTS)
    assert len(detector.offsets) == folds
    assert detector.offsets == starts[:-1:per_fold].tolist()
    sizes = [len(batch) for batch in detector.batches]
    assert sizes == [SHARD_EVENTS * per_fold] * (folds - 1) + [sizes[-1]]
    assert sum(sizes) == BLOCKS * 5
    # A guard folds the very batches the detectors fold, at the same gpos:
    # one concatenation per group, shared.
    assert guard.offsets == detector.offsets
    assert all(g is d for g, d in zip(guard.batches, detector.batches, strict=True))
    # Trace validation still counts, and would name, every shard.
    assert check.num_batches == store.num_shards
    assert check.errors() == []


def test_shards_reaching_the_target_pass_through_uncopied():
    ct = _trace()
    # shard sizes 3, 4, 12, 2, 15, 4: the 12- and 15-event shards reach a
    # target of 12 alone, the small ones around them are grouped
    cuts = np.cumsum([0, 3, 4, 12, 2, 15, 4])
    stream = as_event_stream(ct, 1)
    events = list(stream.batches())
    shards = [ColumnarTrace.concat(events[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    detector = _Recorder()
    with fold_batch_target(12):
        fold_batches([detector], shards)
    assert detector.batches[1] is shards[2]
    assert detector.batches[2] is shards[3]  # flushed alone before shard 4
    assert detector.batches[3] is shards[4]
    assert [len(b) for b in detector.batches] == [7, 12, 2, 15, 4]
    assert detector.batches[4] is shards[5]  # a group of one is not copied
    starts = np.cumsum([0] + [s.num_data_op_events for s in shards])
    assert detector.offsets == starts[[0, 2, 3, 4, 5]].tolist()


def test_unread_columns_are_never_concatenated(tmp_path):
    store = shard_trace(_trace(), tmp_path / "t.store", shard_events=SHARD_EVENTS)
    detector = _Recorder(read=("kind", "nbytes"))
    with fold_batch_target(80):
        fold_batches([detector], store.batches())
    grouped = detector.batches[0]
    assert len(grouped) == 80
    assert sorted(grouped._data_ops._columns) == ["kind", "nbytes"]
    assert not grouped._targets._columns


@pytest.mark.parametrize("target", [1, 80])
def test_unread_shard_columns_are_never_viewed(tmp_path, target):
    """A mapped shard builds a column's view on its first read: a scan
    whose passes read two columns views two columns of each shard, and no
    debug-string list is built for shards without debug strings."""
    store = shard_trace(_trace(), tmp_path / "t.store", shard_events=SHARD_EVENTS)
    shards: list[ColumnarTrace] = []

    def loaded():
        for shard in store.batches():
            shards.append(shard)
            yield shard

    detector = _Recorder(read=("kind", "nbytes"))
    with fold_batch_target(target):
        fold_batches([detector], loaded())
    assert len(shards) == store.num_shards
    for shard in shards:
        assert sorted(shard._data_ops._columns) == ["kind", "nbytes"]
        assert not shard._targets._columns
        assert shard._variables is None and shard._names is None


def _named_trace(num_blocks: int) -> ColumnarTrace:
    """A trace whose debug strings vary row by row, some ``None``."""
    ct = ColumnarTrace(num_devices=1, program_name="named")
    seq = 0
    for i in range(num_blocks):
        t = float(i)
        ct.append_data_op(
            seq, DataOpKind.TRANSFER_TO_DEVICE, 1, 0, 0x100 + i, 0xA00 + i, 64,
            t, t + 0.1, content_hash=i % 3, variable=f"v{i}" if i % 2 else None,
        )
        ct.append_target(
            seq + 1, TargetKind.TARGET, 0, t + 0.2, t + 0.3,
            name=None if i % 3 else f"k{i}",
        )
        seq += 2
    return ct


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=12))
def test_concat_equals_merge_stream(num_blocks, shard_events):
    stream = as_event_stream(_named_trace(num_blocks), shard_events)
    expected = merge_stream(stream)
    got = ColumnarTrace.concat(list(stream.batches()))

    def assert_equal():
        assert len(got) == len(expected)
        for name, _ in _DATA_OP_COLUMNS:
            want = expected.do_column(name)
            assert got.do_column(name).dtype == want.dtype
            assert np.array_equal(got.do_column(name), want), name
        for name, _ in _TARGET_COLUMNS:
            want = expected.tgt_column(name)
            assert got.tgt_column(name).dtype == want.dtype
            assert np.array_equal(got.tgt_column(name), want), name
        assert got._do_variables == expected._do_variables
        assert got._tgt_names == expected._tgt_names
        assert got.data_op_events == expected.data_op_events
        assert got.target_events == expected.target_events

    assert_equal()
    # appends land after the concatenated rows, as on the merged trace
    for trace in (got, expected):
        end = trace.end_time
        trace.append_data_op(
            10**6, DataOpKind.ALLOC, 1, 0, 0x1, 0x2, 8, end, end + 1.0, variable="tail"
        )
        trace.append_target(10**6 + 1, TargetKind.UPDATE, 0, end + 1.0, end + 2.0)
    assert_equal()
