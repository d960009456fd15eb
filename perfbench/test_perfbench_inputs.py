"""The benchmark's seeded findings-sparse trace is valid, complete and stable."""

from __future__ import annotations

import numpy as np
import pytest

from inputs import SPARSE_EVENTS, SPARSE_SHARD_EVENTS, make_dense_trace, make_sparse_trace
from repro.core.analysis import analyze_trace
from repro.events.stream import slice_bounds
from repro.events.validation import validate_trace

#: Seed the benchmark was tuned on, and one it never used.
TUNED_SEED = 1
HELD_OUT_SEED = 987_654
#: Total findings the sparse trace must produce on any seed.
FINDINGS_RANGE = (150, 320)


def _columns(trace) -> dict[str, np.ndarray]:
    names = ("seq", "kind", "src_addr", "dest_addr", "nbytes", "start_time", "content_hash")
    return {name: np.array(getattr(trace, f"do_{name}")) for name in names}


@pytest.fixture(scope="module")
def tuned():
    return make_sparse_trace(TUNED_SEED)


def test_sparse_trace_is_valid(tuned):
    assert validate_trace(tuned) == []


def test_sparse_trace_has_every_finding_category(tuned):
    counts = analyze_trace(tuned).counts
    assert all(value > 0 for value in counts.as_dict().values()), counts
    assert FINDINGS_RANGE[0] <= counts.total <= FINDINGS_RANGE[1]


def test_sparse_trace_is_deterministic(tuned):
    again = make_sparse_trace(TUNED_SEED)
    for name, column in _columns(tuned).items():
        np.testing.assert_array_equal(column, _columns(again)[name], err_msg=name)
    np.testing.assert_array_equal(tuned.tgt_start_time, again.tgt_start_time)


def test_held_out_seed_keeps_size_shards_and_findings(tuned):
    held_out = make_sparse_trace(HELD_OUT_SEED)
    assert len(held_out) == len(tuned) == SPARSE_EVENTS
    assert len(slice_bounds(held_out, SPARSE_SHARD_EVENTS)) == len(
        slice_bounds(tuned, SPARSE_SHARD_EVENTS)
    )
    assert validate_trace(held_out) == []
    counts = analyze_trace(held_out).counts
    assert all(value > 0 for value in counts.as_dict().values()), counts
    assert FINDINGS_RANGE[0] <= counts.total <= FINDINGS_RANGE[1]
    assert not np.array_equal(_columns(held_out)["content_hash"], _columns(tuned)["content_hash"])


def test_dense_seed_masks_hashes_without_changing_findings():
    a, b = make_dense_trace(1, num_events=50_000), make_dense_trace(2, num_events=50_000)
    assert not np.array_equal(a.do_content_hash, b.do_content_hash)
    assert analyze_trace(a).counts == analyze_trace(b).counts
