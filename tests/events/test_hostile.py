"""The adversarial generator: deterministic, valid, genuinely hostile.

The fuzz harness is only as good as its inputs, so these tests pin the
three properties :mod:`repro.events.hostile` promises: the same seed
always yields the same trace (failures reproduce), every trace is valid
per :func:`validate_trace` (the differential oracle's contract), and the
advertised hostile features — deep alloc nesting, split round-trip legs,
duplicate storms, ping-pong hashes, kernel-only stretches, empty shards,
mixed formats — actually appear.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.events.columnar import CODE_ALLOC, CODE_DELETE, CODE_FROM_DEVICE, CODE_TO_DEVICE
from repro.events.hostile import make_hostile_trace, write_hostile_store
from repro.events.store import ShardedTraceStore, merge_shards
from repro.events.validation import validate_trace


def test_same_seed_same_trace():
    a = make_hostile_trace(4000, seed=99)
    b = make_hostile_trace(4000, seed=99)
    assert len(a) == len(b)
    assert np.array_equal(a.do_seq, b.do_seq)
    assert np.array_equal(a.do_content_hash, b.do_content_hash)
    assert np.array_equal(a.do_start_time, b.do_start_time)
    assert np.array_equal(a.tgt_seq, b.tgt_seq)
    assert a.num_devices == b.num_devices


def test_different_seeds_differ():
    a = make_hostile_trace(4000, seed=1)
    b = make_hostile_trace(4000, seed=2)
    assert len(a) != len(b) or not np.array_equal(a.do_seq, b.do_seq)


@pytest.mark.parametrize("seed", [0, 1, 7, 123, 20260808])
def test_traces_are_valid_across_seeds(seed):
    trace = make_hostile_trace(3000, seed=seed)
    validate_trace(trace)  # raises on any contract violation
    assert len(trace) >= 3000


def test_size_scales():
    small = make_hostile_trace(500, seed=5)
    large = make_hostile_trace(20_000, seed=5)
    assert len(large) > 10 * len(small)


def test_hostile_features_present():
    trace = make_hostile_trace(20_000, seed=42)
    kind = trace.do_kind

    # Deep nesting: peak live allocations well beyond any friendly trace.
    alloc_delta = np.where(kind == CODE_ALLOC, 1, np.where(kind == CODE_DELETE, -1, 0))
    assert int(np.cumsum(alloc_delta).max()) >= 50

    # Duplicate storms: the pool hashes recur many times.
    h2d = trace.do_content_hash[kind == CODE_TO_DEVICE]
    values, counts = np.unique(h2d, return_counts=True)
    assert counts.max() >= 20

    # Same-timestamp bursts: repeated start times in the data-op stream.
    assert (np.diff(trace.do_start_time) == 0).any()
    # ... while remaining chronologically ordered, as validity requires.
    assert (np.diff(trace.do_start_time) >= 0).all()

    # Kernel-only stretches exist (long runs with no data op between).
    assert trace.num_target_events > 0

    # Ping-pong: a hash sent to every device and returned unmodified many
    # times — a busy two-key round-trip hash on one device, a hash with a
    # key per device (three or more keys) on more.
    for ping_pong in (trace, make_hostile_trace(20_000, seed=42, num_devices=3)):
        assert _ping_pong_hashes(ping_pong)


def _ping_pong_hashes(trace) -> list[int]:
    """Hashes with at least 20 device-to-host legs whose host-to-device
    and device-to-host legs each reach every device."""
    kind, hashes = trace.do_kind, trace.do_content_hash
    devices = set(range(trace.num_devices))
    found = []
    for value in np.unique(hashes[kind == CODE_FROM_DEVICE]).tolist():
        out = (kind == CODE_TO_DEVICE) & (hashes == value)
        back = (kind == CODE_FROM_DEVICE) & (hashes == value)
        if (
            back.sum() >= 20
            and set(trace.do_dest_device_num[out].tolist()) == devices
            and set(trace.do_src_device_num[back].tolist()) == devices
        ):
            found.append(value)
    return found


def test_hostile_store_layout(tmp_path):
    trace = make_hostile_trace(6000, seed=3)
    store = write_hostile_store(
        trace, tmp_path / "store", seed=3, min_shard_events=64, max_shard_events=700
    )
    # Random cuts: shard sizes genuinely vary.
    sizes = [s.num_events for s in store.shards if s.num_events]
    assert len(set(sizes)) > 1
    # Mixed formats and at least one spliced empty shard.
    assert {s.format for s in store.shards} == {"npz", "odpf"}
    assert any(s.num_events == 0 for s in store.shards)
    # The layout is hostile; the content is not — bit-identical round trip.
    merged = merge_shards(store)
    assert merged.to_trace().to_dict() == trace.to_trace().to_dict()
    # And the store reopens from disk with the spliced manifest intact.
    reopened = ShardedTraceStore.open(tmp_path / "store")
    assert reopened.num_shards == store.num_shards


def test_hostile_store_is_deterministic(tmp_path):
    t = make_hostile_trace(3000, seed=8)
    a = write_hostile_store(t, tmp_path / "a", seed=8)
    b = write_hostile_store(t, tmp_path / "b", seed=8)
    assert [s.to_dict() for s in a.shards] == [s.to_dict() for s in b.shards]


def test_invalid_event_count_rejected():
    with pytest.raises(ValueError):
        make_hostile_trace(0, seed=1)
