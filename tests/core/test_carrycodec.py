"""Property tests for the compact binary carry codec.

The carry codec replaces pickle on every parallel-engine wire: the warm
pool's result queue and the distributed queue's result blobs both carry
``encode_carries`` payloads.  Correctness therefore means *bit-identical
findings*: for any partition cut, folding partitions, shipping the
carries through the codec, merging and finalizing must produce exactly
what the pickle round-trip (and the serial path) produces — for all five
detectors at once.  Hypothesis drives the cut points: shard size and
worker count together determine where the trace is split, which decides
what lives in each carry (open allocations, pending transfers, partial
key-counter tables, device cursors).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import analyze_stream
from repro.core.carrycodec import (
    CarryCodecError,
    decode_carries,
    decode_value,
    encode_carries,
    encode_value,
)
from repro.core.detectors.duplicates import DuplicateTransferPass
from repro.core.detectors.repeated_allocs import RepeatedAllocationPass
from repro.core.detectors.roundtrips import RoundTripPass
from repro.core.detectors.unused_allocs import UnusedAllocationPass
from repro.core.detectors.unused_transfers import UnusedTransferPass
from repro.core.engine import (
    PassSpec,
    _finalize_all,
    _fold_partition,
    _merge_partition_carries,
)
from repro.events.stream import as_event_stream, partition_stream
from repro.events.synth import make_synthetic_columnar_trace

TRACE = make_synthetic_columnar_trace(900)


def _pass_specs(stream) -> tuple[PassSpec, ...]:
    num_devices = max(stream.num_devices, 1)
    return (
        PassSpec(DuplicateTransferPass),
        PassSpec(RoundTripPass),
        PassSpec(RepeatedAllocationPass),
        PassSpec(UnusedAllocationPass, {"num_devices": num_devices}),
        PassSpec(UnusedTransferPass, {"num_devices": num_devices}),
    )


@settings(max_examples=30, deadline=None)
@given(
    shard_events=st.integers(min_value=1, max_value=250),
    workers=st.integers(min_value=2, max_value=5),
)
def test_codec_round_trip_matches_pickle_path(shard_events, workers):
    """encode → decode → merge → finalize == the pickle path, bit for bit."""
    stream = as_event_stream(TRACE, shard_events)
    specs = _pass_specs(stream)
    partitions = partition_stream(stream, workers)
    if len(partitions) <= 1:
        return  # nothing crosses a wire for single-partition cuts

    chains_pickle = []
    chains_codec = []
    for partition in partitions:
        passes = _fold_partition(specs, partition)
        chains_pickle.append(pickle.loads(pickle.dumps(passes)))
        payload = encode_carries(passes)
        # Encode stability: re-encoding a decoded carry reproduces the
        # exact payload (no hidden state leaks into the wire format).
        assert encode_carries(decode_carries(payload)) == payload
        chains_codec.append(decode_carries(payload))

    via_pickle = _finalize_all(_merge_partition_carries(chains_pickle), stream, 1)
    via_codec = _finalize_all(_merge_partition_carries(chains_codec), stream, 1)
    assert via_codec == via_pickle

    # And both equal the engine-independent serial analysis.
    report = analyze_stream(as_event_stream(TRACE, shard_events))
    serial = [
        report.duplicate_groups,
        report.round_trip_groups,
        report.repeated_alloc_groups,
        report.unused_allocations,
        report.unused_transfers,
    ]
    assert via_codec.to_objects() == serial


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=40),
    st.binary(max_size=40),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_value_round_trip_is_stable(value):
    """decode(encode(x)) re-encodes to the same bytes (NaN-safe equality)."""
    payload = encode_value(value)
    assert encode_value(decode_value(payload)) == payload


def test_numpy_values_round_trip_exactly():
    arr = np.arange(12, dtype=np.uint32).reshape(3, 4)
    out = decode_value(encode_value(arr))
    assert out.dtype == arr.dtype and out.shape == arr.shape
    assert (out == arr).all()
    assert out.flags.writeable  # carries are mutated by merge()

    empty = np.empty(0, dtype=np.float64)
    out = decode_value(encode_value(empty))
    assert out.dtype == empty.dtype and out.shape == (0,)

    scalar = np.float32(1.5)
    out = decode_value(encode_value(scalar))
    assert isinstance(out, np.float32) and out == scalar

    dtype = np.dtype("<i8")
    assert decode_value(encode_value(dtype)) == dtype


def test_codec_rejects_garbage():
    with pytest.raises(CarryCodecError):
        decode_carries(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CarryCodecError):
        decode_value(encode_value(1) + b"\x00")  # trailing bytes
    with pytest.raises(CarryCodecError):
        encode_value(object())  # unregistered type never silently pickles
