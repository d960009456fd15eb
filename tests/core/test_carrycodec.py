"""Property tests for the compact binary carry codec.

The codec carries the distributed engine's results: each task's payload
list — one :class:`~repro.core.detectors.table.FindingPart` per detector
in its pass group, plus the folded validation guard — crosses the queue
as one ``encode_carries`` payload.  Correctness therefore means
*bit-identical findings*: for any split of the passes into groups and
any shard size, shipping every group's payloads through the codec and
gathering them must produce exactly the serial table.  The benchmark
harness's carry-size probe also encodes every detector pass, so every
pass's carry must still encode mid-scan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    SerialEngine,
    gather_groups,
    pass_groups,
    run_pass_group,
)
from repro.events.stream import as_event_stream
from repro.events.synth import make_synthetic_columnar_trace
from repro.events.validation import ValidationPass

TRACE = make_synthetic_columnar_trace(900)


def _pass_specs(stream) -> tuple[PassSpec, ...]:
    num_devices = max(stream.num_devices, 1)
    return (
        PassSpec(DuplicateTransferPass),
        PassSpec(RoundTripPass),
        PassSpec(RepeatedAllocationPass),
        PassSpec(UnusedAllocationPass, {"num_devices": num_devices}),
        PassSpec(UnusedTransferPass, {"num_devices": num_devices}),
        PassSpec(
            ValidationPass,
            {"num_devices": stream.num_devices, "total_runtime": stream.total_runtime},
        ),
    )


@settings(max_examples=30, deadline=None)
@given(
    shard_events=st.integers(min_value=1, max_value=250),
    jobs=st.integers(min_value=1, max_value=6),
)
def test_group_payloads_round_trip_and_gather_to_the_serial_table(shard_events, jobs):
    """encode → decode → re-encode is byte-identical for every group's
    payloads, and the decoded payloads gather to the serial table."""
    stream = as_event_stream(TRACE, shard_events)
    specs = _pass_specs(stream)
    groups = pass_groups(specs, jobs)
    landed = {}
    for position, group in enumerate(groups):
        payloads = run_pass_group(stream, [specs[i] for i in group])
        assert any(isinstance(p, ValidationPass) for p in payloads) == (position == 0)
        payload = encode_carries(payloads)
        # No hidden state leaks into the wire format.
        assert encode_carries(decode_carries(payload)) == payload
        landed[position] = decode_carries(payload)
    assert gather_groups(specs, groups, landed, stream) == SerialEngine().run(specs, stream)


@pytest.mark.parametrize("split", [1, 3])
def test_every_pass_carry_encodes_mid_scan(split):
    """Every pass's carry encodes after part of the stream has been folded,
    and decodes to a pass that folds on and finalizes like the original."""
    stream = as_event_stream(TRACE, 150)
    batches = list(stream.batches())
    offset = sum(batch.num_data_op_events for batch in batches[:split])
    for spec in _pass_specs(stream):
        original = spec.build()
        folded = 0
        for batch in batches[:split]:
            original.fold(batch, folded)
            folded += batch.num_data_op_events
        payload = encode_carries([original])
        (restored,) = decode_carries(payload)
        assert encode_carries([restored]) == payload
        for pass_ in (original, restored):
            at = offset
            for batch in batches[split:]:
                pass_.fold(batch, at)
                at += batch.num_data_op_events
        if spec.cls is ValidationPass:
            assert restored.errors() == original.errors() == []
        else:
            assert encode_value(restored.finalize()) == encode_value(original.finalize())


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
    assert out.flags.writeable  # decoded carries may fold on

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
