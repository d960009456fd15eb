"""Tests for the carry codec: allow-listed pickles of the distributed
engine's result blobs.

Each distributed task's payload list — one
:class:`~repro.core.detectors.table.FindingPart` per detector in its
pass group, plus the folded validation guard — crosses the queue as one
``encode_carries`` blob.  Correctness therefore means *bit-identical
findings*: for any split of the passes into groups and any shard size,
shipping every group's payloads through the codec and gathering them
must produce exactly the serial table.  The benchmark harness's
carry-size probe also encodes every detector pass, so every pass's carry
must still round-trip mid-scan.  Safety means the decoder rebuilds
nothing outside its allow-list: the negative paths below feed it foreign
globals, truncated blobs, non-list top levels and trailing bytes.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.carrycodec import CarryCodecError, decode_carries, encode_carries
from repro.core.detectors._streaming import mix_keys
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
from tests.conftest import FileTouch

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
            assert encode_carries([restored.finalize()]) == encode_carries([original.finalize()])


def _round_trip(value):
    (out,) = decode_carries(encode_carries([value]))
    return out


def test_numpy_values_round_trip_exactly():
    arr = np.arange(12, dtype=np.uint32).reshape(3, 4)
    out = _round_trip(arr)
    assert out.dtype == arr.dtype and out.shape == arr.shape
    assert (out == arr).all()
    assert out.flags.writeable  # decoded carries may fold on

    empty = np.empty(0, dtype=np.float64)
    out = _round_trip(empty)
    assert out.dtype == empty.dtype and out.shape == (0,)

    scalar = np.float32(1.5)
    out = _round_trip(scalar)
    assert isinstance(out, np.float32) and out == scalar

    dtype = np.dtype("<i8")
    assert _round_trip(dtype) == dtype


def test_grow_array_carries_its_filled_prefix_and_grows_after_decode():
    """A GrowArray pickles only its ``size`` filled slots, and a decoded
    one (empty included: zero capacity would never double) extends on."""
    from repro.core.detectors._streaming import GrowArray

    for size in (0, 3, 17):
        grow = GrowArray(np.int64)
        grow.extend(np.arange(size))
        out = _round_trip(grow)
        assert out._arr.size == max(size, 1)
        out.extend(np.arange(40))
        assert out.view().tolist() == list(range(size)) + list(range(40))


# --------------------------------------------------------------------- #
# Negative paths: the decoder rebuilds nothing outside its allow-list
# --------------------------------------------------------------------- #
def test_foreign_global_is_refused_before_it_is_called(tmp_path):
    control, marker = tmp_path / "control", tmp_path / "marker"
    # The payload is live: plain pickle would create its marker file.
    pickle.loads(pickle.dumps([FileTouch(control)], protocol=5)).pop().close()
    assert control.exists()
    with pytest.raises(CarryCodecError, match="not allowed"):
        decode_carries(encode_carries([FileTouch(marker)]))
    assert not marker.exists()


@pytest.mark.parametrize(
    "value",
    [os.getcwd, mix_keys, np.load, np.ndarray, pickle.loads, object()],
    ids=["getcwd", "allowed-module-function", "numpy-function", "ndarray", "loads", "object"],
)
def test_every_global_outside_the_allow_list_is_refused(value):
    """The allow-list is by (module, name): a function of an allowed module
    or of NumPy is as foreign as any other global."""
    blob = encode_carries([value])
    with pytest.raises(CarryCodecError, match="not allowed"):
        decode_carries(blob)


def _small_payload() -> bytes:
    stream = as_event_stream(TRACE, 300)
    (payload,) = run_pass_group(stream, [PassSpec(DuplicateTransferPass)])
    return encode_carries([payload, np.float64(2.5), np.dtype("<u8")])


def test_every_truncation_is_refused():
    blob = _small_payload()
    assert len(decode_carries(blob)) == 3
    for cut in range(len(blob)):
        with pytest.raises(CarryCodecError):
            decode_carries(blob[:cut])


@pytest.mark.parametrize(
    "top",
    [(1, 2), {"a": 1}, None, 7, np.arange(3)],
    ids=["tuple", "dict", "none", "int", "array"],
)
def test_non_list_top_level_is_refused(top):
    with pytest.raises(CarryCodecError, match="one pickled list"):
        decode_carries(pickle.dumps(top, protocol=5))


@pytest.mark.parametrize(
    "tail", [b"\x00", b".", encode_carries([])], ids=["zero-byte", "stop", "second-pickle"]
)
def test_trailing_bytes_are_refused(tail):
    with pytest.raises(CarryCodecError, match="one pickled list"):
        decode_carries(_small_payload() + tail)


def test_codec_rejects_garbage():
    for data in (b"", b"NOPE" + b"\x00" * 16, b"\x80\x05not a pickle"):
        with pytest.raises(CarryCodecError):
            decode_carries(data)
