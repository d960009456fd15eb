"""Tests for trace validation."""

import pytest

from repro.events.records import DataOpEvent, DataOpKind
from repro.events.trace import Trace
from repro.events.validation import TraceValidationError, validate_trace

from tests.conftest import TraceBuilder


def _valid_trace() -> Trace:
    b = TraceBuilder()
    b.alloc(0x1, 0xA)
    b.h2d(0x1, 0xA, content_hash=5)
    b.kernel()
    b.delete(0x1, 0xA)
    return b.build()


def test_valid_trace_passes():
    assert validate_trace(_valid_trace()) == []


def test_out_of_order_events_detected():
    trace = _valid_trace()
    trace.data_op_events.reverse()
    problems = validate_trace(trace, strict=False)
    assert any("chronological" in p for p in problems)


def test_strict_mode_raises():
    trace = _valid_trace()
    trace.data_op_events.reverse()
    with pytest.raises(TraceValidationError):
        validate_trace(trace)


def test_unknown_device_detected():
    trace = _valid_trace()
    bad = DataOpEvent(
        seq=99, kind=DataOpKind.ALLOC, src_device_num=1, dest_device_num=7,
        src_addr=0x1, dest_addr=0xB, nbytes=8,
        start_time=trace.end_time, end_time=trace.end_time + 1,
    )
    trace.data_op_events.append(bad)
    trace.total_runtime = None
    problems = validate_trace(trace, strict=False)
    assert any("unknown destination device" in p for p in problems)


def test_duplicate_sequence_numbers_detected():
    trace = _valid_trace()
    trace.data_op_events.append(trace.data_op_events[-1])
    problems = validate_trace(trace, strict=False)
    assert any("duplicate data-op event sequence" in p for p in problems)


def test_live_address_reuse_detected():
    b = TraceBuilder()
    b.alloc(0x1, 0xA)
    b.alloc(0x2, 0xA)  # same device address while the first is still live
    problems = validate_trace(b.build(), strict=False)
    assert any("reuses a live device address" in p for p in problems)


def test_transfer_between_same_device_detected():
    b = TraceBuilder()
    event = b.h2d(0x1, 0xA, content_hash=1)
    object.__setattr__(event, "src_device_num", event.dest_device_num)
    problems = validate_trace(b.build(), strict=False)
    assert any("identical source and destination" in p for p in problems)


def test_total_runtime_before_last_event_detected():
    trace = _valid_trace()
    trace.total_runtime = trace.end_time / 2.0
    problems = validate_trace(trace, strict=False)
    assert any("total_runtime" in p for p in problems)


def test_zero_devices_detected():
    trace = Trace(num_devices=0)
    problems = validate_trace(trace, strict=False)
    assert any("at least one target device" in p for p in problems)


@pytest.mark.parametrize(
    "seqs",
    [[0, 1, 2, 3, 4, 5], [0, 2, 2, 1, 2, 5], [5, 5, 5, 5, 5, 5], [3, 1, 3, 0, 1, 4]],
)
def test_columnar_duplicate_seqs_match_object_multiplicities(seqs):
    """Strictly ascending seqs take the columnar fast path (no sort); any
    other order must still report one problem per repeat occurrence."""
    from collections import Counter

    from repro.events.columnar import ColumnarTrace

    b = TraceBuilder()
    for i in range(3):
        b.alloc(0x10 * i, 0xA0 * (i + 1))
        b.kernel()
    trace = b.build()
    for event, seq in zip(trace.data_op_events + trace.target_events, seqs):
        object.__setattr__(event, "seq", seq)
    expected = validate_trace(trace, strict=False)
    problems = validate_trace(ColumnarTrace.from_trace(trace), strict=False)
    assert Counter(problems) == Counter(expected)
    duplicates = [p for p in problems if p.startswith("duplicate")]
    data_seqs, target_seqs = seqs[:3], seqs[3:]
    repeats = (len(data_seqs) - len(set(data_seqs))) + (len(target_seqs) - len(set(target_seqs)))
    assert len(duplicates) == repeats


def test_validate_stream_uses_stream_device_count_without_mutating_batches():
    """A shard flushed before a device initialised carries a stale device
    count; validation checks against the stream's count and leaves the
    batch (possibly a shared view the detectors fold next) untouched."""
    from repro.events.columnar import ColumnarTrace
    from repro.events.validation import validate_stream

    b = TraceBuilder(num_devices=2)
    b.alloc(0x1, 0xA, device=1)
    batch = ColumnarTrace.from_trace(b.build())
    batch.total_runtime = None
    batch.num_devices = 1

    class Stream:
        num_devices = 2
        program_name = None
        total_runtime = None

        def batches(self):
            yield batch

    assert validate_stream(Stream()) == []
    assert batch.num_devices == 1
    Stream.num_devices = 1  # the host becomes device 1, and 2 is unknown
    assert any("unknown source device 2" in p for p in validate_stream(Stream(), strict=False))
