"""Tests for the columnar (structure-of-arrays) trace representation."""

import numpy as np
import pytest

from repro.events.columnar import (
    _MAX_PENDING_ROWS,
    COLUMNAR_FORMAT_VERSION,
    ColumnarTrace,
    as_columnar,
    as_object_trace,
    load_trace,
)
from repro.events.records import DataOpKind, TargetKind
from repro.events.synth import make_synthetic_columnar_trace
from repro.events.trace import Trace
from repro.events.validation import TraceValidationError, validate_trace

from tests.conftest import TraceBuilder


def _sample_trace() -> Trace:
    b = TraceBuilder()
    b.alloc(0x100, 0xA00, nbytes=512, codeptr=0x5555)
    b.h2d(0x100, 0xA00, content_hash=1, nbytes=512)
    b.kernel(name="k0", codeptr=0x6666)
    b.d2h(0x100, 0xA00, content_hash=2, nbytes=512)
    b.delete(0x100, 0xA00, nbytes=512)
    return b.build()


class TestConversion:
    def test_round_trip_is_lossless(self):
        trace = _sample_trace()
        restored = ColumnarTrace.from_trace(trace).to_trace()
        assert restored.data_op_events == trace.data_op_events
        assert restored.target_events == trace.target_events
        assert restored.num_devices == trace.num_devices
        assert restored.program_name == trace.program_name
        assert restored.total_runtime == trace.total_runtime

    def test_optional_fields_preserved(self):
        trace = _sample_trace()
        ct = ColumnarTrace.from_trace(trace)
        alloc = ct.data_op_events[0]
        assert alloc.codeptr == 0x5555
        assert alloc.content_hash is None
        kernel = ct.target_events[0]
        assert kernel.name == "k0"
        assert kernel.codeptr == 0x6666

    def test_trace_to_columnar_hook(self):
        trace = _sample_trace()
        assert trace.to_columnar().to_trace().data_op_events == trace.data_op_events

    def test_as_columnar_and_as_object_are_idempotent(self):
        trace = _sample_trace()
        ct = as_columnar(trace)
        assert as_columnar(ct) is ct
        assert as_object_trace(trace) is trace
        assert as_object_trace(ct).data_op_events == trace.data_op_events


class TestTraceCompatibleApi:
    def test_views_match_object_trace(self):
        trace = _sample_trace()
        ct = ColumnarTrace.from_trace(trace)
        assert ct.transfers() == trace.transfers()
        assert ct.transfers_to_devices() == trace.transfers_to_devices()
        assert ct.transfers_from_devices() == trace.transfers_from_devices()
        assert ct.allocations() == trace.allocations()
        assert ct.deletions() == trace.deletions()
        assert ct.kernel_events() == trace.kernel_events()
        assert ct.alloc_delete_pairs() == trace.alloc_delete_pairs()

    def test_aggregates_match_object_trace(self):
        trace = _sample_trace()
        ct = ColumnarTrace.from_trace(trace)
        assert ct.summary() == trace.summary()
        assert len(ct) == len(trace)
        assert ct.end_time == pytest.approx(trace.end_time)
        assert ct.space_overhead_bytes() == trace.space_overhead_bytes()

    def test_events_for_device(self):
        b = TraceBuilder(num_devices=2)
        b.h2d(0x1, 0xA, content_hash=1, device=0)
        b.h2d(0x2, 0xB, content_hash=2, device=1)
        b.kernel(device=1)
        ct = ColumnarTrace.from_trace(b.build())
        sub = ct.events_for_device(1)
        assert len(sub.data_op_events) == 1
        assert len(sub.target_events) == 1

    def test_all_events_chronological(self):
        ct = ColumnarTrace.from_trace(_sample_trace())
        events = list(ct.all_events_chronological())
        assert len(events) == len(ct)
        starts = [e.start_time for e in events]
        assert starts == sorted(starts)


class TestColumnsAndAppend:
    def test_column_views_are_zero_copy(self):
        ct = ColumnarTrace.from_trace(_sample_trace())
        view = ct.do_start_time
        assert view.base is not None  # a slice of the backing buffer
        assert view.size == ct.num_data_op_events

    def test_amortized_growth(self):
        ct = ColumnarTrace()
        for i in range(300):
            ct.append_data_op(
                seq=i, kind=DataOpKind.ALLOC, src_device_num=1, dest_device_num=0,
                src_addr=0x100, dest_addr=0xA00 + i, nbytes=64,
                start_time=float(i), end_time=float(i) + 0.5,
            )
        assert ct.num_data_op_events == 300
        assert ct._data_ops.capacity >= 300
        # Capacity doubles: far fewer reallocations than appends.
        assert ct._data_ops.capacity <= 1024

    def test_append_enforces_event_invariants(self):
        # The invariants raise at append time, before the row is queued.
        ct = ColumnarTrace()
        bad_rows = (
            dict(kind=DataOpKind.ALLOC, nbytes=-1, start_time=0.0, end_time=1.0),
            dict(kind=DataOpKind.ALLOC, nbytes=8, start_time=1.0, end_time=0.0),
            dict(kind=DataOpKind.TRANSFER_TO_DEVICE, nbytes=8, start_time=0.0, end_time=1.0),
        )
        for fields in bad_rows:
            with pytest.raises(ValueError):
                ct.append_data_op(
                    seq=0, src_device_num=1, dest_device_num=0, src_addr=0,
                    dest_addr=0, content_hash=None, **fields,
                )
        with pytest.raises(ValueError):
            ct.append_target(
                seq=0, kind=TargetKind.TARGET, device_num=0,
                start_time=1.0, end_time=0.0,
            )
        assert len(ct) == 0
        assert ct.do_seq.size == 0 and ct.tgt_seq.size == 0

    def test_append_invalidates_object_cache(self):
        ct = ColumnarTrace.from_trace(_sample_trace())
        before = len(ct.data_op_events)
        ct.append_data_op(
            seq=99, kind=DataOpKind.ALLOC, src_device_num=1, dest_device_num=0,
            src_addr=0x1, dest_addr=0xF00, nbytes=8, start_time=9.0, end_time=9.1,
        )
        assert len(ct.data_op_events) == before + 1

    def test_end_time_is_max_over_all_events(self):
        # A long-running first event ends after the last appended event:
        # end_time must be the max over all events, not the last element.
        from repro.events.records import DataOpEvent

        def op(seq, kind, start, end):
            return DataOpEvent(
                seq=seq, kind=kind, src_device_num=1, dest_device_num=0,
                src_addr=0x1, dest_addr=0xA, nbytes=8,
                start_time=start, end_time=end,
            )

        trace = Trace(num_devices=1)
        trace.append_data_op_event(op(0, DataOpKind.ALLOC, 0.0, 10.0))
        trace.append_data_op_event(op(1, DataOpKind.DELETE, 1.0, 2.0))
        assert trace.end_time == pytest.approx(10.0)
        ct = ColumnarTrace.from_trace(trace)
        assert ct.end_time == pytest.approx(10.0)


def _append_alloc(ct: ColumnarTrace, i: int, **overrides) -> None:
    fields = dict(
        seq=i, kind=DataOpKind.ALLOC, src_device_num=1, dest_device_num=0,
        src_addr=0x100 + i, dest_addr=0xA00 + i, nbytes=64,
        start_time=float(i), end_time=i + 0.5,
    )
    fields.update(overrides)
    ct.append_data_op(**fields)


#: Every way of reading a column group, each of which settles queued rows.
_COLUMN_READS = {
    "view": lambda ct: ct.do_src_addr,
    "arrays": lambda ct: ct._data_ops._arrays,
    "compact": lambda ct: ct._data_ops.compact(),
    "capacity": lambda ct: ct._data_ops.capacity,
    "extend_columns": lambda ct: ct.extend_from(ColumnarTrace.from_trace(_sample_trace())),
    "object_events": lambda ct: ct.data_op_events,
    "binary": lambda ct: ct.to_binary_bytes(),
    "flat": lambda ct: ct.to_flat_payload(),
}


class TestDeferredSettle:
    """Appends queue rows; a row numpy cannot store fails at the next read."""

    @pytest.mark.parametrize("read", sorted(_COLUMN_READS))
    @pytest.mark.parametrize(
        "bad",
        [dict(src_addr=-1), dict(codeptr=1 << 64)],
        ids=["negative-src-addr", "codeptr-2**64"],
    )
    def test_unstorable_row_raises_at_the_next_read(self, read, bad):
        ct = ColumnarTrace()
        _append_alloc(ct, 0)
        with pytest.raises(OverflowError):
            _append_alloc(ct, 1, **bad)
            _COLUMN_READS[read](ct)

    def test_failed_settle_leaves_settled_and_queued_rows_unchanged(self):
        ct = ColumnarTrace()
        for i in range(3):
            _append_alloc(ct, i)
        settled = {name: ct.do_column(name).copy() for name in ("seq", "src_addr", "codeptr")}
        for i in range(3, 5):
            _append_alloc(ct, i)
        _append_alloc(ct, 5, src_addr=-1)
        _append_alloc(ct, 6, codeptr=0x5555)
        queued = list(ct._data_ops._pending)
        for _ in range(2):  # a failed settle is repeatable: nothing moved
            with pytest.raises(OverflowError):
                ct.do_seq
            assert ct.num_data_op_events == 7
            assert ct._data_ops._pending == queued
            columns = ct._data_ops._columns
            for name, values in settled.items():
                np.testing.assert_array_equal(columns[name][:3], values)

    def test_settle_appends_to_settled_rows(self):
        ct = ColumnarTrace()
        for i in range(100):
            _append_alloc(ct, i)
            if i % 7 == 0:
                assert ct.do_seq.tolist() == list(range(i + 1))
        assert ct.do_seq.tolist() == list(range(100))
        assert ct.do_src_addr.tolist() == [0x100 + i for i in range(100)]
        assert not ct._data_ops._pending

    def test_queue_settles_itself_when_full(self):
        # The row queue stays bounded however long nothing reads the columns.
        ct = ColumnarTrace()
        n = 2 * _MAX_PENDING_ROWS + 5
        for i in range(n):
            _append_alloc(ct, i)
            assert len(ct._data_ops._pending) < _MAX_PENDING_ROWS
        assert ct.num_data_op_events == n
        assert ct.do_seq.tolist() == list(range(n))


class TestBinaryFormat:
    def test_binary_round_trip(self, tmp_path):
        trace = _sample_trace()
        ct = ColumnarTrace.from_trace(trace)
        path = tmp_path / "trace.npz"
        ct.save_binary(path)
        restored = ColumnarTrace.load_binary(path)
        assert restored.data_op_events == trace.data_op_events
        assert restored.target_events == trace.target_events
        assert restored.program_name == trace.program_name
        assert restored.total_runtime == pytest.approx(trace.total_runtime)

    def test_json_interchange_with_object_trace(self, tmp_path):
        ct = ColumnarTrace.from_trace(_sample_trace())
        path = tmp_path / "trace.json"
        ct.save(path)
        assert Trace.load(path).data_op_events == ct.data_op_events

    def test_load_trace_sniffs_formats(self, tmp_path):
        ct = ColumnarTrace.from_trace(_sample_trace())
        json_path = tmp_path / "t.json"
        bin_path = tmp_path / "t.npz"
        ct.save(json_path)
        ct.save_binary(bin_path)
        assert isinstance(load_trace(json_path), Trace)
        assert isinstance(load_trace(bin_path), ColumnarTrace)

    def test_corrupt_archive_rejected_with_value_error(self, tmp_path):
        ct = ColumnarTrace.from_trace(_sample_trace())
        path = tmp_path / "trace.npz"
        ct.save_binary(path)
        path.write_bytes(path.read_bytes()[:100])  # truncate: PK magic survives
        with pytest.raises(ValueError, match="not a valid columnar trace archive"):
            ColumnarTrace.load_binary(path)

    def test_unknown_version_rejected(self, tmp_path):
        ct = ColumnarTrace.from_trace(_sample_trace())
        path = tmp_path / "trace.npz"
        ct.save_binary(path)
        import io
        import json as json_mod
        import zipfile

        # Corrupt the version tag inside the archive's metadata entry.
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json_mod.loads(arrays["meta"].tobytes().decode("utf-8"))
        meta["format_version"] = COLUMNAR_FORMAT_VERSION + 999
        arrays["meta"] = np.frombuffer(
            json_mod.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        path.write_bytes(buffer.getvalue())
        with pytest.raises(ValueError, match="format version"):
            ColumnarTrace.load_binary(path)


class TestValidationAndSynth:
    def test_columnar_validation_passes_valid_trace(self):
        assert validate_trace(ColumnarTrace.from_trace(_sample_trace())) == []

    def test_columnar_validation_catches_out_of_order_events(self):
        ct = ColumnarTrace()
        ct.append_data_op(
            seq=0, kind=DataOpKind.ALLOC, src_device_num=1, dest_device_num=0,
            src_addr=0x1, dest_addr=0xA, nbytes=8, start_time=5.0, end_time=5.1,
        )
        ct.append_data_op(
            seq=1, kind=DataOpKind.DELETE, src_device_num=1, dest_device_num=0,
            src_addr=0x1, dest_addr=0xA, nbytes=8, start_time=1.0, end_time=1.1,
        )
        with pytest.raises(TraceValidationError, match="chronological"):
            validate_trace(ct)

    def test_columnar_validation_catches_live_address_reuse(self):
        ct = ColumnarTrace()
        for seq, t in ((0, 0.0), (1, 1.0)):
            ct.append_data_op(
                seq=seq, kind=DataOpKind.ALLOC, src_device_num=1, dest_device_num=0,
                src_addr=0x1, dest_addr=0xA, nbytes=8, start_time=t, end_time=t + 0.1,
            )
        with pytest.raises(TraceValidationError, match="reuses a live device address"):
            validate_trace(ct)

    def test_columnar_validation_matches_object_validation(self):
        trace = _sample_trace()
        ct = ColumnarTrace.from_trace(trace)
        assert validate_trace(trace, strict=False) == validate_trace(ct, strict=False)

    def test_synthetic_trace_is_valid_and_has_findings(self):
        ct = make_synthetic_columnar_trace(25_000)
        assert validate_trace(ct) == []
        from repro.core.analysis import analyze_trace

        counts = analyze_trace(ct).counts
        assert counts.duplicate_transfers > 0
        assert counts.round_trips > 0
        assert counts.repeated_allocations > 0
        assert counts.unused_allocations > 0
        assert counts.unused_transfers > 0
