"""Tests for the Trace container."""

import pytest

from repro.events.records import DATA_OP_EVENT_BYTES, TARGET_EVENT_BYTES
from repro.events.trace import Trace

from tests.conftest import TraceBuilder


def _sample_trace() -> Trace:
    b = TraceBuilder()
    b.alloc(0x100, 0xA00, nbytes=512)
    b.h2d(0x100, 0xA00, content_hash=1, nbytes=512)
    b.kernel()
    b.d2h(0x100, 0xA00, content_hash=2, nbytes=512)
    b.delete(0x100, 0xA00, nbytes=512)
    return b.build()


class TestTraceViews:
    def test_filters(self):
        trace = _sample_trace()
        assert len(trace.transfers()) == 2
        assert len(trace.transfers_to_devices()) == 1
        assert len(trace.transfers_from_devices()) == 1
        assert len(trace.allocations()) == 1
        assert len(trace.deletions()) == 1
        assert len(trace.kernel_events()) == 1

    def test_totals(self):
        trace = _sample_trace()
        assert trace.total_bytes_transferred() == 1024
        assert trace.total_transfer_time() == pytest.approx(4e-5)
        assert trace.total_kernel_time() == pytest.approx(1e-4)
        assert trace.total_alloc_time() == pytest.approx(1.5e-5)

    def test_space_overhead_accounting(self):
        trace = _sample_trace()
        expected = 4 * DATA_OP_EVENT_BYTES + 1 * TARGET_EVENT_BYTES
        assert trace.space_overhead_bytes() == expected

    def test_host_device_num(self):
        assert Trace(num_devices=3).host_device_num == 3

    def test_runtime_prefers_explicit_total(self):
        trace = _sample_trace()
        assert trace.runtime == pytest.approx(trace.total_runtime)
        trace.total_runtime = None
        assert trace.runtime == pytest.approx(trace.end_time)

    def test_len_and_empty(self):
        assert Trace().is_empty()
        assert len(_sample_trace()) == 5

    def test_events_for_device(self):
        b = TraceBuilder(num_devices=2)
        b.h2d(0x1, 0xA, content_hash=1, device=0)
        b.h2d(0x2, 0xB, content_hash=2, device=1)
        b.kernel(device=1)
        trace = b.build()
        sub = trace.events_for_device(1)
        assert len(sub.data_op_events) == 1
        assert len(sub.target_events) == 1

    def test_summary_keys(self):
        summary = _sample_trace().summary()
        for key in ("num_transfers", "bytes_transferred", "runtime", "space_overhead_bytes"):
            assert key in summary


class TestTraceSerialization:
    def test_json_round_trip(self):
        trace = _sample_trace()
        restored = Trace.from_json(trace.to_json())
        assert restored.num_devices == trace.num_devices
        assert restored.program_name == trace.program_name
        assert restored.data_op_events == trace.data_op_events
        assert restored.target_events == trace.target_events
        assert restored.runtime == pytest.approx(trace.runtime)

    def test_file_round_trip(self, tmp_path):
        trace = _sample_trace()
        path = tmp_path / "trace.json"
        trace.save(path)
        assert Trace.load(path).data_op_events == trace.data_op_events

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_dict({"format_version": 999, "num_devices": 1})


class TestTraceComposition:
    def test_extend_merges_events(self):
        first = _sample_trace()
        other = Trace(num_devices=1)
        n_before = len(first)
        first.extend(other)
        assert len(first) == n_before

    def test_extend_rejects_device_mismatch(self):
        with pytest.raises(ValueError):
            _sample_trace().extend(Trace(num_devices=2))

    def test_sorted_copy_orders_chronologically(self):
        trace = _sample_trace()
        trace.data_op_events.reverse()
        ordered = trace.sorted_copy()
        starts = [e.start_time for e in ordered.data_op_events]
        assert starts == sorted(starts)

    def test_all_events_chronological_interleaves(self):
        trace = _sample_trace()
        events = list(trace.all_events_chronological())
        assert len(events) == len(trace)
        starts = [e.start_time for e in events]
        assert starts == sorted(starts)
