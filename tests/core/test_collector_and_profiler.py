"""Tests for the OMPT trace collector, overhead model, report and profiler."""

import numpy as np
import pytest

from repro.apps.base import AppVariant, ProblemSize
from repro.apps.registry import get_app
from repro.core.analysis import analyze_trace
from repro.core.collector import TraceCollector
from repro.core.overhead import OverheadModel, overhead_accumulation_rate, space_overhead_bytes
from repro.core.profiler import OMPDataPerf, run_uninstrumented
from repro.events.columnar import ColumnarTrace
from repro.events.records import DataOpEvent, DataOpKind, TargetEvent, TargetKind
from repro.events.store import TraceWriter, merge_shards
from repro.events.trace import Trace
from repro.hashing import DEFAULT_HASHER, get_hasher
from repro.omp.mapping import to, tofrom
from repro.omp.runtime import OffloadRuntime
from repro.ompt.callbacks import CallbackType, Endpoint
from repro.ompt.interface import OmptInterface


def listing1_program(rt: OffloadRuntime) -> None:
    """The paper's Listing 1: array `a` mapped to two consecutive regions."""
    a = np.arange(256, dtype=np.float64)
    total = np.zeros(1)
    prod = np.ones(1)
    rt.target(maps=[to(a), tofrom(total)], reads=[a], writes=[total],
              kernel=lambda dev: dev[total].__setitem__(0, dev[a].sum()))
    rt.target(maps=[to(a), tofrom(prod)], reads=[a], writes=[prod],
              kernel=lambda dev: dev[prod].__setitem__(0, dev[a][:4].prod()))


class TestOverheadModel:
    def test_hash_rate_regimes(self):
        model = OverheadModel()
        assert model.hash_rate(1024) == model.hash_rate_cached
        assert model.hash_rate(model.llc_bytes + 1) == model.hash_rate_streaming

    def test_hash_time_monotone_in_size(self):
        model = OverheadModel()
        assert model.hash_time(1 << 20) < model.hash_time(1 << 26)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            OverheadModel(hash_rate_cached=0.0)
        with pytest.raises(ValueError):
            OverheadModel(per_event_seconds=-1.0)
        with pytest.raises(ValueError):
            OverheadModel().hash_time(-1)

    def test_space_overhead_formula(self):
        assert space_overhead_bytes(10, 5) == 10 * 72 + 5 * 24
        with pytest.raises(ValueError):
            space_overhead_bytes(-1, 0)


class TestCollector:
    def _run(self, collector: TraceCollector):
        ompt = OmptInterface()
        ompt.connect_tool(collector)
        rt = OffloadRuntime(ompt=ompt)
        listing1_program(rt)
        total = rt.finish()
        return collector.finish_trace(total_runtime=total, program_name="listing1"), rt

    def test_records_all_event_classes(self):
        collector = TraceCollector()
        trace, _ = self._run(collector)
        kinds = {e.kind for e in trace.data_op_events}
        assert DataOpKind.ALLOC in kinds
        assert DataOpKind.TRANSFER_TO_DEVICE in kinds
        assert DataOpKind.DELETE in kinds
        assert all(t.kind is TargetKind.TARGET for t in trace.target_events)
        assert len(trace.target_events) == 2

    def test_transfers_are_hashed(self):
        collector = TraceCollector()
        trace, _ = self._run(collector)
        for event in trace.transfers():
            assert event.content_hash is not None

    def test_identical_payloads_share_hash(self):
        collector = TraceCollector()
        trace, _ = self._run(collector)
        to_device = [e for e in trace.transfers_to_devices() if e.nbytes == 256 * 8]
        assert len(to_device) == 2
        assert to_device[0].content_hash == to_device[1].content_hash

    def test_overhead_charged_to_clock(self):
        collector = TraceCollector(overhead_model=OverheadModel())
        _, rt = self._run(collector)
        assert rt.clock.tool_overhead > 0.0

    def test_zero_overhead_mode(self):
        collector = TraceCollector(overhead_model=None)
        _, rt = self._run(collector)
        assert rt.clock.tool_overhead == 0.0

    def test_collision_audit_mode(self):
        collector = TraceCollector(audit_collisions=True)
        self._run(collector)
        assert collector.auditor is not None
        assert collector.auditor.observed == collector.hashed_payloads
        assert collector.auditor.is_collision_free()

    def test_finalize_flag(self):
        collector = TraceCollector()
        self._run(collector)
        assert collector.finalized

    def test_accumulation_rate(self):
        collector = TraceCollector()
        trace, _ = self._run(collector)
        assert overhead_accumulation_rate(trace) > 0.0



class _ReferenceTool:
    """An independent OMPT tool: builds object events straight from the
    records and hashes each payload's bytes (the oracle for the collector's
    tuple-record, deferred-settle, chunked-hash ingest path)."""

    def __init__(self) -> None:
        self.hasher = get_hasher(DEFAULT_HASHER)
        self.trace = Trace(num_devices=0)
        self.devices: set[int] = set()
        self.begins: dict = {}
        self.kernels: dict = {}

    def initialize(self, interface: OmptInterface) -> None:
        interface.set_callback(CallbackType.DEVICE_INITIALIZE, self.devices.add)
        interface.set_callback(CallbackType.TARGET_EMI, self.on_target)
        interface.set_callback(CallbackType.TARGET_SUBMIT_EMI, self.on_submit)
        interface.set_callback(CallbackType.TARGET_DATA_OP_EMI, self.on_data_op)

    def finalize(self) -> None:
        pass

    def _seq(self) -> int:
        return len(self.trace.data_op_events) + len(self.trace.target_events)

    def on_target(self, record) -> None:
        if record.endpoint is Endpoint.BEGIN:
            self.begins[record.target_id] = record
            return
        begin = self.begins.pop(record.target_id)
        interval = self.kernels.pop(record.target_id, None)
        if begin.kind is TargetKind.TARGET and interval is not None:
            start, end = interval
        else:
            start, end = begin.time, record.time
        self.trace.target_events.append(TargetEvent(
            seq=self._seq(), kind=begin.kind, device_num=begin.device_num,
            start_time=start, end_time=end, codeptr=begin.codeptr_ra,
            target_id=record.target_id, name=begin.name,
        ))

    def on_submit(self, record) -> None:
        if record.endpoint is Endpoint.END and record.start_time is not None:
            self.kernels[record.target_id] = (record.start_time, record.end_time or record.time)

    def on_data_op(self, record) -> None:
        if record.endpoint is Endpoint.BEGIN:
            return
        content_hash = None
        if record.optype.is_transfer:
            content_hash = self.hasher.hash_bytes(record.payload.tobytes())
        self.trace.data_op_events.append(DataOpEvent(
            seq=self._seq(), kind=record.optype,
            src_device_num=record.src_device_num, dest_device_num=record.dest_device_num,
            src_addr=record.src_addr, dest_addr=record.dest_addr, nbytes=record.bytes,
            start_time=record.start_time, end_time=record.end_time,
            content_hash=content_hash, codeptr=record.codeptr_ra,
            target_id=record.target_id, variable=record.variable,
        ))


_DATA_OP_COLUMN_NAMES = (
    "seq", "kind", "src_device_num", "dest_device_num", "src_addr", "dest_addr",
    "nbytes", "start_time", "end_time", "content_hash", "has_content_hash",
    "codeptr", "has_codeptr", "target_id", "has_target_id",
)
_TARGET_COLUMN_NAMES = (
    "seq", "kind", "device_num", "start_time", "end_time",
    "codeptr", "has_codeptr", "target_id", "has_target_id",
)


class TestIngestDifferential:
    """The writer-backed collector and an object-event reference tool watch
    one run through one interface; the store must hold exactly its rows."""

    @pytest.mark.parametrize("shard_events", [7, 4096])
    @pytest.mark.parametrize("app", ["bfs", "hotspot", "lud", "resize-omp"])
    def test_store_matches_reference_tool(self, tmp_path, app, shard_events):
        bench = get_app(app)
        size, variant = ProblemSize.parse("small"), AppVariant.BASELINE
        name = bench.program_name(size, variant)
        ompt = OmptInterface()
        writer = TraceWriter(tmp_path / "run.store", shard_events=shard_events, program_name=name)
        collector = ompt.connect_tool(TraceCollector(writer=writer))
        reference = ompt.connect_tool(_ReferenceTool())
        rt = OffloadRuntime(ompt=ompt, program_name=name)
        bench.build_program(size, variant)(rt)
        total = rt.finish()
        store = collector.finish_store(total_runtime=total, program_name=name)

        reference.trace.num_devices = len(reference.devices)
        expected = ColumnarTrace.from_trace(reference.trace)
        merged = merge_shards(store)
        assert expected.num_data_op_events > 0 and expected.num_target_events > 0
        assert merged.num_devices == expected.num_devices
        assert merged.program_name == name
        for column in _DATA_OP_COLUMN_NAMES:
            np.testing.assert_array_equal(
                merged.do_column(column), expected.do_column(column), err_msg=column
            )
        for column in _TARGET_COLUMN_NAMES:
            np.testing.assert_array_equal(
                merged.tgt_column(column), expected.tgt_column(column), err_msg=column
            )
        assert merged._do_variables == expected._do_variables
        assert merged._tgt_names == expected._tgt_names


class TestProfiler:
    def test_profile_detects_listing1_issues(self):
        result = OMPDataPerf().profile(listing1_program, program_name="listing1")
        counts = result.analysis.counts
        assert counts.duplicate_transfers >= 1
        assert counts.repeated_allocations >= 1
        assert result.instrumented_runtime > 0.0
        assert result.tool_overhead > 0.0
        assert result.space_overhead_bytes == result.trace.space_overhead_bytes()

    def test_instrumented_runtime_exceeds_native(self):
        result = OMPDataPerf().profile(listing1_program)
        native = run_uninstrumented(listing1_program)
        assert result.instrumented_runtime > native
        assert result.native_runtime_estimate == pytest.approx(native, rel=0.05)

    def test_offline_analysis_of_saved_trace(self, tmp_path):
        result = OMPDataPerf().profile(listing1_program, program_name="listing1")
        path = tmp_path / "trace.json"
        result.trace.save(path)
        from repro.events.trace import Trace

        loaded = Trace.load(path)
        offline = OMPDataPerf().analyze(loaded)
        assert offline.counts == result.analysis.counts

    def test_report_rendering_contains_sections(self):
        result = OMPDataPerf().profile(listing1_program, program_name="listing1")
        text = result.render_report()
        assert "Duplicate Target Data Transfer Analysis" in text
        assert "Round-Trip Target Data Transfer Analysis" in text
        assert "Repeated Device Memory Allocation Analysis" in text
        assert "Optimization Potential" in text
        assert "predicted speedup" in text

    def test_source_attribution_in_report(self):
        result = OMPDataPerf().profile(listing1_program, program_name="listing1")
        # The duplicate finding should be attributed to this test file.
        assert "test_collector_and_profiler.py" in result.render_report()

    def test_analysis_without_debug_info_uses_raw_pointers(self):
        result = OMPDataPerf().profile(listing1_program, program_name="listing1")
        report = analyze_trace(result.trace, debug_info=None)
        assert "0x0000" in report.render() or "0x" in report.render()

    def test_multi_device_profiling(self):
        def program(rt: OffloadRuntime) -> None:
            a = np.arange(64, dtype=np.float64)
            for device in range(2):
                rt.target(maps=[to(a)], reads=[a], kernel=None, device_num=device)

        result = OMPDataPerf().profile(program, num_devices=2)
        assert result.trace.num_devices == 2
        devices_seen = {e.dest_device_num for e in result.trace.transfers_to_devices()}
        assert devices_seen == {0, 1}

    def test_multi_device_streaming_profile(self, tmp_path):
        # Bounded-memory ingest of a multi-device run: every shard was
        # written before the final device count was known, and validation
        # (validate=True default) must still accept the store.
        def program(rt: OffloadRuntime) -> None:
            a = np.arange(64, dtype=np.float64)
            for device in range(2):
                rt.target(maps=[to(a)], reads=[a], kernel=None, device_num=device)

        result = OMPDataPerf().profile_streaming(
            program, tmp_path / "multi.store", shard_events=2, num_devices=2
        )
        assert result.store.num_devices == 2
        assert result.store.num_shards > 1
        expected = OMPDataPerf().profile(program, num_devices=2)
        assert result.analysis.counts == expected.analysis.counts
        assert result.analysis.potential == expected.analysis.potential
