"""Tests for the offload runtime simulator: mapping semantics, events, costs."""

import inspect

import numpy as np
import pytest

from repro.core.collector import TraceCollector
from repro.events.records import DataOpKind
from repro.omp.costmodel import CostModel, TransferDirection
from repro.omp.errors import MappingError, OutOfDeviceMemoryError, UnmappedAccessError
from repro.omp.mapping import release, to, tofrom
from repro.omp.runtime import OffloadRuntime
from repro.ompt.interface import OmptInterface


def _instrumented_runtime(num_devices: int = 1):
    ompt = OmptInterface()
    collector = TraceCollector(overhead_model=None)
    ompt.connect_tool(collector)
    rt = OffloadRuntime(num_devices=num_devices, ompt=ompt)
    return rt, collector


class TestMappingSemantics:
    def test_target_maps_and_unmaps(self, small_arrays):
        rt, collector = _instrumented_runtime()
        a = small_arrays["a"]
        rt.target(maps=[to(a)], reads=[a], kernel=None)
        assert rt.environment().find_array(a) is None  # unmapped after region
        total = rt.finish()
        trace = collector.finish_trace(total_runtime=total)
        kinds = [e.kind for e in trace.data_op_events]
        assert kinds == [DataOpKind.ALLOC, DataOpKind.TRANSFER_TO_DEVICE, DataOpKind.DELETE]

    def test_tofrom_copies_back(self, small_arrays):
        rt, _ = _instrumented_runtime()
        a = small_arrays["a"].copy()
        original = a.copy()
        rt.target(maps=[tofrom(a)], reads=[a], writes=[a],
                  kernel=lambda dev: dev[a].__imul__(2.0))
        rt.finish()
        assert np.allclose(a, original * 2.0)

    def test_to_does_not_copy_back(self, small_arrays):
        rt, _ = _instrumented_runtime()
        a = small_arrays["a"].copy()
        original = a.copy()
        rt.target(maps=[to(a)], reads=[a], writes=[a],
                  kernel=lambda dev: dev[a].__imul__(2.0))
        rt.finish()
        assert np.allclose(a, original)

    def test_target_data_keeps_data_resident(self, small_arrays):
        rt, collector = _instrumented_runtime()
        a = small_arrays["a"]
        with rt.target_data(to(a)):
            rt.target(reads=[a], kernel=None)
            rt.target(reads=[a], kernel=None)
        total = rt.finish()
        trace = collector.finish_trace(total_runtime=total)
        # Data stays resident across both kernels: exactly one transfer/alloc.
        assert len(trace.transfers_to_devices()) == 1
        assert len(trace.allocations()) == 1

    def test_reference_counting_defers_release(self, small_arrays):
        rt, _ = _instrumented_runtime()
        a = small_arrays["a"]
        with rt.target_data(to(a)):
            with rt.target_data(to(a)):
                assert rt.environment().find_array(a).ref_count == 2
            assert rt.environment().find_array(a).ref_count == 1
        assert rt.environment().find_array(a) is None
        rt.finish()

    def test_implicit_tofrom_mapping(self, small_arrays):
        rt, collector = _instrumented_runtime()
        a = small_arrays["a"]
        rt.target(reads=[a], kernel=None)  # no explicit map clause
        total = rt.finish()
        trace = collector.finish_trace(total_runtime=total)
        kinds = [e.kind for e in trace.data_op_events]
        assert DataOpKind.TRANSFER_TO_DEVICE in kinds
        assert DataOpKind.TRANSFER_FROM_DEVICE in kinds

    def test_enter_exit_data_lifetime(self, small_arrays):
        rt, collector = _instrumented_runtime()
        a = small_arrays["a"]
        rt.target_enter_data(to(a))
        rt.target(reads=[a], kernel=None)
        rt.target_exit_data(release(a))
        total = rt.finish()
        trace = collector.finish_trace(total_runtime=total)
        assert len(trace.allocations()) == 1
        assert len(trace.deletions()) == 1

    def test_target_update_requires_presence(self, small_arrays):
        rt, _ = _instrumented_runtime()
        with pytest.raises(MappingError):
            rt.target_update(to=[small_arrays["a"]])

    def test_target_update_moves_data(self, small_arrays):
        rt, collector = _instrumented_runtime()
        a = small_arrays["a"].copy()
        with rt.target_data(to(a)):
            a[:] = 123.0
            rt.target_update(to=[a])
            rt.target(reads=[a], writes=[a], kernel=lambda dev: dev[a].__iadd__(1.0))
            rt.target_update(from_=[a])
        rt.finish()
        assert np.allclose(a, 124.0)

    def test_always_modifier_forces_transfer(self, small_arrays):
        rt, collector = _instrumented_runtime()
        a = small_arrays["a"]
        with rt.target_data(to(a)):
            rt.target(maps=[to(a, always=True)], reads=[a], kernel=None)
        total = rt.finish()
        trace = collector.finish_trace(total_runtime=total)
        assert len(trace.transfers_to_devices()) == 2

    def test_exit_only_map_types_rejected_on_enter(self, small_arrays):
        rt, _ = _instrumented_runtime()
        with pytest.raises(MappingError):
            rt.target_enter_data(release(small_arrays["a"]))
        with pytest.raises(MappingError):
            rt.target(maps=[release(small_arrays["a"])], kernel=None)

    def test_unmapped_kernel_access_raises(self, small_arrays):
        rt, _ = _instrumented_runtime()
        a, b = small_arrays["a"], small_arrays["b"]
        with pytest.raises(UnmappedAccessError):
            rt.target(maps=[to(a)], kernel=lambda dev: dev[b].sum())

    def test_finish_with_live_mapping_is_an_error(self, small_arrays):
        rt, _ = _instrumented_runtime()
        rt.target_enter_data(to(small_arrays["a"]))
        with pytest.raises(MappingError):
            rt.finish()

    def test_use_after_finish_rejected(self, small_arrays):
        rt, _ = _instrumented_runtime()
        rt.finish()
        with pytest.raises(RuntimeError):
            rt.target(maps=[to(small_arrays["a"])], kernel=None)


class TestDevicesAndCosts:
    def test_virtual_time_accumulates(self, small_arrays):
        rt, _ = _instrumented_runtime()
        a = small_arrays["a"]
        rt.target(maps=[to(a)], reads=[a], kernel=None, kernel_time=1e-3)
        total = rt.finish()
        model = rt.cost_model
        expected_min = (
            model.alloc_time(a.nbytes)
            + model.transfer_time(a.nbytes, TransferDirection.HOST_TO_DEVICE)
            + 1e-3
            + model.delete_time(a.nbytes)
        )
        assert total >= expected_min

    def test_kernel_time_callable(self, small_arrays):
        rt, _ = _instrumented_runtime()
        a = small_arrays["a"]
        seen = {}
        rt.target(maps=[to(a)], reads=[a], kernel=None,
                  kernel_time=lambda nbytes: seen.setdefault("bytes", nbytes) and 1e-4 or 1e-4)
        rt.finish()
        assert seen["bytes"] == a.nbytes

    def test_negative_kernel_time_rejected(self, small_arrays):
        rt, _ = _instrumented_runtime()
        with pytest.raises(ValueError):
            rt.target(maps=[to(small_arrays["a"])], kernel=None, kernel_time=-1.0)

    def test_out_of_device_memory(self):
        rt = OffloadRuntime(device_memory_capacity=1024)
        big = np.zeros(4096)
        with pytest.raises(OutOfDeviceMemoryError):
            rt.target(maps=[to(big)], kernel=None)

    def test_multi_device_environments_independent(self, small_arrays):
        rt, _ = _instrumented_runtime(num_devices=2)
        a = small_arrays["a"]
        rt.target_enter_data(to(a), device_num=0)
        assert rt.environment(0).find_array(a) is not None
        assert rt.environment(1).find_array(a) is None
        rt.target_exit_data(release(a), device_num=0)
        rt.finish()

    def test_invalid_device_number_rejected(self, small_arrays):
        rt, _ = _instrumented_runtime()
        with pytest.raises(ValueError):
            rt.target(maps=[to(small_arrays["a"])], kernel=None, device_num=5)

    def test_host_compute_advances_clock(self):
        rt = OffloadRuntime()
        before = rt.clock.now
        rt.host_compute(seconds=0.5)
        assert rt.clock.now == pytest.approx(before + 0.5)
        with pytest.raises(ValueError):
            rt.host_compute(seconds=1.0, nbytes=10)

    def test_device_allocator_reuses_freed_addresses(self):
        rt = OffloadRuntime()
        pool = rt.device(0).memory
        first = pool.allocate(1000)
        pool.free(first.address)
        second = pool.allocate(1000)
        assert second.address == first.address
        assert pool.total_allocs == 2 and pool.total_frees == 1

    def test_cost_model_validation(self):
        with pytest.raises(ValueError):
            CostModel(h2d_bandwidth=0.0)
        with pytest.raises(ValueError):
            CostModel().transfer_time(-1, TransferDirection.HOST_TO_DEVICE)
        model = CostModel()
        assert model.transfer_time(1 << 20, TransferDirection.HOST_TO_DEVICE) > model.h2d_latency
        assert model.transfer_bandwidth(1 << 26, TransferDirection.HOST_TO_DEVICE) <= model.h2d_bandwidth


class TestOmptEmission:
    def test_callback_counts(self, small_arrays):
        rt, _ = _instrumented_runtime()
        a = small_arrays["a"]
        rt.target(maps=[to(a)], reads=[a], kernel=None)
        rt.finish()
        from repro.ompt.callbacks import CallbackType

        counts = rt.ompt.emission_counts
        assert counts[CallbackType.TARGET_EMI] == 2          # begin + end
        assert counts[CallbackType.TARGET_SUBMIT_EMI] == 2   # begin + end
        assert counts[CallbackType.TARGET_DATA_OP_EMI] == 6  # 3 ops x begin/end

    def test_source_attribution_points_at_caller(self, small_arrays):
        rt, collector = _instrumented_runtime()
        a = small_arrays["a"]
        rt.target(maps=[to(a)], reads=[a], kernel=None)
        total = rt.finish()
        trace = collector.finish_trace(total_runtime=total)
        location = rt.debug_info.lookup(trace.target_events[0].codeptr)
        assert location is not None
        assert location.file.endswith("test_runtime.py")

    def test_call_sites_resolve_to_their_own_lines(self, small_arrays):
        # Call sites are memoised by frame: a site run again keeps its
        # codeptr, and another site in the same function gets its own.
        rt, collector = _instrumented_runtime()
        a = small_arrays["a"]
        lines = []
        for _ in range(3):
            lines.append(inspect.currentframe().f_lineno + 1)
            rt.target(maps=[to(a)], reads=[a], kernel=None)
        lines.append(inspect.currentframe().f_lineno + 1)
        rt.target(maps=[to(a)], reads=[a], kernel=None)
        total = rt.finish()
        trace = collector.finish_trace(total_runtime=total)
        codeptrs = [e.codeptr for e in trace.target_events]
        assert codeptrs[0] == codeptrs[1] == codeptrs[2] != codeptrs[3]
        assert [rt.debug_info.lookup(c).line for c in codeptrs] == lines

    def test_with_block_construct_resolves_to_the_with_line(self, small_arrays):
        # target_data is a context manager: the frame between the runtime
        # and the caller is contextlib's __enter__, which is skipped.
        rt, collector = _instrumented_runtime()
        a = small_arrays["a"]
        line = inspect.currentframe().f_lineno + 1
        with rt.target_data(to(a)):
            pass
        total = rt.finish()
        trace = collector.finish_trace(total_runtime=total)
        location = rt.debug_info.lookup(trace.target_events[0].codeptr)
        assert location.file.endswith("test_runtime.py")
        assert (location.line, location.function) == (
            line, "test_with_block_construct_resolves_to_the_with_line"
        )

    def test_stripped_debug_info_degrades(self, small_arrays):
        rt, collector = _instrumented_runtime()
        a = small_arrays["a"]
        rt.target(maps=[to(a)], reads=[a], kernel=None)
        rt.finish()
        rt.debug_info.stripped = True
        assert rt.debug_info.lookup(collector.trace.target_events[0].codeptr) is None
