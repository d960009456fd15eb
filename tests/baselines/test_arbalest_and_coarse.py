"""Tests for the Arbalest-Vec-style checker and the coarse profiler baseline."""

import numpy as np

from repro.baselines.arbalest import ArbalestVecChecker, IssueKind
from repro.baselines.coarse_profiler import CoarseProfiler
from repro.omp.mapping import alloc, from_, to
from repro.omp.runtime import OffloadRuntime


def _runtime_with_checker(conservative=True):
    rt = OffloadRuntime()
    checker = ArbalestVecChecker(conservative=conservative).attach(rt)
    return rt, checker


class TestArbalestUUM:
    def test_read_of_uninitialized_mapping_is_uum(self):
        rt, checker = _runtime_with_checker()
        a = np.zeros(64)
        rt.target(maps=[alloc(a)], reads=[a], kernel=None)
        rt.finish()
        assert [i.kind for i in checker.issues] == [IssueKind.UUM]

    def test_initialized_mapping_is_clean(self):
        rt, checker = _runtime_with_checker()
        a = np.ones(64)
        rt.target(maps=[to(a)], reads=[a], kernel=None)
        rt.finish()
        assert checker.issues == []

    def test_partial_write_flagged_only_in_conservative_mode(self):
        # The paper's false positives: write-only variables reported as UUM.
        for conservative, expected in ((True, [IssueKind.UUM]), (False, [])):
            rt, checker = _runtime_with_checker(conservative=conservative)
            b = np.zeros(64)
            rt.target(maps=[alloc(b)], partial_writes=[b], kernel=None)
            rt.finish()
            assert [i.kind for i in checker.issues] == expected

    def test_full_write_initializes_shadow_state(self):
        rt, checker = _runtime_with_checker()
        b = np.zeros(64)
        with rt.target_data(alloc(b)):
            rt.target(writes=[b], kernel=lambda dev: dev[b].fill(1.0))
            rt.target(reads=[b], kernel=None)
        rt.finish()
        assert checker.issues == []

    def test_issue_deduplication(self):
        rt, checker = _runtime_with_checker()
        b = np.zeros(64)
        with rt.target_data(alloc(b)):
            rt.target(partial_writes=[b], kernel=None)
            rt.target(partial_writes=[b], kernel=None)
        rt.finish()
        assert len(checker.issues) == 1


class TestArbalestOtherClasses:
    def test_stale_data_detected_via_host_write(self):
        rt, checker = _runtime_with_checker()
        a = np.ones(64)
        with rt.target_data(to(a)):
            checker.notify_host_write(int(a.__array_interface__["data"][0]), a.nbytes)
            rt.target(reads=[a], kernel=None)
        rt.finish()
        assert IssueKind.USD in {i.kind for i in checker.issues}

    def test_refreshed_data_is_not_stale(self):
        rt, checker = _runtime_with_checker()
        a = np.ones(64)
        with rt.target_data(to(a)):
            checker.notify_host_write(int(a.__array_interface__["data"][0]), a.nbytes)
            rt.target_update(to=[a])
            rt.target(reads=[a], kernel=None)
        rt.finish()
        assert IssueKind.USD not in {i.kind for i in checker.issues}

    def test_buffer_overflow_detected(self):
        rt, checker = _runtime_with_checker()
        a = np.ones(64)
        with rt.target_data(to(a)):
            checker.notify_host_write(int(a.__array_interface__["data"][0]), a.nbytes * 2)
        rt.finish()
        assert IssueKind.BO in {i.kind for i in checker.issues}

    def test_probe_charges_instrumentation_overhead(self):
        plain = OffloadRuntime()
        a = np.ones(256)
        plain.target(maps=[to(a)], reads=[a], kernel=None, kernel_time=1e-3)
        plain_runtime = plain.finish()

        rt, _ = _runtime_with_checker()
        b = np.ones(256)
        rt.target(maps=[to(b)], reads=[b], kernel=None, kernel_time=1e-3)
        checked_runtime = rt.finish()
        assert checked_runtime > plain_runtime

    def test_report_cell_formats(self):
        rt, checker = _runtime_with_checker()
        a = np.ones(64)
        rt.target(maps=[to(a)], reads=[a], kernel=None)
        rt.finish()
        assert checker.report_cell() == "N/A"
        assert "no data mapping anomalies" in checker.render()


class TestCoarseProfiler:
    def test_aggregates_only(self):
        rt = OffloadRuntime()
        profiler = CoarseProfiler()
        rt.ompt.connect_tool(profiler)
        a = np.ones(1024)
        result = np.zeros(1024)
        rt.target(maps=[to(a), from_(result)], reads=[a], writes=[result],
                  kernel=lambda dev: dev[result].__setitem__(slice(None), dev[a] * 2),
                  kernel_time=1e-4)
        rt.target(maps=[to(a)], reads=[a], kernel=None, kernel_time=1e-4)
        rt.finish()
        profile = profiler.profile
        assert profile.h2d_count == 2
        assert profile.d2h_count == 1
        assert profile.kernel_count == 2
        assert profile.h2d_bytes == 2 * a.nbytes
        assert profile.total_transfer_time > 0.0
        # The coarse profile cannot say whether any transfer was redundant:
        # it exposes no per-pattern information at all.
        assert not hasattr(profile, "duplicate_transfers")
