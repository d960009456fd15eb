"""The columnar findings table: round trips, laziness and pinned output.

:class:`~repro.core.detectors.table.FindingTable` is what counts, the
potential estimate and the rendered report are computed from.  These
tests pin its contracts:

* adapting its own object views back (``from_findings(to_objects())``)
  reproduces an equal table, for tables gathered from stores and built
  from in-memory traces alike;
* the per-category object views of a report are built from the gathered
  columns, never from the source — they still resolve after the store's
  directory is gone;
* per-finding wasted time and the potential's time saved, summed from the
  columns, equal the finding objects' own sums bit for bit;
* one analysis loads each shard at most twice (one fold scan, one gather);
* the rendered report and the potential estimate of two fixed stores are
  byte-identical to what the object-holding findings produced before the
  table existed (the sha256 pins below were recorded with that code);
* the rendered report of three applications, whose findings resolve to
  ``file:line (function)`` through their debug info, is pinned the same way.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.apps.base import AppVariant, ProblemSize
from repro.apps.registry import get_app
from repro.core.analysis import analyze_stream, analyze_trace
from repro.core.detectors.table import CATEGORIES, FindingTable
from repro.core.profiler import OMPDataPerf
from repro.events.columnar import ColumnarTrace
from repro.events.hostile import make_hostile_trace
from repro.events.store import ShardedTraceStore, shard_trace
from repro.events.stream import as_event_stream
from repro.events.synth import make_synthetic_columnar_trace

from tests.conftest import TraceBuilder

#: name -> (trace factory, shard size, sha256 of render(), sha256 of the
#: potential's as_dict() as sorted-key JSON)
GOLDEN = {
    "synthetic": (
        lambda: make_synthetic_columnar_trace(20_000),
        4096,
        "600eb5babdb499728c2a20862d11edb82dd0b4c9145c1b9be973447ed4cecb31",
        "46e77aa5f38b6343a0e09a61aee805961b78dedc37e48b2361280fb4a89be4a6",
    ),
    "hostile-seed11": (
        lambda: make_hostile_trace(3000, seed=11),
        257,
        "72943d60cf0f216d1567b619bcad30cc92c7f0e67497cbfa6dd1e2d0c2f4c9db",
        "29c60b8966954a65e662c30e16ab8baaeb74e0865f9442ec662b17fd7b7fc528",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _category_views(report) -> list[list]:
    return [
        report.duplicate_groups,
        report.round_trip_groups,
        report.repeated_alloc_groups,
        report.unused_allocations,
        report.unused_transfers,
    ]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_text_and_potential_pinned(tmp_path, name):
    make, shard_events, render_sha, potential_sha = GOLDEN[name]
    trace = make()
    store = shard_trace(trace, tmp_path / "t.store", shard_events=shard_events)
    for report in (analyze_stream(store), analyze_trace(trace)):
        assert _sha256(report.render()) == render_sha
        potential = json.dumps(report.potential.as_dict(), sort_keys=True)
        assert _sha256(potential) == potential_sha


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_events=st.integers(min_value=20, max_value=1500),
    shard_events=st.integers(min_value=1, max_value=400),
)
def test_from_findings_round_trips(tmp_path_factory, seed, num_events, shard_events):
    trace = make_hostile_trace(num_events, seed=seed)
    store = shard_trace(
        trace, tmp_path_factory.mktemp("rt") / "t.store", shard_events=shard_events
    )
    for table in (analyze_stream(store).findings, analyze_trace(trace).findings):
        rebuilt = FindingTable.from_findings(table.to_objects())
        assert rebuilt == table
        assert rebuilt.issue_counts() == table.issue_counts()
        assert rebuilt.to_objects() == table.to_objects()
        # the column sums are the objects' own sums, bit for bit
        for category, found in zip(CATEGORIES, table.to_objects()):
            assert table.wasted_times(category) == [f.wasted_time for f in found]


_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["round_trip", "duplicate", "remap", "kernel"]),
        st.floats(min_value=1e-7, max_value=1e-2),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(steps=_STEPS, shard_events=st.integers(min_value=1, max_value=30))
def test_sums_match_the_finding_objects_bit_for_bit(steps, shard_events):
    """Per-finding wasted time and the potential's time saved, summed from
    columns, equal the objects' own sums over irregular durations."""
    b = TraceBuilder()
    b.alloc(0x100, 0xA000)
    for step, duration in steps:
        if step == "round_trip":
            b.h2d(0x100, 0xA000, content_hash=5, duration=duration)
            b.d2h(0x100, 0xA000, content_hash=5, duration=duration * 1.37)
        elif step == "duplicate":
            b.h2d(0x100, 0xA000, content_hash=9, duration=duration)
        elif step == "remap":
            b.delete(0x100, 0xA000, duration=duration)
            b.alloc(0x100, 0xA000, duration=duration / 3)
        else:
            b.kernel(duration=duration)
    b.delete(0x100, 0xA000)
    trace = b.build()
    stream = as_event_stream(ColumnarTrace.from_trace(trace), shard_events)
    for report in (analyze_stream(stream), analyze_trace(trace)):
        table = report.findings
        removable: dict = {}
        for category, found in zip(CATEGORIES, table.to_objects()):
            assert table.wasted_times(category) == [f.wasted_time for f in found]
            for finding in found:
                for event in finding.removable_events():
                    removable.setdefault(event.seq, event)
        potential = report.potential
        assert potential.predicted_time_saved == sum(e.duration for e in removable.values())
        assert potential.removable_event_seqs == frozenset(removable)


def test_table_equality_sees_content_not_labels():
    trace = make_hostile_trace(2000, seed=3)
    table = analyze_trace(trace).findings
    other = analyze_trace(make_hostile_trace(2000, seed=4)).findings
    assert table == FindingTable.from_findings(table.to_objects())
    assert table != other
    # dropping one finding breaks equality even with every row kept
    objects = table.to_objects()
    index = next(i for i, found in enumerate(objects) if found)
    objects[index] = objects[index][1:]
    assert FindingTable.from_findings(objects) != table


def test_object_views_never_touch_the_store(tmp_path):
    trace = make_hostile_trace(4000, seed=7)
    directory = tmp_path / "t.store"
    store = shard_trace(trace, directory, shard_events=300)
    report = analyze_stream(store)
    shutil.rmtree(directory)
    assert not Path(directory).exists()

    expected = analyze_trace(trace)
    assert _category_views(report) == _category_views(expected)
    assert report.round_trip_groups is report.round_trip_groups  # cached
    assert report.render() == expected.render()
    assert any(_category_views(report)), "the trace should produce findings"


def test_one_analysis_loads_each_shard_at_most_twice(tmp_path, monkeypatch):
    trace = make_synthetic_columnar_trace(20_000)
    store = shard_trace(trace, tmp_path / "t.store", shard_events=1024)
    loads: list[int] = []
    original = ShardedTraceStore.load_batch

    def counting(self, index):
        loads.append(index)
        return original(self, index)

    monkeypatch.setattr(ShardedTraceStore, "load_batch", counting)
    report = analyze_stream(store)
    assert report.counts.total > 0
    # one fold scan plus one shared gather: five per-pass rescans would
    # load the finding-bearing shards up to five more times
    assert max(loads.count(i) for i in set(loads)) <= 2
    assert len(loads) <= 2 * store.num_shards


def test_counts_come_from_the_table():
    report = analyze_trace(make_synthetic_columnar_trace(10_000))
    counts = report.counts.as_dict()
    assert tuple(counts.values()) == report.findings.issue_counts()
    assert [p.category for p in report.findings.parts] == list(CATEGORIES)
    assert counts["UA"] == len(report.unused_allocations)
    assert counts["DD"] == sum(g.num_redundant for g in report.duplicate_groups)


#: app -> sha256 of ``OMPDataPerf().profile(...).analysis.render()`` at the
#: small size, as rendered: source files print relative to the common
#: directory of the registered files (``bfs.py:100 (program)``), so the
#: text is the same in every checkout.  The text holds the apps' source
#: line numbers, so editing an app's construct lines moves its pin.  bfs
#: and hotspot were re-recorded when the files stopped printing as absolute
#: paths; lud has no finding at small, so no file name reaches its text.
APP_GOLDEN = {
    "bfs": "d8631555ad4bfd20bfbe61b9179b1134587022d481e5ead8ac0ed2ed4fd97fa3",
    "hotspot": "56b403ee4aaca4654fb8ea551dc963a30a7fd57c97a67edeba2d52e57f4e2597",
    "lud": "22ebb0b5d3d1467d2185d1496365b94b85622d86d07202a455a88756b96b26c3",
}


@pytest.mark.parametrize("name", sorted(APP_GOLDEN))
def test_app_report_text_with_debug_info_pinned(name):
    app = get_app(name)
    result = OMPDataPerf().profile(
        app.build_program(ProblemSize.SMALL, AppVariant.BASELINE),
        program_name=app.program_name(ProblemSize.SMALL, AppVariant.BASELINE),
    )
    report = result.analysis
    text = report.render()
    # every finding resolves to file:line (function) in the app itself,
    # never to a library frame, and no absolute path; lud has none at small
    assert (f" {name}.py:" in text) == report.has_issues
    assert str(Path(repro.__file__).parent) not in text
    assert _sha256(text) == APP_GOLDEN[name]
