"""The column-wise report renderer against the row-wise renderer it replaced.

:func:`repro.core.report.render_report` formats each findings column once
per distinct value, pads each distinct text once and joins the rows in one
pass.  The oracle below is the row-wise renderer it replaced, kept here
verbatim in behaviour: one ``str.format`` per row, sorted by a stable
descending ``sorted``, every line ``rstrip``-ped.  The rendered text must be
identical for every trace, including ties, zero times, findings without a
code pointer and empty sections.
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import analyze_stream, analyze_trace
from repro.core.report import (
    _percent_of_runtime,
    _timing_columns,
    render_potential_section,
    render_summary_line,
)
from repro.dwarf.attribution import format_location
from repro.dwarf.debuginfo import DebugInfoRegistry
from repro.events.columnar import ColumnarTrace
from repro.events.hostile import make_hostile_trace
from repro.events.store import shard_trace
from repro.util.tables import format_bytes, format_seconds

from tests.conftest import TraceBuilder


# --------------------------------------------------------------------------- #
# oracle: the row-wise renderer
def _oracle_table(columns: list[str], rows: list[list[str]], title: str) -> str:
    widths = [len(c) for c in columns]
    for i, cells in enumerate(zip(*rows)):
        widths[i] = max(widths[i], *map(len, cells))
    template = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [f"=== {title} ===", template.format(*columns).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(template.format(*row).rstrip() for row in rows)
    return "\n".join(lines)


def _oracle_section(report, category, title, columns, cells, located, empty) -> str:
    columns = ["time (%)", "wasted time", *columns, "source location"]
    findings = report.findings
    wasted = findings.wasted_times(category)
    if not wasted:
        return _oracle_table(columns, [], title) + "\n" + empty
    events = findings.events
    codeptrs = events.do_column("codeptr")[located].tolist()
    present = events.do_column("has_codeptr")[located].tolist()
    runtime = report.trace.runtime
    rows = []
    for i in sorted(range(len(wasted)), key=wasted.__getitem__, reverse=True):
        codeptr: Optional[int] = codeptrs[i] if present[i] else None
        seconds = wasted[i]
        rows.append(
            [
                _percent_of_runtime(seconds, runtime),
                format_seconds(seconds),
                *cells[i],
                format_location(codeptr, report.debug_info),
            ]
        )
    return _oracle_table(columns, rows, title)


def _text(values: np.ndarray) -> list[str]:
    return values.astype(str).tolist()


def _bytes(values: np.ndarray) -> list[str]:
    return [format_bytes(n) for n in values.tolist()]


def oracle_render(report) -> str:
    findings = report.findings
    events = findings.events
    dup = findings.part("duplicate_transfers")
    rt = findings.part("round_trips")
    ra = findings.part("repeated_allocations")
    ua = findings.part("unused_allocations")
    ut = findings.part("unused_transfers")
    dup_first, rt_first, ra_first = dup.offsets[:-1], rt.offsets[:-1], ra.offsets[:-1]
    routes = [
        f"dev{src} <-> dev{dst}"
        for src, dst in zip(
            rt.keys["src_device_num"].tolist(), rt.keys["dest_device_num"].tolist()
        )
    ]
    reasons = [
        "overwritten" if ow else "after_last_kernel" for ow in ut.keys["overwritten"].tolist()
    ]
    # (category, title, middle columns, their cells per finding, located)
    specs = [
        (
            "duplicate_transfers",
            "OpenMP Duplicate Target Data Transfer Analysis",
            ["count", "bytes", "dest device"],
            zip(
                _text(dup.sizes() - 1),
                _bytes(events.do_nbytes[dup.rows[dup_first, 0]]),
                _text(dup.keys["dest_device_num"]),
            ),
            dup.rows[dup_first + 1, 0],
        ),
        (
            "round_trips",
            "OpenMP Round-Trip Target Data Transfer Analysis",
            ["trips", "bytes", "route"],
            zip(_text(rt.sizes()), _bytes(events.do_nbytes[rt.rows[rt_first, 0]]), routes),
            rt.rows[rt_first, 1],
        ),
        (
            "repeated_allocations",
            "OpenMP Repeated Device Memory Allocation Analysis",
            ["count", "bytes", "device"],
            zip(
                _text(ra.sizes() - 1), _bytes(ra.keys["nbytes"]), _text(ra.keys["device_num"])
            ),
            ra.rows[ra_first + 1, 0],
        ),
        (
            "unused_allocations",
            "OpenMP Unused Device Memory Allocation Analysis",
            ["bytes", "device"],
            zip(
                _bytes(events.do_nbytes[ua.rows[:, 0]]),
                _text(events.do_dest_device_num[ua.rows[:, 0]]),
            ),
            ua.rows[:, 0],
        ),
        (
            "unused_transfers",
            "OpenMP Unused Data Transfer Analysis",
            ["bytes", "device", "reason"],
            zip(
                _bytes(events.do_nbytes[ut.rows[:, 0]]),
                _text(events.do_dest_device_num[ut.rows[:, 0]]),
                reasons,
            ),
            ut.rows[:, 0],
        ),
    ]
    empty = [
        "No duplicate data transfers detected.",
        "No round-trip data transfers detected.",
        "No repeated device memory allocations detected.",
        "No unused device memory allocations detected.",
        "No unused data transfers detected.",
    ]
    sections = [
        _oracle_section(report, category, title, columns, list(cells), located, none)
        for (category, title, columns, cells, located), none in zip(specs, empty)
    ]
    return "\n\n".join([render_summary_line(report), *sections, render_potential_section(report)])


# --------------------------------------------------------------------------- #
def _attribute(trace: ColumnarTrace, seed: int) -> DebugInfoRegistry:
    """Give ``trace``'s data ops seeded code pointers and return a registry
    that resolves some of them (others print as raw addresses; events
    without a code pointer print ``<unknown location>``)."""
    rng = np.random.default_rng(seed)
    registry = DebugInfoRegistry()
    known = [
        registry.register(f"src/{'k' * int(n)}.c", int(line), "main")
        for n, line in zip(rng.integers(1, 30, 4), rng.integers(1, 900, 4))
    ]
    pool = np.array(known + [0x1000, 0x7FFF_0000_1234], dtype=np.uint64)
    n = trace.num_data_op_events
    trace.do_column("codeptr")[:] = rng.choice(pool, n)
    trace.do_column("has_codeptr")[:] = rng.random(n) < 0.7
    return registry


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_events=st.integers(min_value=20, max_value=3000),
    shard_events=st.integers(min_value=1, max_value=500),
    attributed=st.booleans(),
)
def test_render_matches_the_row_wise_oracle(
    tmp_path_factory, seed, num_events, shard_events, attributed
):
    trace = make_hostile_trace(num_events, seed=seed)
    registry = _attribute(trace, seed) if attributed else None
    store = shard_trace(
        trace, tmp_path_factory.mktemp("render") / "t.store", shard_events=shard_events
    )
    for report in (
        analyze_stream(store, debug_info=registry),
        analyze_trace(trace, debug_info=registry),
    ):
        assert report.render() == oracle_render(report)


def _section(text: str, title: str) -> list[str]:
    """The finding rows of one section of a rendered report."""
    block = text.split(f"=== {title} ===\n", 1)[1].split("\n\n", 1)[0]
    return block.splitlines()[2:]


def test_tied_wasted_times_keep_finding_order():
    b = TraceBuilder()
    # equal, binary-exact durations: every unused allocation wastes the
    # same time, bit for bit
    step = 2.0**-17
    for k, nbytes in enumerate([3000, 1000, 2000, 1000]):
        host, device = 0x100 * (k + 1), 0xA000 * (k + 1)
        b.alloc(host, device, nbytes=nbytes, duration=step, codeptr=0x5000 + k)
        b.delete(host, device, nbytes=nbytes, duration=step)
    b.idle(step)  # a lifetime touching the kernel counts as used
    b.kernel()
    report = analyze_trace(b.build())
    text = report.render()
    assert text == oracle_render(report)
    rows = [
        re.split(r"\s{2,}", row)
        for row in _section(text, "OpenMP Unused Device Memory Allocation Analysis")
    ]
    found = report.unused_allocations
    assert len(found) == 4 and len({f.wasted_time for f in found}) == 1
    # rows in finding order, which is neither size nor address order here
    assert [row[2] for row in rows] == [format_bytes(f.nbytes) for f in found]
    assert [row[4] for row in rows] == [f"{f.pair.alloc_event.codeptr:#014x}" for f in found]
    assert [row[2] for row in rows] == ["2.93 KiB", "1000 B", "1.95 KiB", "1000 B"]


def test_zero_times_and_missing_code_pointers():
    b = TraceBuilder()
    b.alloc(0x100, 0xA000, duration=0.0, codeptr=0x4242)
    b.delete(0x100, 0xA000, duration=0.0)
    b.alloc(0x200, 0xB000, duration=0.0)  # no code pointer
    b.delete(0x200, 0xB000, duration=0.0)
    b.alloc(0x300, 0xC000, duration=2e-6)
    b.delete(0x300, 0xC000, duration=0.0)
    b.idle(1e-6)
    b.kernel()
    report = analyze_trace(b.build())
    text = report.render()
    assert text == oracle_render(report)
    rows = _section(text, "OpenMP Unused Device Memory Allocation Analysis")
    assert [row.split()[:3] for row in rows] == [
        [_percent_of_runtime(2e-6, report.trace.runtime), "2.0", "us"],
        ["0.00%", "0", "s"],
        ["0.00%", "0", "s"],
    ]
    assert rows[1].endswith(f"{0x4242:#014x}")
    assert rows[2].endswith("<unknown location>")


def test_negative_zero_keeps_its_own_percentage():
    """``0.0`` and ``-0.0`` share a distinct value but not a text; a trace
    cannot produce ``-0.0`` (durations are ``end - start``), so the coded
    columns are checked directly."""
    # the second array puts -0.0 first in its zero bucket
    for values in ([0.0, -0.0, 1e-6, -0.0, 0.0, 2.5e-3], [-0.0, 0.0, -0.0]):
        for runtime in (1e-2, 0.0):
            (percents, percent_codes), (seconds, second_codes) = _timing_columns(
                np.array(values), runtime
            )
            assert [percents[c] for c in percent_codes] == [
                _percent_of_runtime(t, runtime) for t in values
            ]
            assert [seconds[c] for c in second_codes] == [format_seconds(t) for t in values]
    assert _percent_of_runtime(-0.0, 1e-2) == "-0.00%"


def test_empty_sections():
    b = TraceBuilder()
    b.alloc(0x100, 0xA000)
    b.kernel()
    b.delete(0x100, 0xA000)
    report = analyze_trace(b.build())
    assert report.counts.total == 0
    text = report.render()
    assert text == oracle_render(report)
    assert "No unused device memory allocations detected." in text
    assert _section(text, "OpenMP Round-Trip Target Data Transfer Analysis") == [
        "No round-trip data transfers detected."
    ]
