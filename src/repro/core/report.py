"""Human-readable report rendering.

The output format follows the excerpt in the paper's artifact appendix
(Section A.6): one section per issue category with per-finding rows showing
the share of program time attributable to the finding, the volume involved,
the repeat count and the source attribution, followed by an overall
optimization-potential summary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.dwarf.attribution import format_location
from repro.util.tables import Table, format_bytes, format_seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.analysis import AnalysisReport


def _percent_of_runtime(seconds: float, runtime: float) -> str:
    if runtime <= 0.0:
        return "0.00%"
    return f"{100.0 * seconds / runtime:.2f}%"


def _findings_section(
    report: "AnalysisReport",
    category: str,
    title: str,
    columns: Sequence[str],
    cells: Sequence[tuple[str, ...]],
    located: np.ndarray,
    empty: str,
) -> str:
    """One findings table, read straight from the finding columns.

    ``cells[i]`` holds finding ``i``'s middle columns (as text) and
    ``located[i]`` the event whose code pointer attributes it.  Rows are
    listed by wasted time, largest first, ties in finding order (the
    stable descending sort of ``sorted(..., reverse=True)``).
    """
    table = Table(["time (%)", "wasted time", *columns, "source location"], title=title)
    findings = report.findings
    wasted = findings.wasted_times(category)
    if not wasted:
        return table.render() + "\n" + empty
    events = findings.events
    codeptrs = events.do_column("codeptr")[located].tolist()
    present = events.do_column("has_codeptr")[located].tolist()
    locations: dict[Optional[int], str] = {}
    timings: dict[float, tuple[str, str]] = {}
    runtime = report.trace.runtime
    rows = []
    for i in sorted(range(len(wasted)), key=wasted.__getitem__, reverse=True):
        codeptr = codeptrs[i] if present[i] else None
        location = locations.get(codeptr)
        if location is None:
            location = locations[codeptr] = format_location(codeptr, report.debug_info)
        seconds = wasted[i]
        # zeros are never cached: 0.0 and -0.0 share a key but not a text
        timing = timings.get(seconds) if seconds else None
        if timing is None:
            timing = (_percent_of_runtime(seconds, runtime), format_seconds(seconds))
            if seconds:
                timings[seconds] = timing
        rows.append([*timing, *cells[i], location])
    table.add_text_rows(rows)
    return table.render()


def _text(values: np.ndarray) -> list[str]:
    return values.astype(str).tolist()


def _sized_bytes(values: np.ndarray) -> list[str]:
    """``format_bytes`` of every value, formatting each distinct value once."""
    distinct, index = np.unique(values, return_inverse=True)
    text = [format_bytes(n) for n in distinct.tolist()]
    return [text[i] for i in index.tolist()]


def render_duplicate_section(report: "AnalysisReport") -> str:
    part = report.findings.part("duplicate_transfers")
    first = part.offsets[:-1]
    nbytes = report.findings.events.do_nbytes[part.rows[first, 0]]
    return _findings_section(
        report,
        "duplicate_transfers",
        "OpenMP Duplicate Target Data Transfer Analysis",
        ["count", "bytes", "dest device"],
        list(
            zip(
                _text(part.sizes() - 1),
                _sized_bytes(nbytes),
                _text(part.keys["dest_device_num"]),
            )
        ),
        part.rows[first + 1, 0],
        "No duplicate data transfers detected.",
    )


def render_round_trip_section(report: "AnalysisReport") -> str:
    part = report.findings.part("round_trips")
    first = part.offsets[:-1]
    nbytes = report.findings.events.do_nbytes[part.rows[first, 0]]
    routes = [
        f"dev{src} <-> dev{dst}"
        for src, dst in zip(
            part.keys["src_device_num"].tolist(), part.keys["dest_device_num"].tolist()
        )
    ]
    return _findings_section(
        report,
        "round_trips",
        "OpenMP Round-Trip Target Data Transfer Analysis",
        ["trips", "bytes", "route"],
        list(zip(_text(part.sizes()), _sized_bytes(nbytes), routes)),
        part.rows[first, 1],
        "No round-trip data transfers detected.",
    )


def render_repeated_alloc_section(report: "AnalysisReport") -> str:
    part = report.findings.part("repeated_allocations")
    first = part.offsets[:-1]
    return _findings_section(
        report,
        "repeated_allocations",
        "OpenMP Repeated Device Memory Allocation Analysis",
        ["count", "bytes", "device"],
        list(
            zip(
                _text(part.sizes() - 1),
                _sized_bytes(part.keys["nbytes"]),
                _text(part.keys["device_num"]),
            )
        ),
        part.rows[first + 1, 0],
        "No repeated device memory allocations detected.",
    )


def render_unused_alloc_section(report: "AnalysisReport") -> str:
    part = report.findings.part("unused_allocations")
    events = report.findings.events
    allocs = part.rows[:, 0]
    return _findings_section(
        report,
        "unused_allocations",
        "OpenMP Unused Device Memory Allocation Analysis",
        ["bytes", "device"],
        list(zip(_sized_bytes(events.do_nbytes[allocs]), _text(events.do_dest_device_num[allocs]))),
        allocs,
        "No unused device memory allocations detected.",
    )


def render_unused_transfer_section(report: "AnalysisReport") -> str:
    part = report.findings.part("unused_transfers")
    events = report.findings.events
    transfers = part.rows[:, 0]
    reasons = [
        "overwritten" if ow else "after_last_kernel" for ow in part.keys["overwritten"].tolist()
    ]
    return _findings_section(
        report,
        "unused_transfers",
        "OpenMP Unused Data Transfer Analysis",
        ["bytes", "device", "reason"],
        list(
            zip(
                _sized_bytes(events.do_nbytes[transfers]),
                _text(events.do_dest_device_num[transfers]),
                reasons,
            )
        ),
        transfers,
        "No unused data transfers detected.",
    )


def render_potential_section(report: "AnalysisReport") -> str:
    potential = report.potential
    lines = [
        "=== Optimization Potential ===",
        f"measured runtime          : {format_seconds(potential.measured_runtime)}",
        f"predicted time savings    : {format_seconds(potential.predicted_time_saved)} "
        f"({100.0 * potential.predicted_saved_fraction:.1f}% of runtime)",
        f"predicted runtime         : {format_seconds(potential.predicted_runtime)}",
        f"predicted speedup         : {potential.predicted_speedup:.2f}x",
        f"removable data operations : {potential.predicted_ops_saved}",
        f"removable transfer volume : {format_bytes(potential.predicted_bytes_saved)}",
    ]
    return "\n".join(lines)


def render_summary_line(report: "AnalysisReport") -> str:
    counts = report.counts.as_dict()
    rendered = ", ".join(f"{name}={value}" for name, value in counts.items())
    program = report.trace.program_name or "<program>"
    return f"{program}: {rendered}"


def render_report(report: "AnalysisReport") -> str:
    """Render the full multi-section analysis report."""
    sections = [
        render_summary_line(report),
        render_duplicate_section(report),
        render_round_trip_section(report),
        render_repeated_alloc_section(report),
        render_unused_alloc_section(report),
        render_unused_transfer_section(report),
        render_potential_section(report),
    ]
    return "\n\n".join(sections)
