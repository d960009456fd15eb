"""Human-readable report rendering.

The output format follows the excerpt in the paper's artifact appendix
(Section A.6): one section per issue category with per-finding rows showing
the share of program time attributable to the finding, the volume involved,
the repeat count and the source attribution, followed by an overall
optimization-potential summary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.dwarf.attribution import format_location
from repro.util.tables import Column, coded, format_bytes, format_seconds, render_columns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.analysis import AnalysisReport


def _percent_of_runtime(seconds: float, runtime: float) -> str:
    if runtime <= 0.0:
        return "0.00%"
    return f"{100.0 * seconds / runtime:.2f}%"


def _timing_columns(wasted: np.ndarray, runtime: float) -> tuple[Column, Column]:
    """The ``time (%)`` and ``wasted time`` columns of per-finding seconds.

    ``0.0`` and ``-0.0`` share a distinct value but not a percentage
    (``0.00%`` vs ``-0.00%``): the shared value is normalised to ``0.0`` and
    negative zeros get a text of their own.
    """
    distinct, codes = np.unique(wasted, return_inverse=True)
    seconds = (distinct + 0.0).tolist()  # -0.0 + 0.0 is 0.0
    percents = [_percent_of_runtime(t, runtime) for t in seconds]
    percents.append(_percent_of_runtime(-0.0, runtime))
    negative_zero = (wasted == 0.0) & np.signbit(wasted)
    return (
        (percents, np.where(negative_zero, len(seconds), codes)),
        ([format_seconds(t) for t in seconds], codes),
    )


def _location_column(report: "AnalysisReport", located: np.ndarray) -> Column:
    """``format_location`` of each finding's attributing event, once per
    distinct code pointer; events without one read ``<unknown location>``."""
    events = report.findings.events
    codeptrs = events.do_column("codeptr")[located]
    present = events.do_column("has_codeptr")[located]
    distinct, inverse = np.unique(codeptrs[present], return_inverse=True)
    texts = [format_location(c, report.debug_info) for c in distinct.tolist()]
    texts.append(format_location(None, report.debug_info))
    codes = np.full(len(located), len(distinct), dtype=np.intp)
    codes[present] = inverse
    return texts, codes


def _findings_section(
    report: "AnalysisReport",
    category: str,
    title: str,
    headers: Sequence[str],
    columns: Sequence[Column],
    located: np.ndarray,
    empty: str,
) -> str:
    """One findings table, rendered column by column from the finding columns.

    ``columns`` are the middle columns (one code per finding) and
    ``located[i]`` the event whose code pointer attributes finding ``i``.
    Rows are listed by wasted time, largest first, ties in finding order
    (the stable descending sort of ``sorted(..., reverse=True)``).
    """
    headers = ["time (%)", "wasted time", *headers, "source location"]
    # builtin-sum per-finding times, exactly as the finding objects sum them
    wasted = np.asarray(report.findings.wasted_times(category), dtype=np.float64)
    columns = [
        *_timing_columns(wasted, report.trace.runtime),
        *columns,
        _location_column(report, located),
    ]
    order = np.argsort(-wasted, kind="stable")
    text = render_columns(headers, [(texts, codes[order]) for texts, codes in columns], title)
    return text if len(wasted) else text + "\n" + empty


def render_duplicate_section(report: "AnalysisReport") -> str:
    part = report.findings.part("duplicate_transfers")
    first = part.offsets[:-1]
    nbytes = report.findings.events.do_nbytes[part.rows[first, 0]]
    return _findings_section(
        report,
        "duplicate_transfers",
        "OpenMP Duplicate Target Data Transfer Analysis",
        ["count", "bytes", "dest device"],
        [
            coded(part.sizes() - 1, str),
            coded(nbytes, format_bytes),
            coded(part.keys["dest_device_num"], str),
        ],
        part.rows[first + 1, 0],
        "No duplicate data transfers detected.",
    )


def render_round_trip_section(report: "AnalysisReport") -> str:
    part = report.findings.part("round_trips")
    first = part.offsets[:-1]
    nbytes = report.findings.events.do_nbytes[part.rows[first, 0]]
    sources, source_codes = np.unique(part.keys["src_device_num"], return_inverse=True)
    dests, dest_codes = np.unique(part.keys["dest_device_num"], return_inverse=True)
    sources, dests = sources.tolist(), dests.tolist()

    def route(pair: int) -> str:
        return f"dev{sources[pair // len(dests)]} <-> dev{dests[pair % len(dests)]}"

    return _findings_section(
        report,
        "round_trips",
        "OpenMP Round-Trip Target Data Transfer Analysis",
        ["trips", "bytes", "route"],
        [
            coded(part.sizes(), str),
            coded(nbytes, format_bytes),
            coded(source_codes * len(dests) + dest_codes, route),
        ],
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
        [
            coded(part.sizes() - 1, str),
            coded(part.keys["nbytes"], format_bytes),
            coded(part.keys["device_num"], str),
        ],
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
        [
            coded(events.do_nbytes[allocs], format_bytes),
            coded(events.do_dest_device_num[allocs], str),
        ],
        allocs,
        "No unused device memory allocations detected.",
    )


def render_unused_transfer_section(report: "AnalysisReport") -> str:
    part = report.findings.part("unused_transfers")
    events = report.findings.events
    transfers = part.rows[:, 0]
    return _findings_section(
        report,
        "unused_transfers",
        "OpenMP Unused Data Transfer Analysis",
        ["bytes", "device", "reason"],
        [
            coded(events.do_nbytes[transfers], format_bytes),
            coded(events.do_dest_device_num[transfers], str),
            (["after_last_kernel", "overwritten"], part.keys["overwritten"].astype(np.intp)),
        ],
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
