"""Helpers to attach source locations to detected issues and group findings."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Optional, Sequence

from repro.dwarf.debuginfo import DebugInfoRegistry, SourceLocation
from repro.events.records import DataOpEvent, TargetEvent


def format_location(
    codeptr: Optional[int], registry: Optional[DebugInfoRegistry]
) -> str:
    """Render a code pointer as source text, degrading gracefully.

    With debug info available the result is ``file:line (function)``, the
    file relative to the registered files' common directory
    (:meth:`DebugInfoRegistry.display`); without
    it (stripped binary, unknown pointer, or no registry) the raw address is
    shown, mirroring how the real tool degrades when the program was not
    compiled with ``-g``.
    """
    if codeptr is None:
        return "<unknown location>"
    location = registry.lookup(codeptr) if registry is not None else None
    if location is None:
        return f"{codeptr:#014x}"
    return registry.display(location)


def attribute_events(
    events: Iterable[DataOpEvent | TargetEvent],
    registry: Optional[DebugInfoRegistry],
) -> list[tuple[DataOpEvent | TargetEvent, Optional[SourceLocation]]]:
    """Pair every event with its resolved source location (or ``None``)."""
    out = []
    for event in events:
        codeptr = event.codeptr
        location = registry.lookup(codeptr) if registry is not None else None
        out.append((event, location))
    return out


def group_by_location(
    events: Sequence[DataOpEvent | TargetEvent],
    registry: Optional[DebugInfoRegistry],
) -> dict[str, list[DataOpEvent | TargetEvent]]:
    """Group events by formatted source location (for per-line issue reports)."""
    groups: dict[str, list[DataOpEvent | TargetEvent]] = defaultdict(list)
    for event in events:
        groups[format_location(event.codeptr, registry)].append(event)
    return dict(groups)
