"""Columnar findings: the five detectors' output as rows plus one gather.

A :class:`FindingPart` is one detector's findings as *row labels* — the
global data-op positions (gpos) of a stream, or the row indices of an
in-memory columnar trace — cut into findings by ``offsets``, with the
per-finding scalars (group keys, unused-transfer reason) alongside:

=====================  ==========================  ==========================
category               ``rows`` (one per member)   ``keys`` (one per finding)
=====================  ==========================  ==========================
duplicate_transfers    (receipt,)                  content_hash, dest_device_num
round_trips            (outbound, return)          content_hash, src/dest_device_num
repeated_allocations   (alloc, delete or -1)       host_addr, device_num, nbytes
unused_allocations     (alloc, delete or -1)       —
unused_transfers       (transfer,)                 overwritten
=====================  ==========================  ==========================

The streaming passes' ``finalize`` emits parts;
:meth:`FindingTable.gather` then reads every referenced row of all five
parts in *one* targeted pass over the source (each shard loaded at most
once) into a small :class:`~repro.events.columnar.ColumnarTrace`, and
relabels the parts to index it.  Counts, the optimisation potential and
the rendered report are computed straight from those columns; the frozen
finding dataclasses of :mod:`repro.core.detectors.findings` are built only
when a caller asks for them (:meth:`FindingTable.objects`), from the
gathered columns, never from the source again.

Float order contract: every duration sum here is the builtin ``sum`` over
Python floats in exactly the order the finding dataclasses' own
properties add them, so the column path and the object path agree bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.detectors.findings import (
    DuplicateTransferGroup,
    RepeatedAllocationGroup,
    RoundTripGroup,
    RoundTripPair,
    UnusedAllocation,
    UnusedTransfer,
)
from repro.events.columnar import ColumnarTrace
from repro.events.records import AllocationPair, DataOpEvent
from repro.events.stream import gather_data_op_rows

#: The five categories, in pass order (the order potential unions them).
CATEGORIES = (
    "duplicate_transfers",
    "round_trips",
    "repeated_allocations",
    "unused_allocations",
    "unused_transfers",
)

#: Row slots per member and key columns (with dtypes) per category.
_SLOTS = {
    "duplicate_transfers": 1,
    "round_trips": 2,
    "repeated_allocations": 2,
    "unused_allocations": 2,
    "unused_transfers": 1,
}
_KEYS: dict[str, dict[str, type]] = {
    "duplicate_transfers": {"content_hash": np.uint64, "dest_device_num": np.int64},
    "round_trips": {
        "content_hash": np.uint64,
        "src_device_num": np.int64,
        "dest_device_num": np.int64,
    },
    "repeated_allocations": {
        "host_addr": np.uint64,
        "device_num": np.int64,
        "nbytes": np.int64,
    },
    "unused_allocations": {},
    "unused_transfers": {"overwritten": np.bool_},
}


@dataclass(frozen=True, eq=False)
class FindingPart:
    """One category of findings as row labels (see the module table).

    ``rows`` is ``(members, slots)`` int64 (``-1``: no event, e.g. an
    allocation never deleted); ``offsets`` (findings + 1) cuts members
    into findings; ``keys`` maps each key column to one value per finding.
    """

    category: str
    rows: np.ndarray
    offsets: np.ndarray
    keys: Mapping[str, np.ndarray]

    @classmethod
    def build(cls, category: str, rows, offsets=None, **keys) -> "FindingPart":
        """Normalise dtypes and shapes; ``offsets=None`` means one member
        per finding (the unused-pattern categories)."""
        slots = _SLOTS[category]
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, slots)
        if offsets is None:
            offsets = np.arange(rows.shape[0] + 1, dtype=np.int64)
        spec = _KEYS[category]
        if set(keys) != set(spec):
            raise ValueError(f"{category} needs keys {sorted(spec)}, got {sorted(keys)}")
        return cls(
            category,
            rows,
            np.asarray(offsets, dtype=np.int64),
            {name: np.asarray(keys[name], dtype=dtype) for name, dtype in spec.items()},
        )

    @classmethod
    def empty(cls, category: str) -> "FindingPart":
        return cls.build(
            category,
            np.empty(0, dtype=np.int64),
            **{name: np.empty(0, dtype=dtype) for name, dtype in _KEYS[category].items()},
        )

    @classmethod
    def grouped(
        cls, category: str, rows: np.ndarray, group: np.ndarray, position: np.ndarray, **member_keys
    ) -> "FindingPart":
        """Group members by ``group`` id: chronological (ascending
        ``position``) inside a group, groups ordered by their earliest
        member — the first-occurrence order of the object oracles.
        ``member_keys`` hold one value per member; the group's first
        member supplies the finding's key."""
        if position.size == 0:
            return cls.empty(category)
        order = np.lexsort((position, group))
        sorted_group = group[order]
        head = np.ones(order.size, dtype=bool)
        head[1:] = sorted_group[1:] != sorted_group[:-1]
        group_first = position[order][head][np.cumsum(head) - 1]
        resort = np.lexsort((position[order], group_first))
        order = order[resort]
        first = group_first[resort]
        starts = np.flatnonzero(np.concatenate(([True], first[1:] != first[:-1])))
        offsets = np.append(starts, order.size)
        return cls.build(
            category,
            np.asarray(rows)[order],
            offsets,
            **{name: values[order[starts]] for name, values in member_keys.items()},
        )

    @property
    def num_findings(self) -> int:
        return self.offsets.size - 1

    @property
    def num_members(self) -> int:
        return self.rows.shape[0]

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def labels(self) -> np.ndarray:
        """Every row label the part references (unsorted, may repeat)."""
        flat = self.rows.ravel()
        return flat[flat >= 0]

    def relabel(self, labels: np.ndarray) -> "FindingPart":
        """Map row labels to indices into the sorted unique ``labels``."""
        rows = self.rows.copy()
        valid = rows >= 0
        rows[valid] = np.searchsorted(labels, rows[valid])
        return FindingPart(self.category, rows, self.offsets, self.keys)

    def issue_count(self) -> int:
        """The category's Table 1 count: redundant receipts (DD), trips
        (RT), redundant allocations (RA), findings (UA, UT)."""
        if self.category in ("duplicate_transfers", "repeated_allocations"):
            return self.num_members - self.num_findings
        if self.category == "round_trips":
            return self.num_members
        return self.num_findings

    def removable(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows whose cost disappears with the fix, in the order of each
        finding's ``removable_events()``, and per-finding offsets into them."""
        rows, offsets = self.rows, self.offsets
        n = self.num_findings
        if self.category == "duplicate_transfers":
            # every receipt after the first
            keep = np.ones(rows.shape[0], dtype=bool)
            keep[offsets[:-1]] = False
            return rows[keep, 0], offsets - np.arange(n + 1)
        if self.category == "round_trips":
            return rows.ravel(), offsets * 2
        if self.category == "repeated_allocations":
            # allocations after the first, then deletions before the last
            sizes = self.sizes()
            group = np.repeat(np.arange(n), sizes)
            local = np.arange(rows.shape[0]) - offsets[group]
            allocs = np.flatnonzero(local >= 1)
            deletes = np.flatnonzero((local <= sizes[group] - 2) & (rows[:, 1] >= 0))
            entry_group = np.concatenate([group[allocs], group[deletes]])
            phase = np.concatenate([np.zeros(allocs.size), np.ones(deletes.size)])
            entry_local = np.concatenate([local[allocs], local[deletes]])
            entry_row = np.concatenate([rows[allocs, 0], rows[deletes, 1]])
            order = np.lexsort((entry_local, phase, entry_group))
            counts = np.bincount(entry_group, minlength=n)
            return entry_row[order], np.concatenate(([0], np.cumsum(counts)))
        # unused allocations / transfers: every event of the finding
        flat = rows.ravel()
        counts = (rows >= 0).sum(axis=1)
        return flat[flat >= 0], np.concatenate(([0], np.cumsum(counts)))


def _pairs(rows: np.ndarray, events) -> list[AllocationPair]:
    return [
        AllocationPair(alloc_event=events[a], delete_event=events[d] if d >= 0 else None)
        for a, d in rows.tolist()
    ]


def _cuts(part: FindingPart) -> list[tuple[int, int]]:
    offsets = part.offsets.tolist()
    return list(zip(offsets[:-1], offsets[1:]))


def _duplicate_objects(part, events) -> list[DuplicateTransferGroup]:
    members = [events[r] for r in part.rows[:, 0].tolist()]
    return [
        DuplicateTransferGroup(content_hash=h, dest_device_num=d, events=tuple(members[lo:hi]))
        for (lo, hi), h, d in zip(
            _cuts(part),
            part.keys["content_hash"].tolist(),
            part.keys["dest_device_num"].tolist(),
        )
    ]


def _round_trip_objects(part, events) -> list[RoundTripGroup]:
    trips = [
        RoundTripPair(tx_event=events[tx], rx_event=events[rx]) for tx, rx in part.rows.tolist()
    ]
    return [
        RoundTripGroup(
            content_hash=h, src_device_num=s, dest_device_num=d, trips=tuple(trips[lo:hi])
        )
        for (lo, hi), h, s, d in zip(
            _cuts(part),
            part.keys["content_hash"].tolist(),
            part.keys["src_device_num"].tolist(),
            part.keys["dest_device_num"].tolist(),
        )
    ]


def _repeated_alloc_objects(part, events) -> list[RepeatedAllocationGroup]:
    pairs = _pairs(part.rows, events)
    return [
        RepeatedAllocationGroup(
            host_addr=h, device_num=d, nbytes=b, allocations=tuple(pairs[lo:hi])
        )
        for (lo, hi), h, d, b in zip(
            _cuts(part),
            part.keys["host_addr"].tolist(),
            part.keys["device_num"].tolist(),
            part.keys["nbytes"].tolist(),
        )
    ]


def _unused_alloc_objects(part, events) -> list[UnusedAllocation]:
    return [UnusedAllocation(pair=pair) for pair in _pairs(part.rows, events)]


def _unused_transfer_objects(part, events) -> list[UnusedTransfer]:
    return [
        UnusedTransfer(event=events[r], reason="overwritten" if ow else "after_last_kernel")
        for r, ow in zip(part.rows[:, 0].tolist(), part.keys["overwritten"].tolist())
    ]


#: Builds one category's finding objects from (part, event lookup).
_OBJECT_BUILDERS: dict[str, Callable[[FindingPart, Sequence], list]] = {
    "duplicate_transfers": _duplicate_objects,
    "round_trips": _round_trip_objects,
    "repeated_allocations": _repeated_alloc_objects,
    "unused_allocations": _unused_alloc_objects,
    "unused_transfers": _unused_transfer_objects,
}


def part_objects(part: FindingPart, events) -> list:
    """The finding objects of one part; ``events[label]`` yields the event
    at a row label (a ``{gpos: event}`` mapping, or a list when the labels
    are list indices)."""
    return _OBJECT_BUILDERS[part.category](part, events)


def _part_from_objects(category: str, findings: Sequence, label: Callable) -> FindingPart:
    def pair_rows(pair: AllocationPair) -> tuple[int, int]:
        delete = pair.delete_event
        return label(pair.alloc_event), -1 if delete is None else label(delete)

    if category == "duplicate_transfers":
        rows = [label(e) for g in findings for e in g.events]
        sizes = [len(g.events) for g in findings]
        keys = {
            "content_hash": [g.content_hash for g in findings],
            "dest_device_num": [g.dest_device_num for g in findings],
        }
    elif category == "round_trips":
        rows = [(label(t.tx_event), label(t.rx_event)) for g in findings for t in g.trips]
        sizes = [len(g.trips) for g in findings]
        keys = {
            "content_hash": [g.content_hash for g in findings],
            "src_device_num": [g.src_device_num for g in findings],
            "dest_device_num": [g.dest_device_num for g in findings],
        }
    elif category == "repeated_allocations":
        rows = [pair_rows(p) for g in findings for p in g.allocations]
        sizes = [len(g.allocations) for g in findings]
        keys = {
            "host_addr": [g.host_addr for g in findings],
            "device_num": [g.device_num for g in findings],
            "nbytes": [g.nbytes for g in findings],
        }
    elif category == "unused_allocations":
        rows = [pair_rows(f.pair) for f in findings]
        sizes = [1] * len(findings)
        keys = {}
    else:
        rows = [label(f.event) for f in findings]
        sizes = [1] * len(findings)
        keys = {"overwritten": [f.reason == "overwritten" for f in findings]}
    offsets = np.concatenate(([0], np.cumsum(np.asarray(sizes, dtype=np.int64))))
    return FindingPart.build(category, rows, offsets, **keys)


class FindingTable:
    """All five categories of findings over one shared gather of events.

    ``parts`` (one per category, in :data:`CATEGORIES` order) index
    ``events``, the gathered data-op rows: every event any finding
    references, once, in source order.  Build one with :meth:`gather`
    (from detector output) or :meth:`from_findings` (from finding
    objects).
    """

    def __init__(self, parts: Sequence[FindingPart], events: ColumnarTrace) -> None:
        if tuple(p.category for p in parts) != CATEGORIES:
            raise ValueError(f"a finding table needs one part per category, in order {CATEGORIES}")
        self.parts: tuple[FindingPart, ...] = tuple(parts)
        self.events = events
        self._objects: dict[str, list] = {}

    @classmethod
    def gather(cls, parts: Sequence[FindingPart], source) -> "FindingTable":
        """Read every row the parts reference from ``source`` (a stream or
        a columnar trace) in one pass and relabel the parts to index it."""
        labels = np.sort(np.concatenate([p.labels() for p in parts]))
        if labels.size:  # distinct, ascending (cheaper than np.unique here)
            labels = labels[np.append(True, labels[1:] != labels[:-1])]
        events = gather_data_op_rows(source, labels)
        return cls([p.relabel(labels) for p in parts], events)

    @classmethod
    def from_findings(cls, findings: Sequence[Sequence]) -> "FindingTable":
        """Adapt five finding-object lists (pass order) — the object
        detectors' output, or :meth:`to_objects` — to a table."""
        index: dict[DataOpEvent, int] = {}
        events = ColumnarTrace()

        def label(event: DataOpEvent) -> int:
            at = index.get(event)
            if at is None:
                at = index[event] = len(index)
                events.append_data_op_event(event)
            return at

        parts = [
            _part_from_objects(category, list(items), label)
            for category, items in zip(CATEGORIES, findings, strict=True)
        ]
        return cls(parts, events)

    # ------------------------------------------------------------------ #
    def part(self, category: str) -> FindingPart:
        return self.parts[CATEGORIES.index(category)]

    def issue_counts(self) -> tuple[int, ...]:
        """DD, RT, RA, UA, UT — the Table 1 counts, from offsets alone."""
        return tuple(p.issue_count() for p in self.parts)

    def durations(self) -> np.ndarray:
        """Duration of every gathered event (``end - start``, as the
        objects compute it)."""
        return self.events.do_end_time - self.events.do_start_time

    def removable_rows(self) -> np.ndarray:
        """Every category's removable rows, concatenated in pass order."""
        return np.concatenate([p.removable()[0] for p in self.parts])

    def wasted_times(self, category: str) -> list[float]:
        """Per-finding ``wasted_time``, summed exactly as the finding
        dataclasses sum it (builtin ``sum``, same order)."""
        part = self.part(category)
        durations = self.durations()
        if category == "unused_transfers":
            return durations[part.rows[:, 0]].tolist()
        if category == "round_trips":
            # sum over trips of (outbound + return)
            terms = (durations[part.rows[:, 0]] + durations[part.rows[:, 1]]).tolist()
            offsets = part.offsets.tolist()
        else:
            rows, cuts = part.removable()
            terms = durations[rows].tolist()
            offsets = cuts.tolist()
        return [sum(terms[lo:hi]) for lo, hi in zip(offsets[:-1], offsets[1:])]

    # ------------------------------------------------------------------ #
    def objects(self, category: str) -> list:
        """The category's finding objects, built once from the gathered
        columns on first use."""
        found = self._objects.get(category)
        if found is None:
            # data_op_events builds every gathered event once and caches it
            found = self._objects[category] = part_objects(
                self.part(category), self.events.data_op_events
            )
        return found

    def to_objects(self) -> list[list]:
        """All five finding-object lists, in pass order."""
        return [self.objects(category) for category in CATEGORIES]

    def _resolved(self, rows: np.ndarray) -> tuple[np.ndarray, list[DataOpEvent]]:
        """Where ``rows`` hold events, and those events — the content a
        label-independent comparison looks at."""
        valid = rows >= 0
        return valid, self.events.data_op_events_at(rows[valid])

    def __eq__(self, other) -> bool:
        """Equal when both describe the same findings: same structure and
        keys, and equal event content at every referenced row (how the
        rows are labelled does not matter)."""
        if not isinstance(other, FindingTable):
            return NotImplemented
        for mine, theirs in zip(self.parts, other.parts):
            if mine.rows.shape != theirs.rows.shape or not np.array_equal(
                mine.offsets, theirs.offsets
            ):
                return False
            if any(not np.array_equal(mine.keys[k], theirs.keys[k]) for k in mine.keys):
                return False
            my_holes, my_events = self._resolved(mine.rows)
            their_holes, their_events = other._resolved(theirs.rows)
            if not np.array_equal(my_holes, their_holes) or my_events != their_events:
                return False
        return True

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        counts = ", ".join(f"{c}={p.num_findings}" for c, p in zip(CATEGORIES, self.parts))
        return f"FindingTable({counts}, events={self.events.num_data_op_events})"
