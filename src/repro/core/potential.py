"""Optimization-potential estimation (Section 7.6).

The key differentiator of OMPDataPerf over coarse-grained profilers is the
quantified assessment of how much can be gained by fixing the reported
issues.  The estimate is computed exactly as the paper describes: the
predicted runtime is the measured runtime minus the combined duration of the
transfer and allocation operations that would disappear if every identified
inefficiency were eliminated, and the predicted speedup is the ratio of the
two.

Events implicated by several patterns at once (a redundant transfer that is
simultaneously the return leg of a round trip, say) are only counted once:
the estimator unions the removable events by sequence number before summing
durations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.detectors.findings import (
    DuplicateTransferGroup,
    RepeatedAllocationGroup,
    RoundTripGroup,
    UnusedAllocation,
    UnusedTransfer,
)
from repro.core.detectors.table import FindingTable
from repro.events.protocol import TraceLike


@dataclass(frozen=True)
class OptimizationPotential:
    """Predicted benefit of eliminating every detected inefficiency."""

    #: measured (traced) program runtime in seconds
    measured_runtime: float
    #: combined duration of all removable data operations
    predicted_time_saved: float
    #: bytes of transfer volume that would be eliminated
    predicted_bytes_saved: int
    #: number of data operations that would be eliminated
    predicted_ops_saved: int
    #: sequence numbers of the removable events (useful for attribution)
    removable_event_seqs: frozenset[int]

    @property
    def predicted_runtime(self) -> float:
        return max(self.measured_runtime - self.predicted_time_saved, 0.0)

    @property
    def predicted_speedup(self) -> float:
        """Predicted speedup = measured / predicted runtime (>= 1.0)."""
        remaining = self.measured_runtime - self.predicted_time_saved
        if remaining <= 0.0:
            return float("inf")
        return self.measured_runtime / remaining

    @property
    def predicted_saved_fraction(self) -> float:
        """Fraction of the measured runtime attributed to removable operations."""
        if self.measured_runtime <= 0.0:
            return 0.0
        return self.predicted_time_saved / self.measured_runtime

    def as_dict(self) -> dict:
        return {
            "measured_runtime": self.measured_runtime,
            "predicted_time_saved": self.predicted_time_saved,
            "predicted_bytes_saved": self.predicted_bytes_saved,
            "predicted_ops_saved": self.predicted_ops_saved,
            "predicted_runtime": self.predicted_runtime,
            "predicted_speedup": self.predicted_speedup,
            "predicted_saved_fraction": self.predicted_saved_fraction,
        }


def estimate_potential(
    trace: TraceLike,
    *,
    duplicate_groups: Sequence[DuplicateTransferGroup] = (),
    round_trip_groups: Sequence[RoundTripGroup] = (),
    repeated_alloc_groups: Sequence[RepeatedAllocationGroup] = (),
    unused_allocations: Sequence[UnusedAllocation] = (),
    unused_transfers: Sequence[UnusedTransfer] = (),
    findings: Optional[FindingTable] = None,
) -> OptimizationPotential:
    """Estimate the optimization potential of a trace given its findings.

    Pass the findings either as a :class:`FindingTable` (``findings``) or
    as finding-object lists (adapted to one).  Removable events are
    unioned by sequence number in first-occurrence order — categories in
    pass order, each finding's ``removable_events()`` in order — and
    their durations summed with the builtin ``sum`` in that order.
    """
    if findings is None:
        findings = FindingTable.from_findings((
            duplicate_groups,
            round_trip_groups,
            repeated_alloc_groups,
            unused_allocations,
            unused_transfers,
        ))
    events = findings.events
    rows = findings.removable_rows()
    _, first = np.unique(events.do_seq[rows], return_index=True)
    rows = rows[np.sort(first)]
    seqs = events.do_seq[rows].tolist()
    time_saved = sum(findings.durations()[rows].tolist())
    transfers = rows[events.transfer_mask()[rows]]
    bytes_saved = sum(events.do_nbytes[transfers].tolist())
    return OptimizationPotential(
        measured_runtime=trace.runtime,
        predicted_time_saved=time_saved,
        predicted_bytes_saved=bytes_saved,
        predicted_ops_saved=len(seqs),
        removable_event_seqs=frozenset(seqs),
    )
