"""Detection algorithms (Section 5 of the paper).

Each submodule implements one algorithm over the post-mortem event trace:

* :mod:`repro.core.detectors.duplicates` — Algorithm 1, duplicate data transfers.
* :mod:`repro.core.detectors.roundtrips` — Algorithm 2, round-trip data transfers.
* :mod:`repro.core.detectors.repeated_allocs` — Algorithm 3, repeated device memory allocations.
* :mod:`repro.core.detectors.unused_allocs` — Algorithm 4, unused device memory allocations.
* :mod:`repro.core.detectors.unused_transfers` — Algorithm 5, unused data transfers.

The detectors deliberately consume only information available through the
OMPT EMI callbacks (timestamps, device numbers, addresses, sizes, content
hashes); none of them require memory-access instrumentation.

Every algorithm ships in two implementations.  The object-based reference
oracle (``find_*``) follows the paper's pseudocode over event dataclasses;
the streaming pass (``*Pass``, driven by ``find_*_streaming``) folds an
event stream batch by batch in O(carry) memory and is the one fast path —
an in-memory :class:`~repro.events.columnar.ColumnarTrace` is simply a
stream of one batch.  The passes are independent of one another, so the
parallel engines run groups of them on separate workers, each folding
the whole stream (see :mod:`repro.core.engine`).  The differential property
test holds the oracle, the one-batch stream, the multi-batch stream and
every execution engine to bit-identical findings.

The report path never holds finding objects: the streaming passes emit
:class:`~repro.core.detectors.table.FindingPart` rows that one shared
gather turns into a :class:`~repro.core.detectors.table.FindingTable`
(see :mod:`repro.core.detectors.table`).
"""

from repro.core.detectors.findings import (
    DuplicateTransferGroup,
    RepeatedAllocationGroup,
    RoundTripGroup,
    RoundTripPair,
    UnusedAllocation,
    UnusedTransfer,
)
from repro.core.detectors.duplicates import (
    find_duplicate_transfers,
    find_duplicate_transfers_streaming,
)
from repro.core.detectors.roundtrips import (
    find_round_trips,
    find_round_trips_streaming,
)
from repro.core.detectors.repeated_allocs import (
    find_repeated_allocations,
    find_repeated_allocations_streaming,
)
from repro.core.detectors.unused_allocs import (
    find_unused_allocations,
    find_unused_allocations_streaming,
)
from repro.core.detectors.table import FindingPart, FindingTable
from repro.core.detectors.unused_transfers import (
    find_unused_transfers,
    find_unused_transfers_streaming,
)

__all__ = [
    "DuplicateTransferGroup",
    "FindingPart",
    "FindingTable",
    "RepeatedAllocationGroup",
    "RoundTripGroup",
    "RoundTripPair",
    "UnusedAllocation",
    "UnusedTransfer",
    "find_duplicate_transfers",
    "find_duplicate_transfers_streaming",
    "find_round_trips",
    "find_round_trips_streaming",
    "find_repeated_allocations",
    "find_repeated_allocations_streaming",
    "find_unused_allocations",
    "find_unused_allocations_streaming",
    "find_unused_transfers",
    "find_unused_transfers_streaming",
]
