"""Event model shared by the runtime simulator, the OMPT layer and the tool.

The detection algorithms in the paper (Section 5) operate on a post-mortem
log of OpenMP target events.  Every log entry carries the start and end time
of the event, the hash of the data transferred (if applicable), and the
information provided by the corresponding OMPT callback: source and
destination device numbers, code pointers, number of bytes transferred and
the type of operation.  This package defines those records and the
:class:`~repro.events.trace.Trace` container that holds them.
"""

from repro.events.records import (
    DATA_OP_EVENT_BYTES,
    TARGET_EVENT_BYTES,
    AllocationPair,
    DataOpEvent,
    DataOpKind,
    TargetEvent,
    TargetKind,
    get_alloc_delete_pairs,
)
from repro.events.trace import Trace
from repro.events.columnar import (
    COLUMNAR_FORMAT_VERSION,
    ColumnarTrace,
    as_columnar,
    as_object_trace,
    load_trace,
)
from repro.events.protocol import EventStream, TraceLike
from repro.events.stream import (
    DEFAULT_SHARD_EVENTS,
    SlicedTraceStream,
    as_event_stream,
    iter_trace_slices,
    merge_stream,
)
from repro.events.store import (
    STORE_FORMAT_VERSION,
    ShardedTraceStore,
    TraceWriter,
    merge_shards,
    shard_trace,
)
from repro.events.validation import TraceValidationError, validate_stream, validate_trace

__all__ = [
    "DATA_OP_EVENT_BYTES",
    "TARGET_EVENT_BYTES",
    "AllocationPair",
    "COLUMNAR_FORMAT_VERSION",
    "ColumnarTrace",
    "DataOpEvent",
    "DataOpKind",
    "DEFAULT_SHARD_EVENTS",
    "EventStream",
    "STORE_FORMAT_VERSION",
    "ShardedTraceStore",
    "SlicedTraceStream",
    "TargetEvent",
    "TargetKind",
    "TraceLike",
    "TraceWriter",
    "as_columnar",
    "as_event_stream",
    "as_object_trace",
    "get_alloc_delete_pairs",
    "iter_trace_slices",
    "load_trace",
    "merge_shards",
    "merge_stream",
    "shard_trace",
    "Trace",
    "TraceValidationError",
    "validate_stream",
    "validate_trace",
]
