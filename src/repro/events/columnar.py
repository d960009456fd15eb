"""Columnar (structure-of-arrays) trace storage.

This is the throughput backbone of the reproduction: instead of one Python
dataclass per event, a :class:`ColumnarTrace` stores target and data-op
events as parallel NumPy arrays (sequence numbers, kind codes, device
numbers, addresses, byte counts, begin/end timestamps, content hashes).
The layout mirrors what the native tool's fixed-size records give it for
free — the 72 B data-op / 24 B target records of Section 7.4 are exactly a
row of these columns — and it is the same idiom the vectorised hash in
:mod:`repro.hashing.vector` uses: touch memory with wide NumPy ufuncs, not
the interpreter.

Three contracts matter:

* **O(1) append.**  The collector appends one event per OMPT callback as
  a queued row tuple; queued rows settle into the columns in bulk (one
  conversion per column) on the next read, and columns grow by amortised
  doubling, so appends never touch numpy per event.
* **Zero-copy column views.**  ``do_start_time`` and friends return NumPy
  slices of the backing buffers (no copies); detectors run masked selects,
  ``np.unique`` and ``np.searchsorted`` over them directly.
* **Lossless conversion.**  ``from_trace`` / ``to_trace`` round-trip every
  field of the object representation (including optional fields and debug
  strings), so either representation can stand in for the other.

On disk the columnar form has a versioned binary format (a compressed
``.npz`` archive, one entry per column plus a JSON metadata blob) next to
the existing JSON format, and the flat ``.odpf`` payload every store
shard is written in; :func:`load_trace` sniffs them apart.
"""

from __future__ import annotations

import functools
import io
import json
import struct
import zipfile
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

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

#: Version tag of the binary columnar format.
COLUMNAR_FORMAT_VERSION = 1

#: Version tag of the flat payload format (the zero-copy sibling of the
#: ``.npz`` archive: a JSON header plus raw 64-byte-aligned column
#: buffers, laid out so :meth:`ColumnarTrace.from_shared` can build NumPy
#: views straight into an ``mmap``-ed ``.odpf`` file or any other buffer
#: without decoding anything).
FLAT_FORMAT_VERSION = 1
FLAT_MAGIC = b"ODPF"

#: magic, version, reserved, header length
_FLAT_PREFIX = struct.Struct("<4sHHQ")

#: Raw column buffers are 64-byte aligned inside the flat payload so the
#: zero-copy views start on cache-line (and any SIMD) boundaries.
_FLAT_ALIGN = 64


def _align_flat(offset: int) -> int:
    return (offset + _FLAT_ALIGN - 1) & ~(_FLAT_ALIGN - 1)

#: Stable kind <-> small-integer code tables.  The codes are part of the
#: binary format, so the order here must never change; append only.
DATA_OP_KIND_CODES: tuple[DataOpKind, ...] = (
    DataOpKind.ALLOC,
    DataOpKind.TRANSFER_TO_DEVICE,
    DataOpKind.TRANSFER_FROM_DEVICE,
    DataOpKind.DELETE,
    DataOpKind.ASSOCIATE,
    DataOpKind.DISASSOCIATE,
)
TARGET_KIND_CODES: tuple[TargetKind, ...] = (
    TargetKind.TARGET,
    TargetKind.ENTER_DATA,
    TargetKind.EXIT_DATA,
    TargetKind.UPDATE,
)

_DATA_OP_CODE_OF = {kind: code for code, kind in enumerate(DATA_OP_KIND_CODES)}
_TARGET_CODE_OF = {kind: code for code, kind in enumerate(TARGET_KIND_CODES)}

CODE_ALLOC = _DATA_OP_CODE_OF[DataOpKind.ALLOC]
CODE_TO_DEVICE = _DATA_OP_CODE_OF[DataOpKind.TRANSFER_TO_DEVICE]
CODE_FROM_DEVICE = _DATA_OP_CODE_OF[DataOpKind.TRANSFER_FROM_DEVICE]
CODE_DELETE = _DATA_OP_CODE_OF[DataOpKind.DELETE]
CODE_TARGET = _TARGET_CODE_OF[TargetKind.TARGET]

_INITIAL_CAPACITY = 64
#: Queued rows settle on their own once this many wait: a queued row tuple
#: costs several times its settled 72 B, so this bounds the queue's memory
#: on large shards and long in-memory traces.
_MAX_PENDING_ROWS = 4096

# (column name, dtype) of the data-op column group, in binary-format order.
_DATA_OP_COLUMNS: tuple[tuple[str, type], ...] = (
    ("seq", np.int64),
    ("kind", np.int8),
    ("src_device_num", np.int32),
    ("dest_device_num", np.int32),
    ("src_addr", np.uint64),
    ("dest_addr", np.uint64),
    ("nbytes", np.int64),
    ("start_time", np.float64),
    ("end_time", np.float64),
    ("content_hash", np.uint64),
    ("has_content_hash", np.bool_),
    ("codeptr", np.uint64),
    ("has_codeptr", np.bool_),
    ("target_id", np.int64),
    ("has_target_id", np.bool_),
)

# (column name, dtype) of the target column group.
_TARGET_COLUMNS: tuple[tuple[str, type], ...] = (
    ("seq", np.int64),
    ("kind", np.int8),
    ("device_num", np.int32),
    ("start_time", np.float64),
    ("end_time", np.float64),
    ("codeptr", np.uint64),
    ("has_codeptr", np.bool_),
    ("target_id", np.int64),
    ("has_target_id", np.bool_),
)

_DATA_OP_DTYPES = {name: np.dtype(dtype) for name, dtype in _DATA_OP_COLUMNS}
_TARGET_DTYPES = {name: np.dtype(dtype) for name, dtype in _TARGET_COLUMNS}


class _LazyColumns(dict):
    """Column name -> array, each built by ``make(name)`` on its first
    lookup: a shard's views into its payload (:meth:`ColumnarTrace.from_shared`)
    and a group's concatenations (:meth:`ColumnarTrace.concat`) cost
    nothing for the columns no one reads."""

    def __init__(self, make: Callable[[str], np.ndarray]) -> None:
        super().__init__()
        self._make = make

    def __missing__(self, name: str) -> np.ndarray:
        column = self[name] = self._make(name)
        return column


def _join_strings(parts: Iterable[tuple[Optional[list], int]]) -> Optional[list]:
    """Join optional debug-string columns, given as ``(strings, rows)``
    pairs where ``None`` stands for ``rows`` Nones; ``None`` while every
    part is."""
    parts = list(parts)
    if all(strings is None for strings, _ in parts):
        return None
    out: list = []
    for strings, rows in parts:
        out.extend([None] * rows if strings is None else strings)
    return out


def _header_strings(header: dict, n_do: int, n_tgt: int, where: str):
    """The variable and target-name columns of a payload header, ``None``
    where the header has none, checked against the row counts."""
    variables = header.get("data_op_variables") or None
    names = header.get("target_names") or None
    if (variables is not None and len(variables) != n_do) or (
        names is not None and len(names) != n_tgt
    ):
        raise ValueError(f"{where} string columns disagree with array lengths")
    return variables, names


#: ``np.dtype`` of a header's dtype string, memoised: every shard of a
#: store names the same few dtypes (a bad string raises on every call).
_parse_dtype = functools.lru_cache(maxsize=64)(np.dtype)


def _parse_flat_header(header_bytes: bytes, source: str) -> tuple[dict, dict, int]:
    """``(header, layouts, data_end)`` of a flat payload header, whose
    columns are checked against its row counts.

    ``layouts`` maps the tag (``do``/``tgt``) of each non-empty column
    group to its row count and columns, name -> ``(dtype, rows, offset)``
    with the offset relative to the data section; ``data_end`` is where
    the last column ends, relative to the same.
    """
    header = json.loads(header_bytes)
    columns: dict[str, dict[str, tuple[np.dtype, int, int]]] = {"do": {}, "tgt": {}}
    data_end = 0
    for tag, name, dtype_str, offset, nbytes in header["columns"]:
        dtype = _parse_dtype(dtype_str)
        columns[tag][name] = (dtype, nbytes // dtype.itemsize, offset)
        data_end = max(data_end, offset + nbytes)
    layouts = {}
    for tag, types, length in (
        ("do", _DATA_OP_DTYPES, int(header["num_data_op_events"])),
        ("tgt", _TARGET_DTYPES, int(header["num_target_events"])),
    ):
        if length == 0:
            continue
        for name in types:
            entry = columns[tag].get(name)
            if entry is None or entry[1] != length:
                raise ValueError(f"{source}: column {name!r} is missing or has wrong length")
        layouts[tag] = (length, columns[tag])
    return header, layouts, data_end


def _flat_view(
    mv: memoryview, data_start: int, dtype: np.dtype, count: int, offset: int, want: np.dtype
) -> np.ndarray:
    """One column of a flat payload: a view in place, converted only when
    the payload stored it as another dtype."""
    view = np.frombuffer(mv, dtype=dtype, count=count, offset=data_start + offset)
    return view if dtype == want else view.astype(want)


class _ColumnGroup:
    """A bundle of parallel arrays with amortised-doubling growth.

    ``append_row`` only queues the row's tuple (values in column-spec
    order); the first read of the columns, or a full queue, settles every
    queued row at once, with one ``np.array`` conversion per column.  A row
    numpy cannot store (a negative address, an integer past 64 bits)
    therefore raises at that read — at the latest when the collector's
    shard is flushed — and the failed settle leaves the settled and the
    queued rows as they were.  ``size`` always counts both.
    """

    def __init__(self, columns: Sequence[tuple[str, type]]) -> None:
        self._spec = tuple(columns)
        self.size = 0
        self._capacity = 0
        self._columns: dict[str, np.ndarray] = {
            name: np.empty(0, dtype=dtype) for name, dtype in self._spec
        }
        self._pending: list[tuple] = []

    @property
    def _arrays(self) -> dict[str, np.ndarray]:
        """The backing arrays, with every queued row settled into them."""
        if self._pending:
            self._settle()
        return self._columns

    def _settle(self) -> None:
        pending = self._pending
        # Convert every column before touching the arrays, so a row numpy
        # rejects leaves the group unchanged.
        converted = [
            np.array(column, dtype=dtype)
            for column, (_, dtype) in zip(zip(*pending), self._spec)
        ]
        lo = self.size - len(pending)
        if lo == 0:
            # The common case (a fresh shard buffer): adopt the conversions.
            self._columns = {name: col for (name, _), col in zip(self._spec, converted)}
            self._capacity = self.size
        else:
            if self.size > self._capacity:
                self._grow_to(self.size)
            for (name, _), col in zip(self._spec, converted):
                self._columns[name][lo : self.size] = col
        self._pending = []

    def _grow_to(self, capacity: int) -> None:
        new_capacity = max(self._capacity * 2, _INITIAL_CAPACITY)
        while new_capacity < capacity:
            new_capacity *= 2
        live = self.size - len(self._pending)
        for name, dtype in self._spec:
            fresh = np.empty(new_capacity, dtype=dtype)
            fresh[:live] = self._columns[name][:live]
            self._columns[name] = fresh
        self._capacity = new_capacity

    def append_row(self, row: tuple) -> None:
        """Queue one row: a tuple of values in column-spec order."""
        pending = self._pending
        pending.append(row)
        self.size += 1
        if len(pending) >= _MAX_PENDING_ROWS:
            self._settle()

    def extend_columns(self, length: int, **columns) -> None:
        if length == 0:
            return
        if self._pending:
            self._settle()
        if self.size + length > self._capacity:
            self._grow_to(self.size + length)
        lo, hi = self.size, self.size + length
        for name, _ in self._spec:
            self._columns[name][lo:hi] = columns[name]
        self.size = hi

    def adopt_lazy(self, length: int, make: Callable[[str], np.ndarray]) -> None:
        """Take ``length`` rows whose columns ``make(name)`` builds on
        their first read (each must return a ``length``-row array of the
        column's dtype).  Only valid on an empty group; growth reallocates,
        as after :meth:`adopt_columns`."""
        if self.size:
            raise ValueError("adopt_lazy requires an empty column group")
        self._columns = _LazyColumns(make)
        self.size = self._capacity = length

    def adopt_columns(self, length: int, **columns) -> None:
        """Take ownership of ready-made arrays without copying.

        Only valid on an empty group; the arrays must be freshly allocated
        (the loader's decode buffers) — the group will hand out views of
        them and grow by reallocating, never mutating the originals'
        tails.  This halves the transient footprint of loading a shard.
        """
        if self.size:
            raise ValueError("adopt_columns requires an empty column group")
        if length == 0:
            return
        for name, dtype in self._spec:
            arr = np.ascontiguousarray(columns[name], dtype=dtype)
            if arr.shape != (length,):
                raise ValueError(f"column {name!r} has wrong length")
            self._columns[name] = arr
        self.size = length
        self._capacity = length

    def view(self, name: str) -> np.ndarray:
        """Zero-copy view of the live prefix of one column."""
        return self._arrays[name][: self.size]

    def compact(self) -> dict[str, np.ndarray]:
        """Copies of the live prefixes (used by the binary writer)."""
        return {name: self.view(name).copy() for name, _ in self._spec}

    @property
    def capacity(self) -> int:
        if self._pending:
            self._settle()
        return self._capacity


class ColumnarTrace:
    """Structure-of-arrays trace: the columnar twin of :class:`Trace`.

    The class intentionally mirrors the read API of :class:`Trace`
    (``data_op_events``, ``transfers()``, ``summary()``, ``save()`` …) so
    that existing consumers keep working, while the detectors' streaming
    passes reach the raw columns through the ``do_*`` / ``tgt_*`` views.  Object
    events are materialised lazily and cached; any append invalidates the
    cache.
    """

    def __init__(
        self,
        num_devices: int = 1,
        program_name: Optional[str] = None,
        total_runtime: Optional[float] = None,
    ) -> None:
        self.num_devices = num_devices
        self.program_name = program_name
        self.total_runtime = total_runtime
        self._data_ops = _ColumnGroup(_DATA_OP_COLUMNS)
        self._targets = _ColumnGroup(_TARGET_COLUMNS)
        #: optional per-event debug strings (kept as Python lists: they are
        #: debug aids, never touched by the detectors); ``None`` stands for
        #: a list of Nones, so shards without debug info never build one
        self._variables: Optional[list[Optional[str]]] = None
        self._names: Optional[list[Optional[str]]] = None
        self._do_cache: Optional[list[DataOpEvent]] = None
        self._tgt_cache: Optional[list[TargetEvent]] = None

    @property
    def _do_variables(self) -> list[Optional[str]]:
        """Every data-op row's ``variable`` (built on first read)."""
        if self._variables is None:
            self._variables = [None] * self._data_ops.size
        return self._variables

    @property
    def _tgt_names(self) -> list[Optional[str]]:
        """Every target row's ``name`` (built on first read)."""
        if self._names is None:
            self._names = [None] * self._targets.size
        return self._names

    # ------------------------------------------------------------------ #
    # Column views (zero copy)
    # ------------------------------------------------------------------ #
    @property
    def num_data_op_events(self) -> int:
        return self._data_ops.size

    @property
    def num_target_events(self) -> int:
        return self._targets.size

    def do_column(self, name: str) -> np.ndarray:
        return self._data_ops.view(name)

    def tgt_column(self, name: str) -> np.ndarray:
        return self._targets.view(name)

    @property
    def do_seq(self) -> np.ndarray:
        return self._data_ops.view("seq")

    @property
    def do_kind(self) -> np.ndarray:
        return self._data_ops.view("kind")

    @property
    def do_src_device_num(self) -> np.ndarray:
        return self._data_ops.view("src_device_num")

    @property
    def do_dest_device_num(self) -> np.ndarray:
        return self._data_ops.view("dest_device_num")

    @property
    def do_src_addr(self) -> np.ndarray:
        return self._data_ops.view("src_addr")

    @property
    def do_dest_addr(self) -> np.ndarray:
        return self._data_ops.view("dest_addr")

    @property
    def do_nbytes(self) -> np.ndarray:
        return self._data_ops.view("nbytes")

    @property
    def do_start_time(self) -> np.ndarray:
        return self._data_ops.view("start_time")

    @property
    def do_end_time(self) -> np.ndarray:
        return self._data_ops.view("end_time")

    @property
    def do_content_hash(self) -> np.ndarray:
        return self._data_ops.view("content_hash")

    @property
    def do_has_content_hash(self) -> np.ndarray:
        return self._data_ops.view("has_content_hash")

    @property
    def tgt_seq(self) -> np.ndarray:
        return self._targets.view("seq")

    @property
    def tgt_kind(self) -> np.ndarray:
        return self._targets.view("kind")

    @property
    def tgt_device_num(self) -> np.ndarray:
        return self._targets.view("device_num")

    @property
    def tgt_start_time(self) -> np.ndarray:
        return self._targets.view("start_time")

    @property
    def tgt_end_time(self) -> np.ndarray:
        return self._targets.view("end_time")

    def transfer_mask(self) -> np.ndarray:
        kind = self.do_kind
        return (kind == CODE_TO_DEVICE) | (kind == CODE_FROM_DEVICE)

    def kernel_mask(self) -> np.ndarray:
        return self.tgt_kind == CODE_TARGET

    def batches(self) -> Iterator["ColumnarTrace"]:
        """The trivial :class:`~repro.events.protocol.EventStream`: one batch.

        Makes every columnar trace directly consumable by the streaming
        detectors and :func:`repro.core.analysis.analyze_stream`.
        """
        return iter((self,))

    def slice_rows(
        self, do_lo: int, do_hi: int, tgt_lo: int, tgt_hi: int
    ) -> "ColumnarTrace":
        """Copy a contiguous row range of both column groups into a new trace.

        The slice carries the parent's ``num_devices`` / ``program_name``
        but no ``total_runtime`` (a shard's runtime is meaningless on its
        own).  Used by the shard writer and the in-memory stream slicer.
        """
        out = ColumnarTrace(num_devices=self.num_devices, program_name=self.program_name)
        out._data_ops.extend_columns(
            do_hi - do_lo,
            **{name: self._data_ops.view(name)[do_lo:do_hi] for name, _ in _DATA_OP_COLUMNS},
        )
        out._targets.extend_columns(
            tgt_hi - tgt_lo,
            **{name: self._targets.view(name)[tgt_lo:tgt_hi] for name, _ in _TARGET_COLUMNS},
        )
        if self._variables is not None:
            out._variables = self._variables[do_lo:do_hi]
        if self._names is not None:
            out._names = self._names[tgt_lo:tgt_hi]
        return out

    def select_rows(self, do_rows, tgt_rows) -> "ColumnarTrace":
        """Copy an arbitrary (ascending) row subset into a new trace.

        The non-contiguous sibling of :meth:`slice_rows`: row indices are
        fancy-indexed out of both column groups.  Used by retention-aware
        compaction, which drops individual events (by age or kind) while
        rewriting shards.
        """
        do_rows = np.asarray(do_rows, dtype=np.int64)
        tgt_rows = np.asarray(tgt_rows, dtype=np.int64)
        out = ColumnarTrace(num_devices=self.num_devices, program_name=self.program_name)
        out._data_ops.extend_columns(
            do_rows.size,
            **{name: self._data_ops.view(name)[do_rows] for name, _ in _DATA_OP_COLUMNS},
        )
        out._targets.extend_columns(
            tgt_rows.size,
            **{name: self._targets.view(name)[tgt_rows] for name, _ in _TARGET_COLUMNS},
        )
        if self._variables is not None:
            out._variables = [self._variables[i] for i in do_rows.tolist()]
        if self._names is not None:
            out._names = [self._names[i] for i in tgt_rows.tolist()]
        return out

    # ------------------------------------------------------------------ #
    # Appends (the collector's hot path)
    # ------------------------------------------------------------------ #
    def append_data_op(
        self,
        seq: int,
        kind: DataOpKind,
        src_device_num: int,
        dest_device_num: int,
        src_addr: int,
        dest_addr: int,
        nbytes: int,
        start_time: float,
        end_time: float,
        content_hash: Optional[int] = None,
        codeptr: Optional[int] = None,
        target_id: Optional[int] = None,
        variable: Optional[str] = None,
    ) -> None:
        """Append one data-op row (same invariants as :class:`DataOpEvent`).

        The arguments follow the column order, so the collector passes them
        positionally: binding keywords costs more than queueing the row.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if end_time < start_time:
            raise ValueError("event ends before it starts")
        if kind.is_transfer and content_hash is None:
            raise ValueError("transfer events must carry a content hash")
        if variable is not None and self._variables is None:
            self._variables = [None] * self._data_ops.size
        self._data_ops.append_row((
            seq,
            _DATA_OP_CODE_OF[kind],
            src_device_num,
            dest_device_num,
            src_addr,
            dest_addr,
            nbytes,
            start_time,
            end_time,
            0 if content_hash is None else content_hash,
            content_hash is not None,
            0 if codeptr is None else codeptr,
            codeptr is not None,
            0 if target_id is None else target_id,
            target_id is not None,
        ))
        if self._variables is not None:
            self._variables.append(variable)
        self._do_cache = None

    def append_target(
        self,
        seq: int,
        kind: TargetKind,
        device_num: int,
        start_time: float,
        end_time: float,
        codeptr: Optional[int] = None,
        target_id: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        """Append one target row (same invariants as :class:`TargetEvent`);
        positional like :meth:`append_data_op`."""
        if end_time < start_time:
            raise ValueError("event ends before it starts")
        if name is not None and self._names is None:
            self._names = [None] * self._targets.size
        self._targets.append_row((
            seq,
            _TARGET_CODE_OF[kind],
            device_num,
            start_time,
            end_time,
            0 if codeptr is None else codeptr,
            codeptr is not None,
            0 if target_id is None else target_id,
            target_id is not None,
        ))
        if self._names is not None:
            self._names.append(name)
        self._tgt_cache = None

    def append_data_op_event(self, event: DataOpEvent) -> None:
        """Trace-compatible append of an object event."""
        self.append_data_op(
            seq=event.seq,
            kind=event.kind,
            src_device_num=event.src_device_num,
            dest_device_num=event.dest_device_num,
            src_addr=event.src_addr,
            dest_addr=event.dest_addr,
            nbytes=event.nbytes,
            start_time=event.start_time,
            end_time=event.end_time,
            content_hash=event.content_hash,
            codeptr=event.codeptr,
            target_id=event.target_id,
            variable=event.variable,
        )

    def append_target_event(self, event: TargetEvent) -> None:
        """Trace-compatible append of an object event."""
        self.append_target(
            seq=event.seq,
            kind=event.kind,
            device_num=event.device_num,
            start_time=event.start_time,
            end_time=event.end_time,
            codeptr=event.codeptr,
            target_id=event.target_id,
            name=event.name,
        )

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    def data_op_event_at(self, index: int) -> DataOpEvent:
        """Materialise one data-op event from its row index."""
        if not 0 <= index < self._data_ops.size:
            raise IndexError(f"data-op row {index} out of range")
        a = self._data_ops._arrays
        return DataOpEvent(
            seq=int(a["seq"][index]),
            kind=DATA_OP_KIND_CODES[a["kind"][index]],
            src_device_num=int(a["src_device_num"][index]),
            dest_device_num=int(a["dest_device_num"][index]),
            src_addr=int(a["src_addr"][index]),
            dest_addr=int(a["dest_addr"][index]),
            nbytes=int(a["nbytes"][index]),
            start_time=float(a["start_time"][index]),
            end_time=float(a["end_time"][index]),
            content_hash=(
                int(a["content_hash"][index]) if a["has_content_hash"][index] else None
            ),
            codeptr=int(a["codeptr"][index]) if a["has_codeptr"][index] else None,
            target_id=int(a["target_id"][index]) if a["has_target_id"][index] else None,
            variable=None if self._variables is None else self._variables[index],
        )

    def target_event_at(self, index: int) -> TargetEvent:
        """Materialise one target event from its row index."""
        if not 0 <= index < self._targets.size:
            raise IndexError(f"target row {index} out of range")
        a = self._targets._arrays
        return TargetEvent(
            seq=int(a["seq"][index]),
            kind=TARGET_KIND_CODES[a["kind"][index]],
            device_num=int(a["device_num"][index]),
            start_time=float(a["start_time"][index]),
            end_time=float(a["end_time"][index]),
            codeptr=int(a["codeptr"][index]) if a["has_codeptr"][index] else None,
            target_id=int(a["target_id"][index]) if a["has_target_id"][index] else None,
            name=None if self._names is None else self._names[index],
        )

    def data_op_events_at(self, rows) -> list[DataOpEvent]:
        """Bulk-materialise data-op events for an array of row indices.

        Columns are gathered with one fancy-indexing pass each and handed
        to the dataclass constructor as Python scalars, which is several
        times cheaper than per-event column reads.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self._data_ops.size):
            raise IndexError("data-op row index out of range")
        c = {name: self._data_ops.view(name).take(rows).tolist()
             for name, _ in _DATA_OP_COLUMNS}
        variables = self._variables
        return [
            DataOpEvent(
                seq=c["seq"][k],
                kind=DATA_OP_KIND_CODES[c["kind"][k]],
                src_device_num=c["src_device_num"][k],
                dest_device_num=c["dest_device_num"][k],
                src_addr=c["src_addr"][k],
                dest_addr=c["dest_addr"][k],
                nbytes=c["nbytes"][k],
                start_time=c["start_time"][k],
                end_time=c["end_time"][k],
                content_hash=c["content_hash"][k] if c["has_content_hash"][k] else None,
                codeptr=c["codeptr"][k] if c["has_codeptr"][k] else None,
                target_id=c["target_id"][k] if c["has_target_id"][k] else None,
                variable=None if variables is None else variables[row],
            )
            for k, row in enumerate(rows.tolist())
        ]

    def target_events_at(self, rows) -> list[TargetEvent]:
        """Bulk-materialise target events for an array of row indices."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self._targets.size):
            raise IndexError("target row index out of range")
        c = {name: self._targets.view(name).take(rows).tolist()
             for name, _ in _TARGET_COLUMNS}
        names = self._names
        return [
            TargetEvent(
                seq=c["seq"][k],
                kind=TARGET_KIND_CODES[c["kind"][k]],
                device_num=c["device_num"][k],
                start_time=c["start_time"][k],
                end_time=c["end_time"][k],
                codeptr=c["codeptr"][k] if c["has_codeptr"][k] else None,
                target_id=c["target_id"][k] if c["has_target_id"][k] else None,
                name=None if names is None else names[row],
            )
            for k, row in enumerate(rows.tolist())
        ]

    @property
    def data_op_events(self) -> list[DataOpEvent]:
        """Object view of the data-op columns (materialised lazily, cached)."""
        if self._do_cache is None:
            self._do_cache = self.data_op_events_at(np.arange(self._data_ops.size))
        return self._do_cache

    @property
    def target_events(self) -> list[TargetEvent]:
        """Object view of the target columns (materialised lazily, cached)."""
        if self._tgt_cache is None:
            self._tgt_cache = self.target_events_at(np.arange(self._targets.size))
        return self._tgt_cache

    # ------------------------------------------------------------------ #
    # Trace-compatible read API
    # ------------------------------------------------------------------ #
    @property
    def host_device_num(self) -> int:
        return self.num_devices

    @property
    def end_time(self) -> float:
        """Timestamp of the latest event end (0.0 for an empty trace)."""
        last = 0.0
        if self._targets.size:
            last = max(last, float(self.tgt_end_time.max()))
        if self._data_ops.size:
            last = max(last, float(self.do_end_time.max()))
        return last

    @property
    def runtime(self) -> float:
        if self.total_runtime is not None:
            return self.total_runtime
        return self.end_time

    def __len__(self) -> int:
        return self._targets.size + self._data_ops.size

    def is_empty(self) -> bool:
        return len(self) == 0

    def transfers(self) -> list[DataOpEvent]:
        return self.data_op_events_at(np.flatnonzero(self.transfer_mask()))

    def transfers_to_devices(self) -> list[DataOpEvent]:
        return self.data_op_events_at(np.flatnonzero(self.do_kind == CODE_TO_DEVICE))

    def transfers_from_devices(self) -> list[DataOpEvent]:
        return self.data_op_events_at(np.flatnonzero(self.do_kind == CODE_FROM_DEVICE))

    def allocations(self) -> list[DataOpEvent]:
        return self.data_op_events_at(np.flatnonzero(self.do_kind == CODE_ALLOC))

    def deletions(self) -> list[DataOpEvent]:
        return self.data_op_events_at(np.flatnonzero(self.do_kind == CODE_DELETE))

    def alloc_delete_pairs(self) -> list[AllocationPair]:
        return get_alloc_delete_pairs(self.data_op_events)

    def kernel_events(self) -> list[TargetEvent]:
        return self.target_events_at(np.flatnonzero(self.kernel_mask()))

    def events_for_device(self, device_num: int) -> "ColumnarTrace":
        sub = ColumnarTrace(
            num_devices=self.num_devices,
            program_name=self.program_name,
            total_runtime=self.total_runtime,
        )
        for i in np.flatnonzero(self.tgt_device_num == device_num):
            sub.append_target_event(self.target_event_at(i))
        touched = (self.do_src_device_num == device_num) | (
            self.do_dest_device_num == device_num
        )
        for i in np.flatnonzero(touched):
            sub.append_data_op_event(self.data_op_event_at(i))
        return sub

    # ------------------------------------------------------------------ #
    # Aggregate statistics (vectorised)
    # ------------------------------------------------------------------ #
    def total_bytes_transferred(self) -> int:
        return int(self.do_nbytes[self.transfer_mask()].sum())

    def total_transfer_time(self) -> float:
        mask = self.transfer_mask()
        return float((self.do_end_time[mask] - self.do_start_time[mask]).sum())

    def total_alloc_time(self) -> float:
        kind = self.do_kind
        mask = (kind == CODE_ALLOC) | (kind == CODE_DELETE)
        return float((self.do_end_time[mask] - self.do_start_time[mask]).sum())

    def total_kernel_time(self) -> float:
        mask = self.kernel_mask()
        return float((self.tgt_end_time[mask] - self.tgt_start_time[mask]).sum())

    def space_overhead_bytes(self) -> int:
        return (
            DATA_OP_EVENT_BYTES * self._data_ops.size
            + TARGET_EVENT_BYTES * self._targets.size
        )

    def summary(self) -> dict:
        return {
            "program_name": self.program_name,
            "num_devices": self.num_devices,
            "num_target_events": self._targets.size,
            "num_kernel_events": int(self.kernel_mask().sum()),
            "num_data_op_events": self._data_ops.size,
            "num_transfers": int(self.transfer_mask().sum()),
            "num_allocations": int((self.do_kind == CODE_ALLOC).sum()),
            "bytes_transferred": self.total_bytes_transferred(),
            "transfer_time": self.total_transfer_time(),
            "alloc_time": self.total_alloc_time(),
            "kernel_time": self.total_kernel_time(),
            "runtime": self.runtime,
            "space_overhead_bytes": self.space_overhead_bytes(),
        }

    def all_events_chronological(self) -> Iterator[DataOpEvent | TargetEvent]:
        merged: list[tuple[float, int, DataOpEvent | TargetEvent]] = []
        for e in self.target_events:
            merged.append((e.start_time, e.seq, e))
        for e in self.data_op_events:
            merged.append((e.start_time, e.seq, e))
        merged.sort(key=lambda t: (t[0], t[1]))
        for _, _, e in merged:
            yield e

    def extend_from(self, other: "ColumnarTrace") -> None:
        """Append another columnar trace's rows (bulk column copies)."""
        n_do, n_tgt = self._data_ops.size, self._targets.size
        self._data_ops.extend_columns(
            other.num_data_op_events,
            **{name: other._data_ops.view(name) for name, _ in _DATA_OP_COLUMNS},
        )
        self._targets.extend_columns(
            other.num_target_events,
            **{name: other._targets.view(name) for name, _ in _TARGET_COLUMNS},
        )
        self._variables = _join_strings(
            ((self._variables, n_do), (other._variables, other.num_data_op_events))
        )
        self._names = _join_strings(
            ((self._names, n_tgt), (other._names, other.num_target_events))
        )
        self._do_cache = None
        self._tgt_cache = None

    @classmethod
    def concat(cls, batches: Sequence["ColumnarTrace"]) -> "ColumnarTrace":
        """The rows of ``batches`` (at least one) as one trace, in order.

        No column is copied up front: each is concatenated on its first
        read, so a consumer pays only for the columns it reads.  Every
        read (and any later append) equals
        :func:`~repro.events.stream.merge_stream` over the same batches.
        Like a shard, the result carries the first batch's
        ``num_devices`` and ``program_name`` but no ``total_runtime``.
        """
        out = cls(num_devices=batches[0].num_devices, program_name=batches[0].program_name)
        for group, parts in (
            (out._data_ops, [batch._data_ops for batch in batches]),
            (out._targets, [batch._targets for batch in batches]),
        ):
            group.adopt_lazy(
                sum(part.size for part in parts),
                lambda name, parts=parts: np.concatenate([part.view(name) for part in parts]),
            )
        out._variables = _join_strings((b._variables, b.num_data_op_events) for b in batches)
        out._names = _join_strings((b._names, b.num_target_events) for b in batches)
        return out

    @classmethod
    def gather_data_ops(
        cls, sources: Iterable[tuple["ColumnarTrace", np.ndarray]], size: int
    ) -> "ColumnarTrace":
        """The data-op rows ``rows`` of each ``(batch, rows)`` source, in
        order, as one trace of ``size`` rows and no target rows.

        Each column is allocated once at ``size`` and filled from each
        batch's column, so no per-batch trace is built, and a batch is
        released before the next is drawn from ``sources``.  Raises
        :class:`IndexError` when the sources hold fewer than ``size`` rows.
        """
        columns = {name: np.empty(size, dtype=dtype) for name, dtype in _DATA_OP_COLUMNS}
        variables: Optional[list] = None
        at = 0
        for batch, rows in sources:
            end = at + rows.size
            if rows.size and not 0 <= rows[0] <= rows[-1] < batch._data_ops.size:
                raise IndexError("data-op row index out of range")
            # No local but ``batch`` may refer to the batch's columns or
            # strings, so deleting it releases the batch.
            for name, column in columns.items():
                column[at:end] = batch._data_ops.view(name)[rows]
            if batch._variables is not None:
                if variables is None:
                    variables = [None] * size
                variables[at:end] = map(batch._variables.__getitem__, rows.tolist())
            at = end
            del batch  # before the next source is loaded
        if at != size:
            raise IndexError("stream ended before every requested row was found")
        out = cls()
        out._data_ops.adopt_columns(size, **columns)
        out._variables = variables
        return out

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(
        cls,
        *,
        num_devices: int = 1,
        program_name: Optional[str] = None,
        total_runtime: Optional[float] = None,
        data_ops: Optional[dict[str, np.ndarray]] = None,
        targets: Optional[dict[str, np.ndarray]] = None,
    ) -> "ColumnarTrace":
        """Bulk-construct a trace from ready-made column arrays.

        ``data_ops`` / ``targets`` map column names (see the module-level
        column specs) to equal-length arrays.  The optional-field presence
        masks may be omitted: ``has_content_hash`` then defaults to "every
        transfer has one" and ``has_codeptr`` / ``has_target_id`` to absent.
        This is the fast path for synthetic trace generators and loaders —
        one call ingests millions of events without per-event work.
        """
        out = cls(
            num_devices=num_devices,
            program_name=program_name,
            total_runtime=total_runtime,
        )
        if data_ops:
            n = len(data_ops["seq"])
            filled = dict(data_ops)
            kind = np.asarray(filled["kind"])
            if "has_content_hash" not in filled:
                filled["has_content_hash"] = (kind == CODE_TO_DEVICE) | (
                    kind == CODE_FROM_DEVICE
                )
            for optional in ("content_hash", "codeptr", "target_id"):
                filled.setdefault(optional, np.zeros(n, dtype=np.uint64))
                filled.setdefault(f"has_{optional}", np.zeros(n, dtype=np.bool_))
            out._data_ops.extend_columns(n, **filled)
        if targets:
            m = len(targets["seq"])
            filled = dict(targets)
            for optional in ("codeptr", "target_id"):
                filled.setdefault(optional, np.zeros(m, dtype=np.uint64))
                filled.setdefault(f"has_{optional}", np.zeros(m, dtype=np.bool_))
            out._targets.extend_columns(m, **filled)
        return out

    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Build the columnar twin of an object trace (lossless)."""
        out = cls(
            num_devices=trace.num_devices,
            program_name=trace.program_name,
            total_runtime=trace.total_runtime,
        )
        for event in trace.target_events:
            out.append_target_event(event)
        for event in trace.data_op_events:
            out.append_data_op_event(event)
        return out

    def to_trace(self) -> Trace:
        """Materialise the object twin of this trace (lossless)."""
        out = Trace(
            num_devices=self.num_devices,
            program_name=self.program_name,
            total_runtime=self.total_runtime,
        )
        out.target_events = list(self.target_events)
        out.data_op_events = list(self.data_op_events)
        return out

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return self.to_trace().to_dict()

    @classmethod
    def from_dict(cls, d: dict) -> "ColumnarTrace":
        return cls.from_trace(Trace.from_dict(d))

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ColumnarTrace":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        """Write the JSON form (interchangeable with :meth:`Trace.save`)."""
        Path(path).write_text(self.to_json(indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ColumnarTrace":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def save_binary(self, path: str | Path) -> None:
        """Write the versioned binary columnar format (a compressed ``.npz``)."""
        Path(path).write_bytes(self.to_binary_bytes())

    def to_binary_bytes(self) -> bytes:
        """The binary columnar format as one blob."""
        meta = {
            "format_version": COLUMNAR_FORMAT_VERSION,
            "program_name": self.program_name,
            "num_devices": self.num_devices,
            "total_runtime": self.total_runtime,
            "num_data_op_events": self._data_ops.size,
            "num_target_events": self._targets.size,
            "data_op_variables": self._do_variables,
            "target_names": self._tgt_names,
        }
        arrays = {f"do_{name}": col for name, col in self._data_ops.compact().items()}
        arrays.update(
            {f"tgt_{name}": col for name, col in self._targets.compact().items()}
        )
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        return buffer.getvalue()

    @classmethod
    def load_binary(cls, path: str | Path) -> "ColumnarTrace":
        """Read the versioned binary columnar format."""
        try:
            archive_file = np.load(io.BytesIO(Path(path).read_bytes()), allow_pickle=False)
        except zipfile.BadZipFile as exc:
            raise ValueError(f"{path}: not a valid columnar trace archive ({exc})") from exc
        with archive_file as archive:
            if "meta" not in archive:
                raise ValueError(f"{path}: not a columnar trace archive")
            meta = json.loads(archive["meta"].tobytes().decode("utf-8"))
            version = meta.get("format_version")
            if version != COLUMNAR_FORMAT_VERSION:
                raise ValueError(f"unsupported columnar trace format version {version}")
            out = cls(
                num_devices=int(meta["num_devices"]),
                program_name=meta.get("program_name"),
                total_runtime=meta.get("total_runtime"),
            )
            n_do = int(meta["num_data_op_events"])
            n_tgt = int(meta["num_target_events"])
            out._data_ops.adopt_columns(
                n_do,
                **{name: archive[f"do_{name}"] for name, _ in _DATA_OP_COLUMNS},
            )
            out._targets.adopt_columns(
                n_tgt,
                **{name: archive[f"tgt_{name}"] for name, _ in _TARGET_COLUMNS},
            )
        out._variables, out._names = _header_strings(meta, n_do, n_tgt, f"{path}: metadata")
        return out

    # ------------------------------------------------------------------ #
    # Flat payload (zero-copy views)
    # ------------------------------------------------------------------ #
    def _flat_plan(self) -> tuple[bytes, int, int, list[tuple[str, str, str, int, int]]]:
        """Lay out the flat payload: header bytes, data start, total size.

        Column offsets in the header are relative to the (aligned) start of
        the data section, so they do not depend on the header's own length.
        """
        columns: list[tuple[str, str, str, int, int]] = []
        offset = 0
        for tag, group, spec in (
            ("do", self._data_ops, _DATA_OP_COLUMNS),
            ("tgt", self._targets, _TARGET_COLUMNS),
        ):
            for name, _ in spec:
                arr = group.view(name)
                columns.append((tag, name, arr.dtype.str, offset, int(arr.nbytes)))
                offset = _align_flat(offset + int(arr.nbytes))
        header = {
            "format_version": FLAT_FORMAT_VERSION,
            "program_name": self.program_name,
            "num_devices": self.num_devices,
            "total_runtime": self.total_runtime,
            "num_data_op_events": self._data_ops.size,
            "num_target_events": self._targets.size,
            # Debug string columns are usually absent on shards; encode the
            # all-None common case as null to keep the header compact.
            "data_op_variables": (
                None if all(v is None for v in self._variables or ()) else self._variables
            ),
            "target_names": (
                None if all(v is None for v in self._names or ()) else self._names
            ),
            "columns": columns,
        }
        header_bytes = json.dumps(header).encode("utf-8")
        data_start = _align_flat(_FLAT_PREFIX.size + len(header_bytes))
        return header_bytes, data_start, data_start + offset, columns

    def to_flat_payload(self) -> bytes:
        """The flat payload as one blob (an ``.odpf`` shard's file body)."""
        header_bytes, data_start, total, columns = self._flat_plan()
        buf = bytearray(total)
        _FLAT_PREFIX.pack_into(buf, 0, FLAT_MAGIC, FLAT_FORMAT_VERSION, 0, len(header_bytes))
        buf[_FLAT_PREFIX.size : _FLAT_PREFIX.size + len(header_bytes)] = header_bytes
        groups = {"do": self._data_ops, "tgt": self._targets}
        for tag, name, dtype_str, offset, nbytes in columns:
            src = groups[tag].view(name)
            dst = np.frombuffer(
                buf, dtype=np.dtype(dtype_str), count=src.size, offset=data_start + offset
            )
            np.copyto(dst, src, casting="no")
        return bytes(buf)

    def save_flat(self, path: str | Path) -> None:
        """Write the trace as one standalone ``.odpf`` flat payload file."""
        Path(path).write_bytes(self.to_flat_payload())

    @classmethod
    def load_flat(cls, path: str | Path) -> "ColumnarTrace":
        """Memory-map a standalone ``.odpf`` file as zero-copy column views.

        The mapping is the returned trace's keepalive: it stays mapped as
        long as any view into it is referenced and is reclaimed by the OS
        when the last reference drops — there is no handle to close.
        """
        import mmap

        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        return cls.from_shared(mapped, keepalive=mapped, source=str(path))

    @classmethod
    def from_shared(cls, buf, *, keepalive=None, source: str = "<shared>") -> "ColumnarTrace":
        """Build a trace whose columns are zero-copy views into ``buf``.

        ``buf`` holds a flat payload (see :meth:`to_flat_payload`) — an
        ``mmap``, the bytes of a fetched blob, or any buffer.  No column
        data is copied; the returned trace keeps a reference to
        ``keepalive`` (e.g. the ``mmap``) so the mapping outlives the
        views.  Appending to the returned trace is safe: growth reallocates
        into private memory, never mutating ``buf``.

        Opening costs nearly nothing per shard.  Every check runs here,
        and a bad payload raises :class:`ValueError` at once: the magic,
        the version, truncation, each column's length against the row
        counts, and the debug-string lists' lengths.  But a column's view
        is only built when it is first read, and all-``None`` debug
        strings are carried as ``None``, not as lists.
        """
        mv = memoryview(buf)
        if len(mv) < _FLAT_PREFIX.size:
            raise ValueError(f"{source}: buffer too small for a flat trace payload")
        magic, version, _, header_len = _FLAT_PREFIX.unpack_from(mv, 0)
        if magic != FLAT_MAGIC:
            raise ValueError(f"{source}: not a flat trace payload")
        if version != FLAT_FORMAT_VERSION:
            raise ValueError(f"{source}: unsupported flat payload version {version}")
        if len(mv) < _FLAT_PREFIX.size + header_len:
            raise ValueError(f"{source}: truncated flat trace payload")
        header, layouts, data_end = _parse_flat_header(
            bytes(mv[_FLAT_PREFIX.size : _FLAT_PREFIX.size + header_len]), source
        )
        data_start = _align_flat(_FLAT_PREFIX.size + header_len)
        # A torn write can keep the magic-bearing prefix of the payload (an
        # object-store put commits whatever bytes arrived), so a valid
        # magic alone does not prove the column data is all there.
        if len(mv) < data_start + data_end:
            raise ValueError(f"{source}: truncated flat trace payload")
        out = cls(
            num_devices=int(header["num_devices"]),
            program_name=header.get("program_name"),
            total_runtime=header.get("total_runtime"),
        )
        for tag, group, types in (
            ("do", out._data_ops, _DATA_OP_DTYPES),
            ("tgt", out._targets, _TARGET_DTYPES),
        ):
            if tag in layouts:
                length, layout = layouts[tag]
                group.adopt_lazy(
                    length,
                    lambda name, layout=layout, types=types: _flat_view(
                        mv, data_start, *layout[name], types[name]
                    ),
                )
        n_do, n_tgt = out._data_ops.size, out._targets.size
        out._variables, out._names = _header_strings(header, n_do, n_tgt, f"{source}: header")
        out._shared_keepalive = (keepalive, mv)
        return out


def as_columnar(trace: "Trace | ColumnarTrace") -> ColumnarTrace:
    """Return ``trace`` itself if already columnar, else convert it."""
    if isinstance(trace, ColumnarTrace):
        return trace
    return ColumnarTrace.from_trace(trace)


def as_object_trace(trace: "Trace | ColumnarTrace") -> Trace:
    """Return ``trace`` itself if already an object trace, else convert it."""
    if isinstance(trace, Trace):
        return trace
    return trace.to_trace()


def load_trace(path: str | Path):
    """Load a trace from disk, sniffing the storage format.

    Delegates to the backend table in :mod:`repro.events.backends`: a
    store directory or a zip-archived store is opened as a
    :class:`~repro.events.store.ShardedTraceStore`, an ``ODPF`` file or
    any other zip archive (``PK`` magic) as a columnar trace, and
    everything else as the JSON format (an object :class:`Trace`).
    """
    from repro.events.backends import load_trace as _backend_load_trace

    return _backend_load_trace(path)
