"""Shared plumbing for the incremental (streaming) detector variants.

The ``find_*_streaming`` detectors fold one columnar batch at a time into
small carry state and never hold a whole trace.  The carries they share:

* :class:`GrowArray` / :class:`ColumnBuffer` — append-only NumPy storage
  (amortised doubling / chunk list) for per-device cursors and compact
  column captures.
* :class:`CompositeKeyCounter` — the streaming form of the oracles'
  ``dict`` from composite key to group: a
  key table tracking, per distinct composite key, the cumulative member
  count, the smallest global position observed and that row's payload.
  Each key is looked up by one ``uint64``, a mix of its key columns
  (:func:`mix_keys`), in an index sorted by that mix, and confirmed on
  the columns: a batch's keys are found by one binary search, and keys
  that share a mix stay apart.  Folding a batch reports which rows belong
  to keys that have reached the group threshold, which is all the
  duplicate/repeated-allocation detectors need to collect group members
  as positions (events are only read for findings, in one shared gather
  at the end).
* :class:`StreamingAllocPairer` — the streaming twin of
  :func:`repro.events.records.get_alloc_delete_pairs`: carries the open
  allocations across batch boundaries and emits completed
  (alloc, delete) position pairs as the deletes arrive.  The common case
  (no live device address re-allocated, which ``validate_trace`` enforces)
  is fully vectorised; nested allocations fall back to the exact
  stack-matching loop, permanently for the rest of the stream.

Positions are "gpos": the row index an event would have in the
concatenation of every batch's data-op columns (see
:mod:`repro.events.stream`).  No carry depends on where batch boundaries
fall, which is what lets :func:`fold_batches` fold consecutive small
shards as one coalesced batch.

Every pass folds the whole stream from its head, on whichever engine runs
it: the parallel engines (:mod:`repro.core.engine`) split the *passes*
across workers, never the stream, so no carry is ever merged.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.detectors.table import FindingPart
from repro.events.columnar import CODE_ALLOC, CODE_DELETE, ColumnarTrace

# Defined beside the stream protocol so trace validation (an events-layer
# pass) can implement it too; the detector passes import it from here.
from repro.events.protocol import StreamingPass


class GrowArray:
    """A 1-D append-only NumPy array with amortised-doubling growth."""

    def __init__(self, dtype) -> None:
        self._dtype = np.dtype(dtype)
        self._arr = np.empty(16, dtype=self._dtype)
        self.size = 0

    def extend(self, values: np.ndarray) -> None:
        n = len(values)
        if n == 0:
            return
        needed = self.size + n
        if needed > self._arr.size:
            capacity = self._arr.size
            while capacity < needed:
                capacity *= 2
            fresh = np.empty(capacity, dtype=self._dtype)
            fresh[: self.size] = self._arr[: self.size]
            self._arr = fresh
        self._arr[self.size : needed] = values
        self.size = needed

    def view(self) -> np.ndarray:
        return self._arr[: self.size]

    def __getstate__(self) -> np.ndarray:
        # Pickle the filled prefix only: the spare capacity is noise.
        return self.view()

    def __setstate__(self, arr: np.ndarray) -> None:
        self._dtype = arr.dtype
        self.size = arr.size
        # extend()'s doubling loop never grows a zero capacity.
        self._arr = arr if arr.size else np.empty(1, dtype=arr.dtype)


class DeviceKernels:
    """Per-device kernel cursor base: start times and running-max end times.

    Shared by the unused-allocation and unused-transfer passes: both decide
    "first kernel whose running-max end reaches t" with a ``searchsorted``
    over ``runmax`` and then compare against ``start``.
    """

    def __init__(self) -> None:
        self.start = GrowArray(np.float64)
        self.runmax = GrowArray(np.float64)
        self.last = -np.inf

    def extend(self, starts: np.ndarray, ends: np.ndarray) -> None:
        if len(starts) == 0:
            return
        run = np.maximum.accumulate(ends)
        np.maximum(run, self.last, out=run)
        self.last = float(run[-1])
        self.start.extend(starts)
        self.runmax.extend(run)

    @property
    def count(self) -> int:
        return self.start.size


class ColumnBuffer:
    """Append-only column storage as a chunk list (concatenated on demand)."""

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []
        self.size = 0

    def append(self, values: np.ndarray) -> None:
        if len(values):
            self._chunks.append(values)
            self.size += len(values)

    def concat(self, dtype=None) -> np.ndarray:
        if not self._chunks:
            return np.empty(0, dtype=dtype if dtype is not None else np.int64)
        return np.concatenate(self._chunks)

    def drain(self, dtype=None) -> np.ndarray:
        """:meth:`concat`, then drop the chunks: a consuming read, so the
        chunk list and its concatenation are not both kept alive."""
        out = self.concat(dtype)
        self._chunks = []
        self.size = 0
        return out


# --------------------------------------------------------------------- #
# Composite-key counting
# --------------------------------------------------------------------- #
@dataclass
class KeyFold:
    """Result of folding one batch of keyed rows (arrays per *shard* key)."""

    #: row index -> index into the per-batch unique-key arrays below
    inverse: np.ndarray
    #: members of each key seen before this batch
    prior_count: np.ndarray
    #: members of each key including this batch
    total_count: np.ndarray
    #: smallest gpos ever observed for the key (after this batch)
    first_gpos: np.ndarray
    #: payload of the row at ``first_gpos``
    first_payload: np.ndarray
    #: stable identifier assigned when the key was first seen (never changes
    #: across folds, unlike ``first_gpos`` when rows arrive out of gpos
    #: order — group membership must key on this)
    key_uid: np.ndarray
    #: ``first_gpos`` as it stood BEFORE this batch (the retained member a
    #: caller must recover when ``prior_count == 1``; meaningless where
    #: ``prior_count == 0``)
    prior_first_gpos: np.ndarray
    #: payload of the row at ``prior_first_gpos``
    prior_payload: np.ndarray
    #: the key columns of each batch key
    keys: tuple[np.ndarray, ...]


#: Multiplier of :func:`mix_keys`: the 64-bit golden ratio, odd, so
#: multiplying by it is a bijection modulo 2**64.
_MIX_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_MIX_SHIFT = np.uint64(32)


def mix_keys(cols: Sequence[np.ndarray]) -> np.ndarray:
    """One ``uint64`` per composite key: a 64-bit mix of its key columns.

    Each integer column is folded in as ``h = f(h ^ col)``, where ``f``
    (a multiply by an odd constant, then a 32-bit xor-shift) is a bijection
    of 64-bit words.  Equal keys always share a mix, and so do a few
    distinct ones; keys that differ in exactly one column never do.
    """
    mix = np.zeros(len(cols[0]), dtype=np.uint64)
    for col in cols:
        if col.dtype.kind not in "iub":
            raise TypeError(f"key columns must be integers, got {col.dtype}")
        mix ^= col.astype(np.uint64, copy=False)
        mix *= _MIX_MULTIPLIER
        mix ^= mix >> _MIX_SHIFT
    return mix


def _records(index: np.ndarray) -> np.ndarray:
    """The rows of a ``(keys, 2)`` index as one 16-byte value each."""
    return index.view("V16").reshape(-1)


class CompositeKeyCounter:
    """Incremental composite-key statistics in NumPy columns.

    A key's uid is its row in the per-key storage: key columns, member
    count, smallest gpos and that row's payload, appended when the key is
    first seen and updated in place after that.  Every key comparison is
    on one integer: the key's :func:`mix_keys` value.  A batch's rows are
    grouped by an ``argsort`` of their mix, and its distinct keys are found
    with one ``np.searchsorted`` over the index, ``(mix, uid)`` records
    sorted by mix.  Each hit is confirmed on the key columns, and distinct
    keys that share a mix are told apart there, in the batch and in the
    index alike, so a shared mix never merges two keys.  New keys get the
    next uids and are merged into the index as records.  The index is
    derived state — it is left out of the carry (``__getstate__``) and
    rebuilt on first use after a decode.

    Carry is O(distinct keys) at a few dozen bytes each — the same
    asymptotics as the object detectors' hash maps, but with no per-key
    Python objects.  The payload column (one int64 per key, e.g. a partner
    position) is only carried when a caller ever supplies one.
    """

    def __init__(self) -> None:
        self._keys: Optional[tuple[GrowArray, ...]] = None
        self._count = GrowArray(np.int64)
        self._first = GrowArray(np.int64)
        self._payload: Optional[GrowArray] = None
        #: ``(mix, uid)`` records sorted by mix, shape (keys, 2) — derived,
        #: never carried
        self._index: Optional[np.ndarray] = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_index"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._index = None

    @property
    def num_keys(self) -> int:
        return self._count.size

    def _sorted_index(self) -> np.ndarray:
        if self._index is None:
            mix = mix_keys(tuple(grow.view() for grow in self._keys))
            order = np.argsort(mix)
            self._index = np.column_stack((mix[order], order.astype(np.uint64)))
        return self._index

    def _track_payload(self) -> None:
        if self._payload is None:
            self._payload = GrowArray(np.int64)
            self._payload.extend(np.zeros(self.num_keys, dtype=np.int64))

    def _lookup(self, cols, mix, pos) -> np.ndarray:
        """uid of each distinct key in the index, -1 where it has none.

        ``pos`` is where each key's mix would start in the index.  A record
        of the same mix whose key columns differ moves the key on to the
        next record, until that mix runs out.
        """
        index = self._index
        table = tuple(grow.view() for grow in self._keys)
        uid = np.full(mix.size, -1, dtype=np.int64)
        probe = pos.copy()
        pending = np.arange(mix.size)
        while True:
            pending = pending[probe[pending] < len(index)]
            pending = pending[index[probe[pending], 0] == mix[pending]]
            if not pending.size:
                return uid
            held = index[probe[pending], 1].astype(np.int64)
            same = np.ones(pending.size, dtype=bool)
            for stored, col in zip(table, cols):
                same &= stored[held] == col[pending]
            uid[pending[same]] = held[same]
            pending = pending[~same]
            probe[pending] += 1

    def _absorb(self, cols, mix, count, first, payload):
        """Fold distinct keys, sorted by ``mix``, into the table.

        ``count``/``first``/``payload`` are the batch's statistics per
        key.  Returns each key's uid and the table's count, first and
        payload as they stood before (the batch's values for new keys).
        """
        if self._keys is None:
            self._keys = tuple(GrowArray(col.dtype) for col in cols)
        if not self.num_keys:
            # Every key is new, and the sorted batch keys are the index.
            uid = np.arange(mix.size, dtype=np.int64)
            for grow, col in zip(self._keys, cols):
                grow.extend(col)
            self._count.extend(count)
            self._first.extend(first)
            if self._payload is not None:
                self._payload.extend(payload)
            self._index = np.column_stack((mix, uid.astype(np.uint64)))
            return uid, np.zeros(mix.size, dtype=np.int64), first, payload
        index = self._sorted_index()
        pos = np.searchsorted(index[:, 0], mix)
        uid = self._lookup(cols, mix, pos)
        found = uid >= 0
        new = ~found

        old = uid[found]
        fresh = np.arange(self.num_keys, self.num_keys + int(new.sum()), dtype=np.int64)
        uid[new] = fresh

        t_count = self._count.view()
        t_first = self._first.view()
        prior_count = np.zeros(mix.size, dtype=np.int64)
        prior_count[found] = t_count[old]
        prior_first = first.copy()
        prior_first[found] = t_first[old]
        prior_payload = payload.copy()
        t_count[old] += count[found]
        # The payload follows the smaller first gpos (rows may arrive out
        # of gpos order, e.g. allocation pairs completing in delete order).
        take = first[found] < prior_first[found]
        t_first[old[take]] = first[found][take]
        if self._payload is not None:
            t_payload = self._payload.view()
            prior_payload[found] = t_payload[old]
            t_payload[old[take]] = payload[found][take]
            self._payload.extend(payload[new])

        for grow, col in zip(self._keys, cols):
            grow.extend(col[new])
        self._count.extend(count[new])
        self._first.extend(first[new])
        if fresh.size:
            # One merge moves each old record as a single 16-byte value.
            added = np.column_stack((mix[new], fresh.astype(np.uint64)))
            self._index = (
                np.insert(_records(index), pos[new], _records(added))
                .view(np.uint64)
                .reshape(-1, 2)
            )
        return uid, prior_count, prior_first, prior_payload

    def fold(
        self,
        cols: Sequence[np.ndarray],
        gpos: np.ndarray,
        payload: Optional[np.ndarray] = None,
    ) -> KeyFold:
        """Fold one batch of rows; ``cols`` are the composite key columns."""
        n = len(gpos)
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return KeyFold(empty, empty, empty, empty, empty, empty, empty, empty, ())
        if payload is not None:
            self._track_payload()

        # Batch-local uniques: rows grouped by mix, one run per key.
        mix = mix_keys(cols)
        order = np.argsort(mix)
        sorted_mix = mix[order]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_mix[1:], sorted_mix[:-1], out=boundary[1:])
        tie = np.flatnonzero(~boundary[1:])
        if any((col[order[tie]] != col[order[tie + 1]]).any() for col in cols):
            # Distinct keys share a mix: order by the key columns after the
            # mix, so each key's rows are one run.
            order = np.lexsort((*reversed(cols), mix))
            sorted_mix = mix[order]
            np.not_equal(sorted_mix[1:], sorted_mix[:-1], out=boundary[1:])
            for col in cols:
                sorted_col = col[order]
                boundary[1:] |= sorted_col[1:] != sorted_col[:-1]
        starts = np.flatnonzero(boundary)
        run = np.cumsum(boundary) - 1
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = run

        sorted_gpos = gpos[order].astype(np.int64, copy=False)
        u_first = np.minimum.reduceat(sorted_gpos, starts)
        if payload is None:
            u_payload = np.zeros(starts.size, dtype=np.int64)
        else:
            # The payload of the key's first row: the earliest batch row
            # at the key's smallest gpos.
            at_first = np.where(sorted_gpos == u_first[run], order, n)
            u_payload = payload[np.minimum.reduceat(at_first, starts)].astype(np.int64)
        heads = order[starts]
        keys = tuple(col[heads] for col in cols)
        u_count = np.diff(np.append(starts, n))
        uid, prior_count, prior_first, prior_payload = self._absorb(
            keys, sorted_mix[starts], u_count, u_first, u_payload
        )
        return KeyFold(
            inverse,
            prior_count,
            prior_count + u_count,
            self._first.view()[uid],
            self._payload.view()[uid] if self._payload is not None else u_payload,
            uid,
            prior_first,
            prior_payload,
            keys,
        )

# --------------------------------------------------------------------- #
# Streaming alloc/delete pairing
# --------------------------------------------------------------------- #
@dataclass
class PairBatch:
    """Completed (or, at finalize, still-open) allocation pairs."""

    alloc_gpos: np.ndarray
    #: aligned delete positions; -1 when the allocation was never deleted
    delete_gpos: np.ndarray
    #: captured alloc-side columns, keyed by column name
    alloc: dict[str, np.ndarray] = field(default_factory=dict)
    #: captured delete-side columns (empty arrays where delete_gpos == -1)
    delete: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.alloc_gpos.size


class StreamingAllocPairer:
    """Pairs ALLOC/DELETE events across batches with O(open allocs) carry.

    A delete that matches no open allocation is dropped, as the sequential
    oracle drops it.
    """

    def __init__(
        self,
        alloc_cols: Sequence[str] = (),
        delete_cols: Sequence[str] = (),
    ) -> None:
        self.alloc_cols = tuple(alloc_cols)
        self.delete_cols = tuple(delete_cols)
        #: (device, address) -> stack of (gpos, {col: value}) for open allocs
        self._open: dict[tuple[int, int], list[tuple[int, dict]]] = {}
        self._vectorized = True
        self._dtypes: dict[str, np.dtype] = {}

    def _empty_batch(self) -> PairBatch:
        return PairBatch(
            alloc_gpos=np.empty(0, dtype=np.int64),
            delete_gpos=np.empty(0, dtype=np.int64),
            alloc={c: np.empty(0, dtype=self._dtypes.get(c)) for c in self.alloc_cols},
            delete={c: np.empty(0, dtype=self._dtypes.get(c)) for c in self.delete_cols},
        )

    def fold(self, batch: ColumnarTrace, offset: int) -> PairBatch:
        """Feed one batch; returns the pairs whose DELETE landed in it."""
        kind = batch.do_kind
        sel = np.flatnonzero((kind == CODE_ALLOC) | (kind == CODE_DELETE))
        for col in self.alloc_cols + self.delete_cols:
            self._dtypes.setdefault(col, batch.do_column(col).dtype)
        if sel.size == 0:
            return self._empty_batch()

        is_alloc = kind[sel] == CODE_ALLOC
        dev = batch.do_dest_device_num[sel]
        addr = batch.do_dest_addr[sel]
        gpos = offset + sel

        if self._vectorized:
            result = self._fold_vectorized(batch, sel, is_alloc, dev, addr, gpos)
            if result is not None:
                return result
            self._vectorized = False  # nesting detected: exact stacks from now on
        return self._fold_stacks(batch, sel, is_alloc, dev, addr, gpos)

    # -- vectorised path (alternation holds per (device, address) key) --- #
    def _fold_vectorized(self, batch, sel, is_alloc, dev, addr, gpos):
        if any(len(stack) > 1 for stack in self._open.values()):
            return None
        carry_items = [
            (key, stack[0]) for key, stack in self._open.items() if stack
        ]
        k = len(carry_items)
        n = sel.size
        c_dev = np.concatenate([
            np.array([key[0] for key, _ in carry_items], dtype=dev.dtype),
            dev,
        ])
        c_addr = np.concatenate([
            np.array([key[1] for key, _ in carry_items], dtype=addr.dtype),
            addr,
        ])
        c_alloc = np.concatenate([np.ones(k, dtype=bool), is_alloc])
        c_pos = np.concatenate([
            np.arange(-k, 0, dtype=np.int64),
            np.arange(n, dtype=np.int64),
        ])
        c_gpos = np.concatenate([
            np.array([entry[0] for _, entry in carry_items], dtype=np.int64),
            gpos,
        ])

        order = np.lexsort((c_pos, c_addr, c_dev))
        dev_s, addr_s = c_dev[order], c_addr[order]
        alloc_s = c_alloc[order]
        same_key = np.empty(order.size, dtype=bool)
        same_key[0] = False
        same_key[1:] = (dev_s[1:] == dev_s[:-1]) & (addr_s[1:] == addr_s[:-1])
        if np.any(same_key[1:] & alloc_s[1:] & alloc_s[:-1]):
            return None  # nested allocation: exact stack semantics needed

        pair_at = np.flatnonzero(same_key[1:] & alloc_s[:-1] & ~alloc_s[1:])
        alloc_side = order[pair_at]
        delete_side = order[pair_at + 1]

        # Capture the alloc-side columns, mixing carried values and batch rows.
        alloc_values: dict[str, np.ndarray] = {}
        for col in self.alloc_cols:
            batch_col = batch.do_column(col)[sel]
            carried = np.array(
                [entry[1][col] for _, entry in carry_items], dtype=batch_col.dtype
            )
            alloc_values[col] = np.concatenate([carried, batch_col])
        delete_local = c_pos[delete_side]  # always >= 0: deletes are batch rows
        result = PairBatch(
            alloc_gpos=c_gpos[alloc_side],
            delete_gpos=gpos[delete_local],
            alloc={col: alloc_values[col][alloc_side] for col in self.alloc_cols},
            delete={
                col: batch.do_column(col)[sel][delete_local] for col in self.delete_cols
            },
        )

        # Rebuild the open-alloc carry: every alloc entry not paired above.
        paired = np.zeros(order.size, dtype=bool)
        paired[alloc_side] = True
        open_entries = np.flatnonzero(c_alloc & ~paired)
        self._open = {}
        for entry_index in open_entries.tolist():
            key = (int(c_dev[entry_index]), int(c_addr[entry_index]))
            values = {
                col: alloc_values[col][entry_index] for col in self.alloc_cols
            }
            self._open[key] = [(int(c_gpos[entry_index]), values)]

        return result

    # -- exact stack semantics (nested allocations) ---------------------- #
    def _fold_stacks(self, batch, sel, is_alloc, dev, addr, gpos):
        alloc_cols = {c: batch.do_column(c)[sel] for c in self.alloc_cols}
        delete_cols = {c: batch.do_column(c)[sel] for c in self.delete_cols}
        out_alloc_gpos: list[int] = []
        out_delete_gpos: list[int] = []
        out_alloc_vals: dict[str, list] = {c: [] for c in self.alloc_cols}
        out_delete_vals: dict[str, list] = {c: [] for c in self.delete_cols}
        dev_l, addr_l = dev.tolist(), addr.tolist()
        alloc_l, gpos_l = is_alloc.tolist(), gpos.tolist()
        for i in range(sel.size):
            key = (dev_l[i], addr_l[i])
            if alloc_l[i]:
                values = {c: alloc_cols[c][i] for c in self.alloc_cols}
                self._open.setdefault(key, []).append((gpos_l[i], values))
            else:
                stack = self._open.get(key)
                if not stack:
                    continue
                a_gpos, values = stack.pop()
                out_alloc_gpos.append(a_gpos)
                out_delete_gpos.append(gpos_l[i])
                for c in self.alloc_cols:
                    out_alloc_vals[c].append(values[c])
                for c in self.delete_cols:
                    out_delete_vals[c].append(delete_cols[c][i])
        return PairBatch(
            alloc_gpos=np.array(out_alloc_gpos, dtype=np.int64),
            delete_gpos=np.array(out_delete_gpos, dtype=np.int64),
            alloc={
                c: np.array(out_alloc_vals[c], dtype=self._dtypes[c])
                for c in self.alloc_cols
            },
            delete={
                c: np.array(out_delete_vals[c], dtype=self._dtypes[c])
                for c in self.delete_cols
            },
        )

    def finalize(self) -> PairBatch:
        """The allocations still open at end of stream (delete_gpos == -1)."""
        entries: list[tuple[int, dict]] = []
        for stack in self._open.values():
            entries.extend(stack)
        entries.sort(key=lambda e: e[0])
        out = PairBatch(
            alloc_gpos=np.array([e[0] for e in entries], dtype=np.int64),
            delete_gpos=np.full(len(entries), -1, dtype=np.int64),
            alloc={
                c: np.array([e[1][c] for e in entries], dtype=self._dtypes.get(c))
                for c in self.alloc_cols
            },
            delete={
                c: np.empty(0, dtype=self._dtypes.get(c)) for c in self.delete_cols
            },
        )
        return out


#: The detector passes fold consecutive small batches as one batch of at
#: least this many events (data-op plus target rows): a fold pays a fixed
#: cost per batch (a sort, a key-index merge, a few dozen NumPy calls), so
#: collector-sized shards are folded in groups.
FOLD_BATCH_EVENTS = 1 << 16


@contextmanager
def fold_batch_target(events: int) -> Iterator[None]:
    """Run the enclosed scans with :data:`FOLD_BATCH_EVENTS` set to
    ``events`` (``1`` folds every batch on its own).

    The setting is process-wide and seen by threads and by worker
    processes forked inside the block; spawned interpreters keep the
    default.  The tests and the fuzz sweep use it to keep multi-batch
    folds covered on traces smaller than the default target.
    """
    global FOLD_BATCH_EVENTS
    saved, FOLD_BATCH_EVENTS = FOLD_BATCH_EVENTS, events
    try:
        yield
    finally:
        FOLD_BATCH_EVENTS = saved


def fold_batches(passes: Sequence[StreamingPass], batches: Iterable[ColumnarTrace]) -> None:
    """Fold every pass over ONE scan of ``batches``, from the stream head.

    Consecutive batches are held until they reach
    :data:`FOLD_BATCH_EVENTS` events and folded as one *coalesced* group:
    one lazy :meth:`ColumnarTrace.concat` at the gpos of the group's first
    batch, shared by every pass, so no column is concatenated twice.  A
    batch that reaches the target alone is folded as is, after the group
    before it, so the scan holds O(max(batch, FOLD_BATCH_EVENTS)) events.
    The guard passes fold each group first, through
    :meth:`~repro.events.protocol.StreamingPass.fold_group`, which also
    gets the group's batches (trace validation names problems by shard).
    Once a guard has failed, the other passes fold nothing more, the
    failing group included (their preconditions no longer hold), while the
    guards fold on to the end of the stream, so their report is complete.
    """
    guards = [pass_ for pass_ in passes if pass_.guard]
    others = [pass_ for pass_ in passes if not pass_.guard]
    target = FOLD_BATCH_EVENTS
    group: list[ColumnarTrace] = []
    offset = group_offset = group_events = 0

    def fold_group() -> None:
        nonlocal others
        if not group:
            return
        batch = group[0] if len(group) == 1 else ColumnarTrace.concat(group)
        for guard in guards:
            guard.fold_group(group, batch, group_offset)
        if others and any(guard.failed for guard in guards):
            others = []
        for pass_ in others:
            pass_.fold(batch, group_offset)

    for batch in batches:
        events = len(batch)
        if events >= target:
            fold_group()
            group = []
        if not group:
            group_offset, group_events = offset, 0
        group.append(batch)
        group_events += events
        if group_events >= target:
            fold_group()
            group = []
        offset += batch.num_data_op_events
    fold_group()


def check_guards(passes: Sequence[StreamingPass]) -> list[StreamingPass]:
    """Finalize the guard passes — raising if a check failed — and return
    the other passes, whose results are safe to use from then on."""
    for pass_ in passes:
        if pass_.guard:
            pass_.finalize()
    return [pass_ for pass_ in passes if not pass_.guard]


def run_streaming_pass(pass_: StreamingPass, stream) -> FindingPart:
    """Drive one pass over a stream: the ``find_*_streaming`` core."""
    fold_batches((pass_,), stream.batches())
    return pass_.finalize()


def first_missing_hash_seq(batch: ColumnarTrace, idx: np.ndarray) -> Optional[int]:
    """Sequence number of the first selected transfer without a hash, if any."""
    missing = ~batch.do_has_content_hash[idx]
    if missing.any():
        return int(batch.do_seq[idx[np.flatnonzero(missing)[0]]])
    return None
