"""Shared plumbing for the incremental (streaming) detector variants.

The ``find_*_streaming`` detectors fold one columnar batch at a time into
small carry state and never hold a whole trace.  The carries they share:

* :class:`GrowArray` / :class:`ColumnBuffer` — append-only NumPy storage
  (amortised doubling / chunk list) for per-device cursors and compact
  column captures.
* :class:`CompositeKeyCounter` — the streaming twin of the columnar
  paths' key grouping (:func:`repro.core.detectors._columns.key_ids`): a
  key table tracking, per distinct composite key, the cumulative member
  count, the smallest global position observed and that row's payload,
  with a sorted packed-key index so each batch's keys are found by binary
  search.  Folding a batch reports which rows belong to keys that
  have reached the group threshold, which is all the
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
:mod:`repro.events.stream`).

Every carry here is additionally *partition-mergeable*: two instances
folded over adjacent gpos ranges combine losslessly into the instance a
single sequential fold would have produced (``CompositeKeyCounter.merge``
unions key tables and reports threshold promotions,
``StreamingAllocPairer.merge`` stitches open allocations to the pending
deletes of the later partition, ``DeviceKernels.merge`` rebases the later
partition's running-max cursor base).  The :class:`StreamingPass` subclasses
build their own ``merge`` on these, which is what lets the execution
engines (:mod:`repro.core.engine`) fold disjoint shard ranges on
independent workers and combine only small carry states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.detectors.table import FindingPart
from repro.events.columnar import CODE_ALLOC, CODE_DELETE, ColumnarTrace


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

    def merge(self, other: "DeviceKernels") -> None:
        """Append ``other``'s kernels (a later contiguous time range).

        ``other`` folded its running maximum from scratch, so its cursor
        base is rebased onto this carry: every ``runmax`` entry is lifted
        to at least this partition's final running maximum, exactly what a
        sequential fold over both ranges would have produced.
        """
        if other.count == 0:
            return
        rebased = np.maximum(other.runmax.view(), self.last)
        self.start.extend(other.start.view())
        self.runmax.extend(rebased)
        self.last = float(rebased[-1])

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

    def absorb(self, other: "ColumnBuffer") -> None:
        """Append every chunk of ``other`` (which must not be reused)."""
        self._chunks.extend(other._chunks)
        self.size += other.size

    def concat(self, dtype=None) -> np.ndarray:
        if not self._chunks:
            return np.empty(0, dtype=dtype if dtype is not None else np.int64)
        return np.concatenate(self._chunks)


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


@dataclass
class KeyMerge:
    """Result of merging two counters (:meth:`CompositeKeyCounter.merge`).

    The merged table keeps this side's uids and gives keys only the other
    side held the next dense ones; the two maps translate each side's old
    uids (indexed by old uid) so member buffers keyed on uids can be
    remapped with one vectorised lookup.  The ``promoted_*`` arrays are the
    *retained singletons that crossed the group threshold because of the
    merge*: a key counted once on a side records no members (its single
    member lives in the table as ``first``/``payload``); when the union
    reaches two members, those retained rows must join the member set,
    exactly like the ``crossed`` recovery inside
    :meth:`CompositeKeyCounter.fold`.
    """

    uid_map_self: np.ndarray
    uid_map_other: np.ndarray
    promoted_gpos: np.ndarray
    promoted_payload: np.ndarray
    promoted_uid: np.ndarray
    #: key columns of the promoted rows (``()`` when nothing promoted)
    promoted_keys: tuple[np.ndarray, ...]


_SIGN_BIT = np.uint64(1 << 63)


def pack_keys(cols: Sequence[np.ndarray]) -> np.ndarray:
    """Order-preserving packed composite keys, one ``V{8 * len(cols)}`` row each.

    Every key column becomes big-endian ``uint64`` bytes, with the sign bit
    flipped on signed columns, so bytewise (``memcmp``) order of the packed
    rows is exactly the lexicographic order of the columns (first column
    most significant) — what a ``np.lexsort`` over them would give.
    """
    packed = np.empty((len(cols[0]), len(cols)), dtype=">u8")
    for j, col in enumerate(cols):
        if col.dtype.kind == "i":
            packed[:, j] = col.astype(np.int64, copy=False).view(np.uint64) ^ _SIGN_BIT
        elif col.dtype.kind in "ub":
            packed[:, j] = col
        else:
            raise TypeError(f"key columns must be integers, got {col.dtype}")
    return packed.view(f"V{8 * len(cols)}").ravel()


class CompositeKeyCounter:
    """Incremental composite-key statistics in NumPy columns.

    A key's uid is its row in the per-key storage: key columns, member
    count, smallest gpos and that row's payload, appended when the key is
    first seen and updated in place after that.  Lookups go through a
    sorted index of packed keys (:func:`pack_keys`) and their uids: one
    ``np.searchsorted`` per batch finds the batch's keys, and new keys are
    spliced in with ``np.insert``.  The index is derived state — it is left
    out of the carry (``__getstate__``) and rebuilt on first use after a
    decode.

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
        #: (sorted packed keys, uid of each) — derived, never carried
        self._index: Optional[tuple[np.ndarray, np.ndarray]] = None

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

    def _sorted_index(self) -> tuple[np.ndarray, np.ndarray]:
        if self._index is None:
            cols = tuple(grow.view() for grow in self._keys)
            order = np.lexsort(cols[::-1])
            self._index = (pack_keys(cols)[order], order.astype(np.int64))
        return self._index

    def _track_payload(self) -> None:
        if self._payload is None:
            self._payload = GrowArray(np.int64)
            self._payload.extend(np.zeros(self.num_keys, dtype=np.int64))

    def _absorb(self, cols, packed, count, first, payload):
        """Fold distinct keys, sorted by ``packed``, into the table.

        ``count``/``first``/``payload`` are the incoming side's statistics
        per key.  Returns each key's uid and the table's count, first and
        payload as they stood before (the incoming values for new keys).
        """
        if self._keys is None:
            self._keys = tuple(GrowArray(col.dtype) for col in cols)
            self._index = (packed[:0], np.empty(0, dtype=np.int64))
        table, table_uid = self._sorted_index()
        pos = np.searchsorted(table, packed)
        found = pos < table.size
        found[found] = table[pos[found]] == packed[found]
        new = ~found

        uid = np.empty(packed.size, dtype=np.int64)
        old = table_uid[pos[found]]
        uid[found] = old
        fresh = np.arange(self.num_keys, self.num_keys + int(new.sum()), dtype=np.int64)
        uid[new] = fresh

        t_count = self._count.view()
        t_first = self._first.view()
        prior_count = np.zeros(packed.size, dtype=np.int64)
        prior_count[found] = t_count[old]
        prior_first = first.copy()
        prior_first[found] = t_first[old]
        prior_payload = payload.copy()
        t_count[old] += count[found]
        # The payload follows whichever side holds the smaller first gpos.
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
        at = pos[new]
        self._index = (np.insert(table, at, packed[new]), np.insert(table_uid, at, fresh))
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
            return KeyFold(empty, empty, empty, empty, empty, empty, empty, empty)
        if payload is None:
            payload = np.zeros(n, dtype=np.int64)
        else:
            self._track_payload()

        # Batch-local uniques: sort by key columns, gpos as tiebreak, so the
        # first row of each run carries the batch-minimal gpos.
        order = np.lexsort((gpos, *reversed(cols)))
        packed = pack_keys(cols)[order]
        boundary = np.ones(n, dtype=bool)
        boundary[1:] = packed[1:] != packed[:-1]
        starts = np.flatnonzero(boundary)
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.cumsum(boundary) - 1

        heads = order[starts]
        u_count = np.diff(np.append(starts, n))
        u_first = gpos[heads].astype(np.int64)
        u_payload = payload[heads].astype(np.int64)
        uid, prior_count, prior_first, prior_payload = self._absorb(
            tuple(col[heads] for col in cols), packed[starts], u_count, u_first, u_payload
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
        )

    def merge(self, other: "CompositeKeyCounter") -> KeyMerge:
        """Union ``other``'s key table into this one (both keep gpos global).

        The two counters must have folded *disjoint* row sets; which side
        folded the earlier range does not matter — counts add, first
        positions take the minimum, and the payload follows the entry with
        the smaller first, so the merged table equals the sequential fold
        of both row sets in any order.  This table's uids are kept; keys
        only ``other`` held get fresh ones.  Returns the uid translation
        maps and the threshold promotions (see :class:`KeyMerge`).
        """
        num_self = self.num_keys
        empty = np.empty(0, dtype=np.int64)
        if self._keys is None or other._keys is None:
            if self._keys is None:
                self.__dict__.update(other.__dict__)
            return KeyMerge(
                uid_map_self=np.arange(num_self, dtype=np.int64),
                uid_map_other=np.arange(other.num_keys, dtype=np.int64),
                promoted_gpos=empty,
                promoted_payload=empty,
                promoted_uid=empty,
                promoted_keys=(),
            )

        o_packed, o_uid = other._sorted_index()
        o_cols = tuple(grow.view()[o_uid] for grow in other._keys)
        o_count = other._count.view()[o_uid]
        o_first = other._first.view()[o_uid]
        if other._payload is not None:
            self._track_payload()
            o_payload = other._payload.view()[o_uid]
        else:
            o_payload = np.zeros(o_uid.size, dtype=np.int64)
        uid, prior_count, prior_first, prior_payload = self._absorb(
            o_cols, o_packed, o_count, o_first, o_payload
        )
        uid_map_other = np.empty(o_uid.size, dtype=np.int64)
        uid_map_other[o_uid] = uid

        # Retained singletons (either side) whose key now has two members.
        total = prior_count + o_count
        mine = (prior_count == 1) & (total >= 2)
        theirs = (o_count == 1) & (total >= 2)
        return KeyMerge(
            uid_map_self=np.arange(num_self, dtype=np.int64),
            uid_map_other=uid_map_other,
            promoted_gpos=np.concatenate([prior_first[mine], o_first[theirs]]),
            promoted_payload=np.concatenate([prior_payload[mine], o_payload[theirs]]),
            promoted_uid=np.concatenate([uid[mine], uid[theirs]]),
            promoted_keys=(
                tuple(np.concatenate([col[mine], col[theirs]]) for col in o_cols)
                if mine.any() or theirs.any()
                else ()
            ),
        )


def merge_uid_buffers(
    km: KeyMerge, mine: ColumnBuffer, theirs: ColumnBuffer
) -> ColumnBuffer:
    """Combine two member-uid buffers through a merge's translation maps.

    Used by the counter-based passes: members recorded on each side
    reference that side's old uids, which the :class:`KeyMerge` maps to the
    merged table's dense uids; the promoted retained singletons join with
    their (already merged) uids.
    """
    out = ColumnBuffer()
    own = mine.concat()
    if own.size:
        out.append(km.uid_map_self[own])
    other = theirs.concat()
    if other.size:
        out.append(km.uid_map_other[other])
    out.append(km.promoted_uid)
    return out


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

    Deletes that match no open allocation are retained as *pending deletes*
    (gpos, key and captured delete columns, in chronological order).  A
    pairer folding from the start of the trace never completes them — the
    sequential oracle drops such deletes — but a pairer folding a later
    partition sees one for every allocation opened before its range, and
    :meth:`merge` stitches them to the earlier partition's open stack.
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
        #: chronological (gpos, key, {col: value}) of unmatched deletes
        self._pending_deletes: list[tuple[int, tuple[int, int], dict]] = []
        self._vectorized = True
        self._dtypes: dict[str, np.dtype] = {}

    @property
    def num_open(self) -> int:
        return sum(len(stack) for stack in self._open.values())

    @property
    def num_pending_deletes(self) -> int:
        return len(self._pending_deletes)

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

        delete_batch_cols = {
            col: batch.do_column(col)[sel] for col in self.delete_cols
        }
        result = PairBatch(
            alloc_gpos=c_gpos[alloc_side],
            delete_gpos=gpos[delete_local],
            alloc={col: alloc_values[col][alloc_side] for col in self.alloc_cols},
            delete={
                col: delete_batch_cols[col][delete_local]
                for col in self.delete_cols
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

        # Deletes that matched nothing stay pending for a possible merge
        # with an earlier partition (flatnonzero ascends in entry index,
        # and batch entries are gpos-ordered, so order stays chronological).
        paired[delete_side] = True
        for entry_index in np.flatnonzero(~c_alloc & ~paired).tolist():
            local = int(c_pos[entry_index])
            key = (int(c_dev[entry_index]), int(c_addr[entry_index]))
            values = {
                col: delete_batch_cols[col][local] for col in self.delete_cols
            }
            self._pending_deletes.append((int(c_gpos[entry_index]), key, values))
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
                    self._pending_deletes.append((
                        gpos_l[i],
                        key,
                        {c: delete_cols[c][i] for c in self.delete_cols},
                    ))
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

    def merge(self, other: "StreamingAllocPairer") -> PairBatch:
        """Stitch ``other`` (folded over a strictly later gpos range) in.

        ``other``'s pending deletes are matched, chronologically, against
        this carry's open stacks (LIFO, exactly the sequential pop order);
        the completed pairs are returned so the caller can count them.
        What remains open or pending in either side carries over —
        ``other``'s opens are pushed *on top* of this side's stacks, since
        they are more recent.  ``other`` must not be reused afterwards.
        """
        self._dtypes.update(other._dtypes)
        out_alloc_gpos: list[int] = []
        out_delete_gpos: list[int] = []
        out_alloc_vals: dict[str, list] = {c: [] for c in self.alloc_cols}
        out_delete_vals: dict[str, list] = {c: [] for c in self.delete_cols}
        still_pending: list[tuple[int, tuple[int, int], dict]] = []
        for d_gpos, key, d_values in other._pending_deletes:
            stack = self._open.get(key)
            if not stack:
                still_pending.append((d_gpos, key, d_values))
                continue
            a_gpos, a_values = stack.pop()
            out_alloc_gpos.append(a_gpos)
            out_delete_gpos.append(d_gpos)
            for c in self.alloc_cols:
                out_alloc_vals[c].append(a_values[c])
            for c in self.delete_cols:
                out_delete_vals[c].append(d_values[c])
        for key, stack in other._open.items():
            if stack:
                self._open.setdefault(key, []).extend(stack)
        self._pending_deletes.extend(still_pending)
        self._vectorized = (
            self._vectorized
            and other._vectorized
            and all(len(stack) <= 1 for stack in self._open.values())
        )
        return PairBatch(
            alloc_gpos=np.array(out_alloc_gpos, dtype=np.int64),
            delete_gpos=np.array(out_delete_gpos, dtype=np.int64),
            alloc={
                c: np.array(out_alloc_vals[c], dtype=self._dtypes.get(c))
                for c in self.alloc_cols
            },
            delete={
                c: np.array(out_delete_vals[c], dtype=self._dtypes.get(c))
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


class StreamingPass:
    """One detector's incremental half: fold batches, merge, finalize.

    ``fold`` consumes one columnar batch (with the global data-op row
    offset of its first row) and updates the carry; ``finalize`` closes the
    carry and returns the findings as a
    :class:`~repro.core.detectors.table.FindingPart` over gpos — it never
    reads the stream again (the engines gather the rows of every pass in
    one scan).  A pass instance is single-use.

    Passes are *partition-mergeable*: ``a.merge(b)``, where ``a`` folded an
    earlier contiguous batch range and ``b`` the immediately following one,
    leaves ``a`` holding the carry a single sequential fold over both
    ranges would have produced (``b`` must not be reused).  The execution
    engines fold disjoint shard ranges on independent workers and merge
    the carries left to right.

    ``eager`` controls whether a pass may *classify* events against carry
    state that is only correct from the start of the stream (the
    kernel-cursor verdicts of the two unused-pattern passes).  The default
    ``True`` is right for a sequential fold over the whole stream; a pass
    folding a partition that does not start at the stream head MUST run
    with ``eager=False`` — it defers classification by buffering, and the
    deferred work happens when the carry is merged into an earlier one (or
    at finalize).  Order-insensitive passes ignore the flag.
    """

    #: classify eagerly during folds (only valid from the stream head)
    eager: bool = True

    def fold(self, batch: ColumnarTrace, offset: int) -> None:
        raise NotImplementedError

    def merge(self, other: "StreamingPass") -> None:
        raise NotImplementedError

    def finalize(self) -> FindingPart:
        raise NotImplementedError


def fold_batches(passes: Sequence[StreamingPass], batches: Iterable[ColumnarTrace]) -> None:
    """Fold every pass over ONE scan: each batch is handed to all passes."""
    offset = 0
    for batch in batches:
        for pass_ in passes:
            pass_.fold(batch, offset)
        offset += batch.num_data_op_events


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
