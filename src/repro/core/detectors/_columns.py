"""Shared column operations for the vectorised detector fast paths.

Everything here is representation-level plumbing the five detectors have in
common: composite-key factorisation and the columnar alloc/delete pairing
that Algorithms 3 and 4 both start from.  The helpers return *row indices*
into the columnar store; the detectors emit findings as rows too
(:class:`~repro.core.detectors.table.FindingPart`), which is what makes the
fast paths fast.
"""

from __future__ import annotations

import numpy as np

from repro.events.columnar import CODE_ALLOC, CODE_DELETE, ColumnarTrace


def key_ids(*columns: np.ndarray) -> np.ndarray:
    """Factorise composite keys into compact integer ids (equal key ⇔ equal id).

    Column by column, each value set is interned with ``np.unique`` and the
    running ids are combined arithmetically; re-compacting after every
    column keeps the intermediate products below ``n²``, so the arithmetic
    never overflows ``int64``.  Integer factorisation is what makes the
    grouping helpers fast — sorting an ``int64`` key array is several times
    cheaper than sorting the equivalent structured (void) array.
    """
    _, ids = np.unique(columns[0], return_inverse=True)
    for col in columns[1:]:
        _, inv = np.unique(col, return_inverse=True)
        width = int(inv.max()) + 1 if inv.size else 1
        _, ids = np.unique(ids * width + inv, return_inverse=True)
    return ids


def first_index_reaching(sorted_running_max: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """First index whose running maximum reaches each threshold.

    ``searchsorted`` over ``np.maximum.accumulate(values)`` gives, for every
    threshold ``x``, the smallest ``j`` with ``values[j] >= x`` — exactly the
    resting point of the object detectors' "advance while end < start"
    cursor (the cursor never revisits an index its threshold already
    rejected, and thresholds are non-decreasing).
    """
    return np.searchsorted(sorted_running_max, thresholds, side="left")


def alloc_delete_pair_rows(trace: ColumnarTrace) -> tuple[np.ndarray, np.ndarray]:
    """Columnar twin of :func:`repro.events.records.get_alloc_delete_pairs`.

    Returns ``(alloc_rows, delete_rows)``: the row indices of every ALLOC
    event in chronological order and, aligned with them, the row index of
    the matching DELETE (``-1`` when the allocation is never deleted).

    The common case — no device address is re-allocated while still live,
    which :func:`repro.events.validation.validate_trace` enforces — is fully
    vectorised: within each ``(device, address)`` key the events alternate,
    so a DELETE pairs with the immediately preceding event of its key if
    and only if that event is an ALLOC.  Nested allocations (possible only
    in unvalidated traces) fall back to the exact stack-matching loop.
    """
    kind = trace.do_kind
    sel = np.flatnonzero((kind == CODE_ALLOC) | (kind == CODE_DELETE))
    empty = np.empty(0, dtype=np.int64)
    if sel.size == 0:
        return empty, empty

    is_alloc = kind[sel] == CODE_ALLOC
    alloc_rows = sel[is_alloc].astype(np.int64)
    if alloc_rows.size == 0:
        return empty, empty
    partners = np.full(alloc_rows.size, -1, dtype=np.int64)

    dev = trace.do_dest_device_num[sel]
    addr = trace.do_dest_addr[sel]
    gid = key_ids(dev, addr)

    order = np.argsort(gid, kind="stable")
    gid_sorted = gid[order]
    alloc_sorted = is_alloc[order]
    same_group = gid_sorted[1:] == gid_sorted[:-1]

    if not np.any(alloc_sorted[1:] & alloc_sorted[:-1] & same_group):
        # Alternation holds in every group: vectorised pairing.
        alloc_rank = np.full(sel.size, -1, dtype=np.int64)
        alloc_rank[is_alloc] = np.arange(alloc_rows.size)
        rank_sorted = alloc_rank[order]
        pair_at = np.flatnonzero(same_group & alloc_sorted[:-1] & ~alloc_sorted[1:])
        partners[rank_sorted[pair_at]] = sel[order[pair_at + 1]]
        return alloc_rows, partners

    # Nested allocations: exact stack semantics on primitive columns.
    open_allocs: dict[tuple[int, int], list[int]] = {}
    rank_of_row: dict[int, int] = {int(row): i for i, row in enumerate(alloc_rows)}
    dev_list = dev.tolist()
    addr_list = addr.tolist()
    alloc_list = is_alloc.tolist()
    sel_list = sel.tolist()
    for i, row in enumerate(sel_list):
        key = (dev_list[i], addr_list[i])
        if alloc_list[i]:
            open_allocs.setdefault(key, []).append(row)
        else:
            stack = open_allocs.get(key)
            if not stack:
                continue
            partners[rank_of_row[stack.pop()]] = row
    return alloc_rows, partners
