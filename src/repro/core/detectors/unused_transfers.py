"""Algorithm 5: identify unused data transfers.

A transfer to a device is provably unused when either (a) it occurs after
the last kernel execution on that device, or (b) its payload is overwritten
by a later transfer from the same host address before any kernel on that
device could have read it.  The algorithm keeps, per device, a *candidates*
map from host source address to the most recent transfer that wrote there;
the map is cleared whenever a kernel execution is passed (the kernel may
have consumed the candidates) or when a transfer overlaps a running kernel.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.detectors._streaming import (
    ColumnBuffer,
    DeviceKernels,
    StreamingPass,
    run_streaming_pass,
)
from repro.core.detectors.findings import UnusedTransfer
from repro.core.detectors.table import FindingPart, part_objects
from repro.events.protocol import EventStream
from repro.events.records import DataOpEvent, TargetEvent
from repro.events.stream import materialize_data_op_events

CATEGORY = "unused_transfers"


def find_unused_transfers(
    target_events: Sequence[TargetEvent],
    data_op_events: Sequence[DataOpEvent],
    num_devices: int,
) -> list[UnusedTransfer]:
    """Find unused data transfers (Algorithm 5).

    Only transfers *to target devices* are considered: the pattern describes
    data staged on a device that no kernel ever had a chance to read.
    """
    if num_devices < 1:
        raise ValueError("num_devices must be at least 1")

    device_kernels: list[list[TargetEvent]] = [[] for _ in range(num_devices)]
    for ev in target_events:
        if ev.executes_kernel and 0 <= ev.device_num < num_devices:
            device_kernels[ev.device_num].append(ev)

    device_transfers: list[list[DataOpEvent]] = [[] for _ in range(num_devices)]
    for ev in data_op_events:
        if ev.is_transfer and 0 <= ev.dest_device_num < num_devices:
            device_transfers[ev.dest_device_num].append(ev)

    unused: list[UnusedTransfer] = []
    for dev_idx in range(num_devices):
        kernels = device_kernels[dev_idx]
        transfers = device_transfers[dev_idx]
        tgt_idx = 0
        candidates: dict[int, DataOpEvent] = {}

        for tx in transfers:
            # Advance past kernels that ended before this transfer started;
            # each passed kernel may have consumed the staged candidates.
            while tgt_idx < len(kernels) and kernels[tgt_idx].end_time < tx.start_time:
                tgt_idx += 1
                candidates.clear()

            if tgt_idx == len(kernels):
                # No kernel will ever run on this device again.
                unused.append(UnusedTransfer(event=tx, reason="after_last_kernel"))
            elif kernels[tgt_idx].start_time > tx.start_time:
                # The transfer does not overlap a running kernel: it is a
                # candidate for being overwritten before use.
                previous = candidates.get(tx.src_addr)
                if previous is not None:
                    unused.append(UnusedTransfer(event=previous, reason="overwritten"))
                candidates[tx.src_addr] = tx
            else:
                # The transfer overlaps an active kernel; anything staged so
                # far may have been read concurrently, so drop all candidates.
                candidates.clear()
    return unused


class _DeviceTransferState:
    """Per-device carry of the streaming unused-transfer detector.

    * kernel start times + running-max end times (the cursor base),
    * the *pending* transfers — those no kernel so far has reached, whose
      cursor (and hence classification) still depends on the future,
    * the open epoch: last cursor value and overlap flag of the most recent
      classified transfer, plus the surviving candidate per source address
      (the "last write per buffer" the overwrite rule needs),
    * the findings so far, as (report position, event position, reason).
    """

    def __init__(self) -> None:
        self.kernels = DeviceKernels()
        self.pend_start = np.empty(0, dtype=np.float64)
        self.pend_addr = np.empty(0, dtype=np.uint64)
        self.pend_gpos = np.empty(0, dtype=np.int64)
        self.prev_cursor = -1
        self.prev_overlap = False
        self.started = False
        self.cand_addr = np.empty(0, dtype=np.uint64)
        self.cand_gpos = np.empty(0, dtype=np.int64)
        self.report = ColumnBuffer()
        self.event = ColumnBuffer()
        self.overwritten = ColumnBuffer()

    def add_kernels(self, starts: np.ndarray, ends: np.ndarray) -> None:
        self.kernels.extend(starts, ends)

    def add_transfers(
        self, starts: np.ndarray, addrs: np.ndarray, gpos: np.ndarray
    ) -> None:
        self.pend_start = np.concatenate([self.pend_start, starts])
        self.pend_addr = np.concatenate([self.pend_addr, addrs])
        self.pend_gpos = np.concatenate([self.pend_gpos, gpos])

    def classify(self) -> None:
        """Classify every pending transfer some kernel has reached by now."""
        if self.pend_start.size == 0 or self.kernels.count == 0:
            return
        kcount = self.kernels.count
        cursor = np.searchsorted(self.kernels.runmax.view(), self.pend_start, side="left")
        # Start times (hence cursors) are non-decreasing: the classifiable
        # transfers are a prefix, the rest stay pending.
        m = int(np.searchsorted(cursor, kcount, side="left"))
        if m == 0:
            return
        starts, addrs, gpos = (
            self.pend_start[:m],
            self.pend_addr[:m],
            self.pend_gpos[:m],
        )
        self.pend_start = self.pend_start[m:]
        self.pend_addr = self.pend_addr[m:]
        self.pend_gpos = self.pend_gpos[m:]
        cursor = cursor[:m]

        candidate = self.kernels.start.view()[cursor] > starts
        overlap = ~candidate

        boundary = np.empty(m, dtype=bool)
        if self.started:
            boundary[0] = (cursor[0] != self.prev_cursor) or self.prev_overlap
        else:
            boundary[0] = True
        boundary[1:] = (cursor[1:] != cursor[:-1]) | overlap[:-1]
        epoch = np.cumsum(boundary)  # carried open epoch is epoch 0

        if boundary[0]:
            # The open epoch closed without another member: its surviving
            # candidates are cleared unreported, exactly like the oracle's
            # ``candidates.clear()``.
            self.cand_addr = np.empty(0, dtype=np.uint64)
            self.cand_gpos = np.empty(0, dtype=np.int64)

        sel = np.flatnonzero(candidate)
        all_epoch = np.concatenate([
            np.zeros(self.cand_addr.size, dtype=np.int64), epoch[sel],
        ])
        all_addr = np.concatenate([self.cand_addr, addrs[sel]])
        all_gpos = np.concatenate([self.cand_gpos, gpos[sel]])

        if all_addr.size:
            order = np.lexsort((all_gpos, all_addr, all_epoch))
            ep_s, ad_s, gp_s = all_epoch[order], all_addr[order], all_gpos[order]
            same = (ep_s[1:] == ep_s[:-1]) & (ad_s[1:] == ad_s[:-1])
            if same.any():
                self.event.append(gp_s[:-1][same])
                self.report.append(gp_s[1:][same])
                self.overwritten.append(np.ones(int(same.sum()), dtype=bool))

            # Surviving candidates of the (possibly still open) final epoch:
            # the last member per address, unless an overlap just cleared it.
            if overlap[m - 1]:
                self.cand_addr = np.empty(0, dtype=np.uint64)
                self.cand_gpos = np.empty(0, dtype=np.int64)
            else:
                final_epoch = int(epoch[m - 1])
                in_final = ep_s == final_epoch
                last = np.ones(int(in_final.sum()), dtype=bool)
                ad_f, gp_f = ad_s[in_final], gp_s[in_final]
                last[:-1] = ad_f[1:] != ad_f[:-1]
                self.cand_addr = ad_f[last]
                self.cand_gpos = gp_f[last]
        self.prev_cursor = int(cursor[m - 1])
        self.prev_overlap = bool(overlap[m - 1])
        self.started = True

    def finish(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """After the last batch: classify whatever some kernel reaches,
        then the remaining pending transfers outlive every kernel
        (after-last findings), then all findings sorted by report
        position."""
        self.classify()
        if self.pend_gpos.size:
            self.report.append(self.pend_gpos)
            self.event.append(self.pend_gpos)
            self.overwritten.append(np.zeros(self.pend_gpos.size, dtype=bool))
        report = self.report.drain()
        event = self.event.drain()
        overwritten = self.overwritten.drain(dtype=bool)
        order = np.argsort(report, kind="stable")
        return report[order], event[order], overwritten[order]


class UnusedTransferPass(StreamingPass):
    """Incremental Algorithm 5: fold kernels and transfers per device.

    The oracle's sequential candidate map decomposes into array passes.
    The kernel cursor of each transfer is a ``searchsorted`` over the
    running maximum of kernel end times; the candidate map is cleared
    exactly when the cursor advances or a transfer overlaps a running
    kernel, so those clearing points cut the transfers into *epochs*; and
    within an epoch a candidate is overwritten iff a later candidate in the
    same epoch shares its source address — which one ``lexsort`` by
    ``(epoch, address, position)`` exposes as adjacent rows.  A finding is
    reported at the position of the transfer that triggered it (the
    overwriting transfer, or the transfer itself for the after-last-kernel
    case), matching the oracle's output order.

    The epochs are folded shard by shard: each device carries its kernel
    cursor base, the transfers no kernel has reached yet, and the open
    epoch's surviving candidates (see :class:`_DeviceTransferState`).
    Everything classified is discarded immediately unless it is a finding.
    Classification depends on the *complete* kernel prefix, which a fold
    from the stream head always has.
    """

    weight = 17

    def __init__(self, num_devices: int) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        self.num_devices = num_devices
        self._states = [_DeviceTransferState() for _ in range(num_devices)]

    def fold(self, batch, offset: int) -> None:
        num_devices = self.num_devices
        states = self._states
        kmask = batch.kernel_mask()
        k_dev = batch.tgt_device_num[kmask]
        k_start = batch.tgt_start_time[kmask]
        k_end = batch.tgt_end_time[kmask]

        tmask = batch.transfer_mask()
        t_dev = batch.do_dest_device_num
        touched = set()
        for dev in np.unique(k_dev).tolist():
            if 0 <= dev < num_devices:
                on_dev = k_dev == dev
                states[dev].add_kernels(k_start[on_dev], k_end[on_dev])
                touched.add(dev)
        tx = np.flatnonzero(tmask & (t_dev >= 0) & (t_dev < num_devices))
        if tx.size:
            tx_dev = t_dev[tx]
            for dev in np.unique(tx_dev).tolist():
                rows = tx[tx_dev == dev]
                states[dev].add_transfers(
                    batch.do_start_time[rows],
                    batch.do_src_addr[rows],
                    offset + rows,
                )
                touched.add(dev)
        for dev in touched:
            states[dev].classify()

    def finalize(self) -> FindingPart:
        per_device = [state.finish() for state in self._states]
        return FindingPart.build(
            CATEGORY,
            np.concatenate([event for _, event, _ in per_device]),
            overwritten=np.concatenate([overwritten for _, _, overwritten in per_device]),
        )


def find_unused_transfers_streaming(
    stream: EventStream,
    num_devices: Optional[int] = None,
) -> list[UnusedTransfer]:
    """Incremental Algorithm 5 over an event stream."""
    if num_devices is None:
        num_devices = stream.num_devices
    part = run_streaming_pass(UnusedTransferPass(num_devices), stream)
    return part_objects(part, materialize_data_op_events(stream, part.labels()))
