"""Trace well-formedness checks.

The detection algorithms require the event log to be chronologically ordered
and internally consistent (Section 5 "Require: ... in chronological order").
``validate_trace`` enforces those preconditions so the detectors can assume
them; it is also exercised heavily by the property-based tests.

For event streams the checks are a streaming pass, :class:`ValidationPass`:
the engines fold it in the same scan as the detector passes, and
``validate_stream`` is a one-pass run of it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.events.protocol import StreamingPass
from repro.events.records import DataOpKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.events.columnar import ColumnarTrace
    from repro.events.protocol import EventStream


class TraceValidationError(ValueError):
    """Raised when a trace violates the detector preconditions."""


def _check_chronological(events: Iterable, what: str, errors: list[str]) -> None:
    prev_start = float("-inf")
    for event in events:
        if event.start_time < prev_start:
            errors.append(
                f"{what} events are not in chronological order at seq={event.seq}"
            )
            return
        prev_start = event.start_time


def validate_trace(trace, *, strict: bool = True) -> list[str]:
    """Validate a trace, returning a list of problems.

    With ``strict=True`` (the default) a non-empty problem list raises
    :class:`TraceValidationError`; with ``strict=False`` the problems are
    returned to the caller (useful in tests and for the CLI's ``--quiet``
    mode, which reports but tolerates malformed traces).

    Both representations are accepted; a columnar trace is checked with
    vectorised sweeps over its columns so that validating a collector's
    output does not force the object events to materialise.
    """
    from repro.events.columnar import ColumnarTrace

    if isinstance(trace, ColumnarTrace):
        return _validate_columnar(trace, strict=strict)

    errors: list[str] = []

    if trace.num_devices < 1:
        errors.append("trace must describe at least one target device")

    _check_chronological(trace.target_events, "target", errors)
    _check_chronological(trace.data_op_events, "data-op", errors)

    host = trace.host_device_num
    valid_devices = set(range(trace.num_devices)) | {host}

    seen_seq: set[int] = set()
    for event in trace.target_events:
        if event.seq in seen_seq:
            errors.append(f"duplicate target event sequence number {event.seq}")
        seen_seq.add(event.seq)
        if event.device_num not in valid_devices:
            errors.append(
                f"target event seq={event.seq} references unknown device {event.device_num}"
            )

    seen_seq = set()
    open_allocs: set[tuple[int, int]] = set()
    for event in trace.data_op_events:
        if event.seq in seen_seq:
            errors.append(f"duplicate data-op event sequence number {event.seq}")
        seen_seq.add(event.seq)
        if event.src_device_num not in valid_devices:
            errors.append(
                f"data-op seq={event.seq} references unknown source device "
                f"{event.src_device_num}"
            )
        if event.dest_device_num not in valid_devices:
            errors.append(
                f"data-op seq={event.seq} references unknown destination device "
                f"{event.dest_device_num}"
            )
        if event.is_transfer:
            if event.content_hash is None:
                errors.append(f"transfer seq={event.seq} is missing its content hash")
            if event.src_device_num == event.dest_device_num:
                errors.append(
                    f"transfer seq={event.seq} has identical source and destination device"
                )
            if event.kind is DataOpKind.TRANSFER_TO_DEVICE and event.dest_device_num == host:
                errors.append(
                    f"transfer-to-device seq={event.seq} targets the host device"
                )
            if event.kind is DataOpKind.TRANSFER_FROM_DEVICE and event.src_device_num == host:
                errors.append(
                    f"transfer-from-device seq={event.seq} originates from the host device"
                )
        if event.is_alloc:
            key = (event.dest_device_num, event.dest_addr)
            if key in open_allocs:
                errors.append(
                    f"alloc seq={event.seq} reuses a live device address "
                    f"{event.dest_addr:#x} on device {event.dest_device_num}"
                )
            open_allocs.add(key)
        if event.is_delete:
            key = (event.dest_device_num, event.dest_addr)
            open_allocs.discard(key)

    if trace.total_runtime is not None and trace.total_runtime + 1e-12 < trace.end_time:
        errors.append(
            "total_runtime is earlier than the last recorded event "
            f"({trace.total_runtime} < {trace.end_time})"
        )

    if errors and strict:
        raise TraceValidationError("; ".join(errors))
    return errors


def validate_stream(stream: "EventStream", *, strict: bool = True) -> list[str]:
    """Validate an event stream shard by shard, in O(shard) memory.

    A one-pass run of :class:`ValidationPass` over ``stream.batches()``,
    the same checks the engines fold alongside the detectors when
    ``OMPDataPerf(validate=True)`` analyses a stream.  Each batch runs
    through the columnar validation sweeps, and batch boundaries are
    checked for the stream contract: per column group, sequence numbers
    ascend and start times do not decrease across the boundary.  Problems
    are reported per shard (``shard i: ...``) in stream order.
    Whole-trace properties that would need O(trace) state (global
    sequence-number uniqueness, cross-shard live-address reuse) are only
    enforced within each shard.
    """
    check = ValidationPass(stream.num_devices, stream.total_runtime)
    for batch in stream.batches():
        check.fold(batch, 0)
    errors = check.errors()
    if errors and strict:
        raise TraceValidationError("; ".join(errors))
    return errors


def _boundary_problems(what: str, prev: tuple[int, float], seq: int, start: float) -> list[str]:
    """Stream-contract problems where a shard whose first ``what`` event has
    ``seq``/``start`` follows a shard ending at ``prev`` (last seq, max start)."""
    last_seq, last_start = prev
    problems = []
    if seq <= last_seq:
        problems.append(
            f"{what} sequence numbers do not ascend across the "
            f"shard boundary at seq={seq}"
        )
    if start < last_start:
        problems.append(
            f"{what} events are not in chronological order across "
            f"the shard boundary at seq={seq}"
        )
    return problems


class ValidationPass(StreamingPass):
    """Stream validation as a guard pass (see :class:`StreamingPass`).

    The carry is what crosses shard boundaries: per column group the last
    shard's bounds (``prev_bounds``: last seq, max start), the latest end
    time, the shard count and the problems found so far, in stream order
    (per shard: the columnar sweeps, then the target and data-op boundary
    checks).  ``finalize`` raises :class:`TraceValidationError` with
    exactly the message of :func:`validate_stream`.

    The scan hands the guard the coalesced groups the detectors fold
    (:meth:`fold_group`); a clean group costs one sweep over its
    concatenation, and any other group is folded shard by shard, so every
    ``shard i: ...`` message is the one :func:`validate_stream` gives.
    """

    guard = True
    weight = 20

    def __init__(self, num_devices: int, total_runtime: Optional[float] = None) -> None:
        # The stream's device count is authoritative (a shard written early
        # in a run may predate later device initialisations), so per-batch
        # device-range checks run against it.
        self.num_devices = num_devices
        self.total_runtime = total_runtime
        self.num_batches = 0
        self.end_time = 0.0
        self.prev_bounds: dict[str, tuple[int, float]] = {}
        self.problems: list[str] = []

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def fold(self, batch: "ColumnarTrace", offset: int) -> None:
        """Validate one shard (``offset`` is unused: problems name shards)."""
        problems = _validate_columnar(batch, strict=False, num_devices=self.num_devices)
        for what, seqs, starts in (
            ("target", batch.tgt_seq, batch.tgt_start_time),
            ("data-op", batch.do_seq, batch.do_start_time),
        ):
            if seqs.size == 0:
                continue
            prev = self.prev_bounds.get(what)
            if prev is not None:
                problems += _boundary_problems(what, prev, int(seqs[0]), float(starts[0]))
            self.prev_bounds[what] = (int(seqs[-1]), float(starts.max()))
        self.problems.extend(f"shard {self.num_batches}: {problem}" for problem in problems)
        self.num_batches += 1
        self.end_time = max(self.end_time, batch.end_time)

    def fold_group(
        self, shards: Sequence["ColumnarTrace"], batch: "ColumnarTrace", offset: int
    ) -> None:
        """Validate consecutive ``shards``, whose concatenation is ``batch``.

        A shard breaks a rule only where its rows break it inside the
        concatenation too.  So one sweep of ``batch``, with each shard's
        seqs checked strictly ascending on its own rows and across its
        boundaries, its own ``total_runtime`` checked, and the group's
        first rows checked against the carry, finds nothing only if every
        shard is clean; the carry then advances past the group at once.
        Anything else (or a problem already recorded) folds the group
        shard by shard, for the exact per-shard messages.
        """
        bounds = None
        if len(shards) > 1 and not self.problems:
            bounds = self._clean_group_bounds(shards, batch)
        if bounds is None:
            for shard in shards:
                self.fold(shard, offset)
            return
        self.prev_bounds.update(bounds)
        self.num_batches += len(shards)
        ends = [float(col.max()) for col in (batch.tgt_end_time, batch.do_end_time) if col.size]
        if any(math.isnan(end) for end in ends):
            # A NaN hides a shard's other ends from its own end_time.
            self.end_time = max([self.end_time] + [shard.end_time for shard in shards])
        else:
            self.end_time = max([self.end_time, 0.0] + ends)

    def _clean_group_bounds(
        self, shards: Sequence["ColumnarTrace"], batch: "ColumnarTrace"
    ) -> Optional[dict[str, tuple[int, float]]]:
        """The carry's ``prev_bounds`` after the group if every shard of
        it is clean, else ``None``.  The seq columns are read per shard
        (views, never concatenated)."""
        last_seq = {what: bounds[0] for what, bounds in self.prev_bounds.items()}
        last_rows: dict[str, int] = {}
        for shard in shards:
            runtime = shard.total_runtime
            if runtime is not None and runtime + 1e-12 < shard.end_time:
                return None
            for what, seqs in (("target", shard.tgt_seq), ("data-op", shard.do_seq)):
                if seqs.size == 0:
                    continue
                if what in last_seq and int(seqs[0]) <= last_seq[what]:
                    return None
                if seqs.size > 1 and not bool(np.all(seqs[1:] > seqs[:-1])):
                    return None
                last_seq[what] = int(seqs[-1])
                last_rows[what] = seqs.size
        starts = {"target": batch.tgt_start_time, "data-op": batch.do_start_time}
        for what, (_, last_start) in self.prev_bounds.items():
            if starts[what].size and float(starts[what][0]) < last_start:
                return None
        if _validate_columnar(
            batch, strict=False, num_devices=self.num_devices, seqs_ascend=True
        ):
            return None
        # Each column group's bounds are its last non-empty shard's.
        return {
            what: (last_seq[what], float(starts[what][-rows:].max()))
            for what, rows in last_rows.items()
        }

    def errors(self) -> list[str]:
        """Every problem found, as :func:`validate_stream` reports them."""
        errors: list[str] = []
        if self.num_devices < 1:
            errors.append("trace must describe at least one target device")
        errors.extend(self.problems)
        if self.total_runtime is not None and self.total_runtime + 1e-12 < self.end_time:
            errors.append(
                "total_runtime is earlier than the last recorded event "
                f"({self.total_runtime} < {self.end_time})"
            )
        return errors

    def finalize(self) -> None:
        errors = self.errors()
        if errors:
            raise TraceValidationError("; ".join(errors))


def _duplicate_seqs(seqs: np.ndarray) -> Iterable[tuple[int, int]]:
    """``(seq, repeats)`` for every sequence number occurring more than once."""
    # Strictly ascending seqs (the normal case) hold no duplicate: skip
    # the sort.
    if seqs.size < 2 or bool(np.all(seqs[1:] > seqs[:-1])):
        return ()
    uniq, counts = np.unique(seqs, return_counts=True)
    dup = counts > 1
    return zip(uniq[dup].tolist(), (counts[dup] - 1).tolist())


def _validate_columnar(
    trace: "ColumnarTrace",
    *,
    strict: bool,
    num_devices: Optional[int] = None,
    seqs_ascend: bool = False,
) -> list[str]:
    """Vectorised validation sweeps over a columnar trace's columns.

    The set of problems found (including multiplicities) matches the
    object validator; only the *ordering* of the returned problem list may
    differ, because the sweeps run check by check rather than event by
    event.  Valid traces return ``[]`` in both representations.
    ``num_devices`` overrides the trace's own device count (a stream's
    count is authoritative for its batches).  ``seqs_ascend`` says the
    caller has checked both sequence-number columns strictly ascending,
    so no duplicate can exist; the seq columns are then only read to name
    an event in a problem.
    """
    from repro.events.columnar import (
        CODE_ALLOC,
        CODE_DELETE,
        CODE_FROM_DEVICE,
        CODE_TO_DEVICE,
    )

    errors: list[str] = []
    if num_devices is None:
        num_devices = trace.num_devices

    if num_devices < 1:
        errors.append("trace must describe at least one target device")

    for what, starts, seq_column in (
        ("target", trace.tgt_start_time, "tgt_seq"),
        ("data-op", trace.do_start_time, "do_seq"),
    ):
        if starts.size > 1:
            bad = np.flatnonzero(starts[1:] < starts[:-1])
            if bad.size:
                seqs = getattr(trace, seq_column)
                errors.append(
                    f"{what} events are not in chronological order "
                    f"at seq={int(seqs[bad[0] + 1])}"
                )

    host = num_devices  # OpenMP's initial-device number, as host_device_num
    valid_low, valid_high = 0, num_devices - 1

    def _device_ok(devices: np.ndarray) -> np.ndarray:
        return ((devices >= valid_low) & (devices <= valid_high)) | (devices == host)

    if trace.num_target_events:
        if not seqs_ascend:
            for seq, repeats in _duplicate_seqs(trace.tgt_seq):
                # One error per repeat occurrence, like the object validator.
                errors.extend([f"duplicate target event sequence number {seq}"] * repeats)
        for i in np.flatnonzero(~_device_ok(trace.tgt_device_num)):
            errors.append(
                f"target event seq={int(trace.tgt_seq[i])} references unknown device "
                f"{int(trace.tgt_device_num[i])}"
            )

    if trace.num_data_op_events:
        if not seqs_ascend:
            for seq, repeats in _duplicate_seqs(trace.do_seq):
                errors.extend([f"duplicate data-op event sequence number {seq}"] * repeats)
        for i in np.flatnonzero(~_device_ok(trace.do_src_device_num)):
            errors.append(
                f"data-op seq={int(trace.do_seq[i])} references unknown source device "
                f"{int(trace.do_src_device_num[i])}"
            )
        for i in np.flatnonzero(~_device_ok(trace.do_dest_device_num)):
            errors.append(
                f"data-op seq={int(trace.do_seq[i])} references unknown destination device "
                f"{int(trace.do_dest_device_num[i])}"
            )

        kind = trace.do_kind
        to_device = kind == CODE_TO_DEVICE
        from_device = kind == CODE_FROM_DEVICE
        transfer = to_device | from_device
        for i in np.flatnonzero(transfer & ~trace.do_has_content_hash):
            errors.append(f"transfer seq={int(trace.do_seq[i])} is missing its content hash")
        for i in np.flatnonzero(
            transfer & (trace.do_src_device_num == trace.do_dest_device_num)
        ):
            errors.append(
                f"transfer seq={int(trace.do_seq[i])} has identical source and destination device"
            )
        for i in np.flatnonzero(to_device & (trace.do_dest_device_num == host)):
            errors.append(f"transfer-to-device seq={int(trace.do_seq[i])} targets the host device")
        for i in np.flatnonzero(from_device & (trace.do_src_device_num == host)):
            errors.append(
                f"transfer-from-device seq={int(trace.do_seq[i])} originates from the host device"
            )

        # Live-address reuse: among the ALLOC/DELETE events of one
        # (device, address) key, an ALLOC is invalid iff the key's previous
        # event is also an ALLOC (i.e. the address is still live).
        ad = np.flatnonzero((kind == CODE_ALLOC) | (kind == CODE_DELETE))
        if ad.size:
            is_alloc = kind[ad] == CODE_ALLOC
            dev = trace.do_dest_device_num[ad]
            addr = trace.do_dest_addr[ad]
            # Stable: events of one key stay in stream order.
            order = np.lexsort((addr, dev))
            dev, addr = dev[order], addr[order]
            same_key = (dev[1:] == dev[:-1]) & (addr[1:] == addr[:-1])
            alloc_sorted = is_alloc[order]
            reused = np.flatnonzero(same_key & alloc_sorted[1:] & alloc_sorted[:-1])
            for pos in ad[order[reused + 1]]:
                errors.append(
                    f"alloc seq={int(trace.do_seq[pos])} reuses a live device address "
                    f"{int(trace.do_dest_addr[pos]):#x} on device "
                    f"{int(trace.do_dest_device_num[pos])}"
                )

    if trace.total_runtime is not None and trace.total_runtime + 1e-12 < trace.end_time:
        errors.append(
            "total_runtime is earlier than the last recorded event "
            f"({trace.total_runtime} < {trace.end_time})"
        )

    if errors and strict:
        raise TraceValidationError("; ".join(errors))
    return errors
