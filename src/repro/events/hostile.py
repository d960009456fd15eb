"""Adversarial synthetic traces: valid, seeded, and deliberately hostile.

:mod:`repro.events.synth` generates the *friendly* million-event trace the
benchmarks want — regular five-slot cycles, kind findings, no surprises.
This module generates the traces a fuzzer wants: still **valid** per
:func:`repro.events.validation.validate_trace` (the differential oracle
compares analysers, so the input must be in-contract), but shaped from the
patterns that have historically broken streaming and parallel analysis:

* **pathological alloc nesting** — hundreds of allocations open at once,
  released in LIFO, FIFO or shuffled order, so carry state peaks;
* **interleaved / split round-trip legs** — an ``h2d`` whose matching
  ``d2h`` lands thousands of events (and many motifs) later, forcing the
  leg to survive shard cuts and coalesced folds;
* **duplicate storms** — long transfer runs drawn from a tiny payload-hash
  pool, stressing duplicate grouping across boundaries;
* **ping-pong** — a pool hash sent to every device and returned unmodified,
  many times, so a few hashes carry many round trips in both directions;
* **repeated-allocation churn** and **freed-address reuse** — the same
  mapping key or device address cycling through alloc/delete repeatedly;
* **kernel bursts** — long data-op-free stretches that become shards with
  zero data ops;
* **same-timestamp bursts** — ties in ``start_time`` that any
  sort-assuming merge must keep stable.

Everything is driven by one :func:`numpy.random.default_rng` seed: the same
``(num_events, seed)`` always yields the same trace, so a failing fuzz case
reproduces from its printed seed alone.

:func:`write_hostile_store` extends the hostility to the *storage layout*:
random shard cut sizes (shard-boundary-hostile orderings), per-shard format
flips between ``npz`` and ``odpf``, and injected zero-event shards spliced
into the manifest (empty-shard layouts).
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from repro.events.columnar import (
    CODE_ALLOC,
    CODE_DELETE,
    CODE_FROM_DEVICE,
    CODE_TARGET,
    CODE_TO_DEVICE,
    ColumnarTrace,
)
from repro.events.store import (
    MANIFEST_NAME,
    SHARD_FORMAT_NPZ,
    SHARD_FORMAT_ODPF,
    ShardedTraceStore,
    TraceWriter,
)

_DT = 1e-6  # clock step between events (0 inside a same-timestamp burst)
_DUR = 0.6e-6

#: The duplicate-storm payload pool: every storm draws from these hashes.
_HASH_POOL = (0x0D0D_0001, 0x0D0D_0002, 0x0D0D_0003, 0x0D0D_0004)


class _Builder:
    """Column-list event sink with live-allocation bookkeeping."""

    def __init__(self, num_devices: int, rng: np.random.Generator) -> None:
        self.num_devices = num_devices
        self.host = num_devices
        self.rng = rng
        self.seq = 0
        self.clock = 0.0
        self.burst = 0  # remaining events that reuse the current timestamp
        # data-op columns
        self.do: dict[str, list] = {
            name: []
            for name in (
                "seq", "kind", "src_device_num", "dest_device_num",
                "src_addr", "dest_addr", "nbytes", "start_time", "end_time",
                "content_hash", "has_content_hash",
            )
        }
        # target columns
        self.tg: dict[str, list] = {
            name: [] for name in ("seq", "kind", "device_num", "start_time", "end_time")
        }
        #: live device buffers: (device, dev_addr) -> (host_addr, nbytes)
        self.live: dict[tuple[int, int], tuple[int, int]] = {}
        #: split round-trip legs awaiting their d2h: the fuzzer's carry bait
        self.open_legs: list[tuple[int, int, int, int, int]] = []
        self._next_host = 0x0100_0000
        self._next_dev = [0x4000_0000 + d * 0x0800_0000 for d in range(num_devices)]
        self._freed: list[tuple[int, int]] = []
        self._fresh_hash = 0x1000_0000

    # -- allocators ----------------------------------------------------- #
    def host_addr(self) -> int:
        self._next_host += 0x40
        return self._next_host

    def dev_addr(self, device: int, *, reuse: bool = False) -> int:
        if reuse and self._freed:
            for i, (d, addr) in enumerate(self._freed):
                if d == device and (device, addr) not in self.live:
                    del self._freed[i]
                    return addr
        self._next_dev[device] += 0x100
        return self._next_dev[device]

    def fresh_hash(self) -> int:
        self._fresh_hash += 1
        return self._fresh_hash

    def pool_hash(self) -> int:
        return _HASH_POOL[int(self.rng.integers(len(_HASH_POOL)))]

    # -- clock ---------------------------------------------------------- #
    def _tick(self) -> tuple[float, float]:
        if self.burst > 0:
            self.burst -= 1
        else:
            self.clock += _DT
            if self.rng.random() < 0.02:  # start a same-timestamp burst
                self.burst = int(self.rng.integers(2, 9))
        return self.clock, self.clock + _DUR

    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    # -- events --------------------------------------------------------- #
    def _data_op(
        self, kind: int, src_dev: int, dest_dev: int, src_addr: int,
        dest_addr: int, nbytes: int, payload: Optional[int],
    ) -> None:
        start, end = self._tick()
        do = self.do
        do["seq"].append(self._next_seq())
        do["kind"].append(kind)
        do["src_device_num"].append(src_dev)
        do["dest_device_num"].append(dest_dev)
        do["src_addr"].append(src_addr)
        do["dest_addr"].append(dest_addr)
        do["nbytes"].append(nbytes)
        do["start_time"].append(start)
        do["end_time"].append(end)
        do["content_hash"].append(payload if payload is not None else 0)
        do["has_content_hash"].append(payload is not None)

    def alloc(self, device: int, host_addr: int, dev_addr: int, nbytes: int) -> None:
        assert (device, dev_addr) not in self.live, "alloc of a live buffer"
        self.live[(device, dev_addr)] = (host_addr, nbytes)
        self._data_op(CODE_ALLOC, self.host, device, host_addr, dev_addr, nbytes, None)

    def delete(self, device: int, dev_addr: int) -> None:
        host_addr, nbytes = self.live.pop((device, dev_addr))
        self._freed.append((device, dev_addr))
        self._data_op(CODE_DELETE, self.host, device, host_addr, dev_addr, nbytes, None)

    def h2d(self, device: int, dev_addr: int, payload: int) -> None:
        host_addr, nbytes = self.live[(device, dev_addr)]
        self._data_op(
            CODE_TO_DEVICE, self.host, device, host_addr, dev_addr, nbytes, payload
        )

    def d2h(self, device: int, dev_addr: int, payload: int) -> None:
        host_addr, nbytes = self.live[(device, dev_addr)]
        self._data_op(
            CODE_FROM_DEVICE, device, self.host, dev_addr, host_addr, nbytes, payload
        )

    def kernel(self, device: int) -> None:
        start, end = self._tick()
        tg = self.tg
        tg["seq"].append(self._next_seq())
        tg["kind"].append(CODE_TARGET)
        tg["device_num"].append(device)
        tg["start_time"].append(start)
        tg["end_time"].append(end)

    @property
    def num_events(self) -> int:
        return len(self.do["seq"]) + len(self.tg["seq"])

    # -- motif helpers --------------------------------------------------- #
    def simple_buffer(self, device: int, *, reuse_addr: bool = False) -> int:
        addr = self.dev_addr(device, reuse=reuse_addr)
        self.alloc(device, self.host_addr(), addr, 1024 + 8 * int(self.rng.integers(256)))
        return addr

    def open_leg(self, device: int) -> None:
        """Start a split round trip: h2d now, matching d2h much later."""
        addr = self.simple_buffer(device)
        payload = self.fresh_hash()
        self.h2d(device, addr, payload)
        host_addr, nbytes = self.live[(device, addr)]
        self.open_legs.append((device, addr, host_addr, nbytes, payload))

    def close_leg(self) -> bool:
        """Finish the oldest-or-random open round trip leg."""
        if not self.open_legs:
            return False
        index = 0 if self.rng.random() < 0.5 else int(self.rng.integers(len(self.open_legs)))
        device, addr, _host, _nbytes, payload = self.open_legs.pop(index)
        self.kernel(device)
        self.d2h(device, addr, payload)  # unmodified payload: a round trip
        self.delete(device, addr)
        return True


# ------------------------------------------------------------------- #
# Motifs
# ------------------------------------------------------------------- #
def _motif_deep_nest(b: _Builder, device: int, budget: int) -> None:
    depth = int(b.rng.integers(8, max(9, min(220, budget // 2))))
    addrs = [b.simple_buffer(device) for _ in range(depth)]
    b.kernel(device)
    order = int(b.rng.integers(3))
    if order == 0:  # LIFO
        addrs.reverse()
    elif order == 2:  # shuffled
        b.rng.shuffle(addrs)
    for addr in addrs:
        b.delete(device, addr)


def _motif_duplicate_storm(b: _Builder, device: int, budget: int) -> None:
    addr = b.simple_buffer(device)
    for _ in range(int(b.rng.integers(6, max(7, min(48, budget))))):
        b.h2d(device, addr, b.pool_hash())
    b.kernel(device)
    b.d2h(device, addr, b.fresh_hash())
    b.delete(device, addr)


def _motif_repeated_alloc(b: _Builder, device: int, budget: int) -> None:
    # One fixed (host address, size) mapping key churning through
    # alloc/delete: every cycle after the first is a repeated allocation.
    host_addr = 0x0005_0000 + device * 0x1000 + int(b.rng.integers(8)) * 0x40
    nbytes = 4096
    for _ in range(int(b.rng.integers(3, max(4, min(12, budget // 2))))):
        addr = b.dev_addr(device)
        b.alloc(device, host_addr, addr, nbytes)
        if b.rng.random() < 0.5:
            b.h2d(device, addr, b.fresh_hash())
        b.delete(device, addr)


def _motif_kernel_burst(b: _Builder, device: int, budget: int) -> None:
    for _ in range(int(b.rng.integers(16, max(17, min(128, budget))))):
        b.kernel(device)


def _motif_unused_chain(b: _Builder, device: int, budget: int) -> None:
    addr = b.simple_buffer(device)
    if b.rng.random() < 0.5:
        # Overwritten h2d with no kernel between: an unused transfer.
        b.h2d(device, addr, b.fresh_hash())
        b.h2d(device, addr, b.fresh_hash())
        b.kernel(device)
        b.d2h(device, addr, b.fresh_hash())
    # else: alloc/delete with no transfer at all — an unused allocation.
    b.delete(device, addr)


def _motif_addr_reuse(b: _Builder, device: int, budget: int) -> None:
    addr = b.simple_buffer(device)
    b.h2d(device, addr, b.fresh_hash())
    b.delete(device, addr)
    reused = b.simple_buffer(device, reuse_addr=True)
    b.kernel(device)
    b.delete(device, reused)


def _motif_ping_pong(b: _Builder, device: int, budget: int) -> None:
    # One pool hash mapped to every device and copied back unmodified,
    # again and again: every return closes a round trip.  With the
    # duplicate storms' sends of the same hashes this makes a few busy
    # round-trip hashes, two-key on one device and with a key per device
    # on more.
    payload = b.pool_hash()
    addrs = [b.simple_buffer(d) for d in range(b.num_devices)]
    rounds = int(b.rng.integers(2, max(3, min(12, budget // (3 * b.num_devices)))))
    for _ in range(rounds):
        for d, addr in enumerate(addrs):
            b.h2d(d, addr, payload)
            b.kernel(d)
            b.d2h(d, addr, payload)
    for d, addr in enumerate(addrs):
        b.delete(d, addr)


_MOTIFS = (
    (_motif_deep_nest, 0.12),
    (_motif_duplicate_storm, 0.22),
    (_motif_repeated_alloc, 0.14),
    (_motif_kernel_burst, 0.10),
    (_motif_unused_chain, 0.22),
    (_motif_addr_reuse, 0.20),
    (_motif_ping_pong, 0.08),
)


def make_hostile_trace(
    num_events: int,
    *,
    seed: int,
    num_devices: Optional[int] = None,
    program_name: Optional[str] = None,
) -> ColumnarTrace:
    """Generate a valid adversarial trace of roughly ``num_events`` events.

    Deterministic in ``(num_events, seed, num_devices)``; the result
    satisfies :func:`repro.events.validation.validate_trace` and leaves a
    tail of allocations (and split transfer legs) open at end-of-trace.
    """
    if num_events < 1:
        raise ValueError("num_events must be positive")
    rng = np.random.default_rng(seed)
    if num_devices is None:
        num_devices = int(rng.integers(1, 4))
    b = _Builder(num_devices, rng)
    weights = np.array([w for _, w in _MOTIFS])
    weights = weights / weights.sum()
    while b.num_events < num_events:
        budget = num_events - b.num_events + 8
        device = int(rng.integers(num_devices))
        # Split legs interleave with everything: open often, close late.
        roll = rng.random()
        if roll < 0.10:
            b.open_leg(device)
            continue
        if roll < 0.18 and len(b.open_legs) > 4:
            b.close_leg()
            continue
        motif = _MOTIFS[int(rng.choice(len(_MOTIFS), p=weights))][0]
        motif(b, device, budget)
    # Close about half the open legs; the rest stay open across the end of
    # the trace (open allocations at end-of-trace are valid).
    while len(b.open_legs) > 2 and rng.random() < 0.5:
        b.close_leg()

    data_ops = {
        "seq": np.array(b.do["seq"], dtype=np.int64),
        "kind": np.array(b.do["kind"], dtype=np.int8),
        "src_device_num": np.array(b.do["src_device_num"], dtype=np.int32),
        "dest_device_num": np.array(b.do["dest_device_num"], dtype=np.int32),
        "src_addr": np.array(b.do["src_addr"], dtype=np.uint64),
        "dest_addr": np.array(b.do["dest_addr"], dtype=np.uint64),
        "nbytes": np.array(b.do["nbytes"], dtype=np.int64),
        "start_time": np.array(b.do["start_time"], dtype=np.float64),
        "end_time": np.array(b.do["end_time"], dtype=np.float64),
        "content_hash": np.array(b.do["content_hash"], dtype=np.uint64),
        "has_content_hash": np.array(b.do["has_content_hash"], dtype=np.bool_),
    }
    targets = {
        "seq": np.array(b.tg["seq"], dtype=np.int64),
        "kind": np.array(b.tg["kind"], dtype=np.int8),
        "device_num": np.array(b.tg["device_num"], dtype=np.int32),
        "start_time": np.array(b.tg["start_time"], dtype=np.float64),
        "end_time": np.array(b.tg["end_time"], dtype=np.float64),
    }
    return ColumnarTrace.from_arrays(
        num_devices=num_devices,
        program_name=program_name or f"hostile-{seed}",
        total_runtime=b.clock + 1e-3,
        data_ops=data_ops if data_ops["seq"].size else None,
        targets=targets if targets["seq"].size else None,
    )


# ------------------------------------------------------------------- #
# Shard-boundary-hostile store layouts
# ------------------------------------------------------------------- #
def _hostile_bounds(
    trace: ColumnarTrace, rng: np.random.Generator, lo: int, hi: int
) -> list[tuple[int, int, int, int]]:
    """Row bounds cutting ``trace`` into randomly sized chronological spans."""
    all_seq = np.sort(np.concatenate([trace.do_seq, trace.tgt_seq]))
    total = all_seq.size
    bounds: list[tuple[int, int, int, int]] = []
    do_lo = tgt_lo = 0
    cut = 0
    while cut < total:
        cut = min(total, cut + int(rng.integers(lo, hi + 1)))
        cut_seq = all_seq[cut - 1]
        do_hi = int(np.searchsorted(trace.do_seq, cut_seq, side="right"))
        tgt_hi = int(np.searchsorted(trace.tgt_seq, cut_seq, side="right"))
        bounds.append((do_lo, do_hi, tgt_lo, tgt_hi))
        do_lo, tgt_lo = do_hi, tgt_hi
    return bounds


def write_hostile_store(
    trace: ColumnarTrace,
    destination,
    *,
    seed: int,
    min_shard_events: int = 64,
    max_shard_events: int = 4096,
    mixed_formats: bool = True,
    empty_shards: bool = True,
) -> ShardedTraceStore:
    """Write ``trace`` out with a shard layout chosen to be maximally awkward.

    Shard cuts are random sizes in ``[min_shard_events, max_shard_events]``
    (so motifs straddle boundaries in seed-dependent ways), shard formats
    flip between ``npz`` and ``odpf`` per shard when ``mixed_formats``, and
    with ``empty_shards`` one or two zero-event shards are spliced into the
    manifest at random positions.  The store's *content* is exactly
    ``trace`` — only the layout is hostile — so analysis results must match
    any other representation bit-for-bit.
    """
    rng = np.random.default_rng(seed)
    writer = TraceWriter(
        destination,
        shard_events=2**62,  # never auto-cut: every flush below is one shard
        num_devices=trace.num_devices,
        program_name=trace.program_name,
        shard_format=SHARD_FORMAT_ODPF,
    )
    for do_lo, do_hi, tgt_lo, tgt_hi in _hostile_bounds(
        trace, rng, min_shard_events, max_shard_events
    ):
        if mixed_formats:
            writer.shard_format = (
                SHARD_FORMAT_NPZ if rng.random() < 0.4 else SHARD_FORMAT_ODPF
            )
        writer.write_batch(trace.slice_rows(do_lo, do_hi, tgt_lo, tgt_hi))
        writer.flush()
    store = writer.close(total_runtime=trace.total_runtime)
    if empty_shards and store.num_shards:
        store = _splice_empty_shards(store, rng)
    return store


def _splice_empty_shards(
    store: ShardedTraceStore, rng: np.random.Generator
) -> ShardedTraceStore:
    """Insert one or two zero-event shards into a store's manifest."""
    transport = store.transport
    manifest = json.loads(transport.read_blob(MANIFEST_NAME).decode("utf-8"))
    entries = manifest["shards"]
    empty = ColumnarTrace(num_devices=manifest["num_devices"])
    for n in range(int(rng.integers(1, 3))):
        position = int(rng.integers(len(entries) + 1))
        file = f"shard-empty-{n:02d}.{SHARD_FORMAT_ODPF}"
        transport.write_blob(file, empty.to_flat_payload())
        # A zero-event shard inherits its predecessor's end_time so the
        # manifest's shard end_times stay non-decreasing.
        end_time = entries[position - 1]["end_time"] if position else 0.0
        entries.insert(
            position,
            {
                "file": file,
                "num_data_op_events": 0,
                "num_target_events": 0,
                "end_time": end_time,
                "format": SHARD_FORMAT_ODPF,
            },
        )
    transport.write_blob(
        MANIFEST_NAME, (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
    )
    return ShardedTraceStore.open(transport)
