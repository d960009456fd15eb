"""Seeded inputs of the benchmark workloads.

The program under test only ever sees what these functions produce: a
columnar trace written into a sharded store (``dense``, ``sparse``,
``partitioned``) or a list of application programs run under the collector
(``ingest``).  Everything here is benchmark code, so trace generation is
kept out of every timed region and out of ``setup_s``.
"""

from __future__ import annotations

import numpy as np

from repro.events.columnar import (
    CODE_ALLOC,
    CODE_DELETE,
    CODE_FROM_DEVICE,
    CODE_TARGET,
    CODE_TO_DEVICE,
    ColumnarTrace,
)
from repro.events.synth import make_synthetic_columnar_trace

#: Events per cycle of both generators: alloc, h2d, (kernel | second h2d),
#: d2h, delete.
EVENTS_PER_CYCLE = 5

#: Findings-dense trace: the ``events/synth.py`` trace.
DENSE_EVENTS = 500_000
DENSE_SHARD_EVENTS = 131_072

#: Findings-sparse trace: every pattern about 100x rarer than in the dense
#: trace, cut into many small shards.
SPARSE_EVENTS = 400_000
SPARSE_SHARD_EVENTS = 8_192

#: Cycles per injected finding of each kind in the sparse trace (the dense
#: trace's modular periods times 100).
_SPARSE_PERIODS = {
    "duplicate": 1100,
    "round_trip": 1700,
    "repeated_alloc": 9700,
    "kernel_free": 2300,
}
_SPARSE_TAIL_CYCLES = 16
_SLOT = 1e-6
_ACTIVE = 0.6
#: Variables whose fixed mapping key the repeated allocations reuse; fewer
#: than the repeated cycles, so every seed repeats some key.
_NUM_VARIABLES = 4


def _seed_key(seed: int) -> int:
    """A non-zero 64-bit mask derived from ``seed``."""
    rng = np.random.default_rng([seed, 0x0DE5E])
    return int(rng.integers(1, 2**63, dtype=np.int64))


def make_dense_trace(seed: int, num_events: int = DENSE_EVENTS) -> ColumnarTrace:
    """The synth trace with its payload hashes XOR-masked by a seeded key.

    Masking is a bijection on hash values, so the findings (which depend
    only on hash equality) are the same for every seed while the bytes the
    program reads differ.
    """
    trace = make_synthetic_columnar_trace(num_events, program_name=f"dense-{seed}")
    hashes = trace.do_content_hash
    np.bitwise_xor(
        hashes, np.uint64(_seed_key(seed)), out=hashes, where=trace.do_has_content_hash
    )
    return trace


def make_sparse_trace(seed: int) -> ColumnarTrace:
    """A valid, findings-sparse trace of ``SPARSE_EVENTS`` events.

    The five-slot cycle of :func:`repro.events.synth.make_synthetic_columnar_trace`
    with each pattern injected into a fixed number of seeded, randomly
    chosen cycles instead of every k-th one, so the event count and the
    finding counts stay (nearly) the same for every seed.
    """
    rng = np.random.default_rng([seed, 0x5BA25E])
    cycles = SPARSE_EVENTS // EVENTS_PER_CYCLE
    i = np.arange(cycles, dtype=np.int64)
    var = rng.integers(0, _NUM_VARIABLES, size=cycles)
    host = 1

    def _pick(kind: str, lo: int = 0, hi: int = cycles) -> np.ndarray:
        count = max((hi - lo) // _SPARSE_PERIODS[kind], 2)
        mask = np.zeros(cycles, dtype=bool)
        mask[lo + rng.choice(hi - lo, size=count, replace=False)] = True
        return mask

    tail = _SPARSE_TAIL_CYCLES
    has_kernel = ~_pick("kernel_free", 0, cycles - tail) & (i < cycles - tail)

    key = np.int64(_seed_key(seed) & 0x00FF_FFFF_FFFF_FFFF)
    duplicate = _pick("duplicate")
    h2d_hash = np.where(duplicate, 0x1000 + rng.integers(0, 4, size=cycles), 0x0100_0000 + i) ^ key
    d2h_hash = np.where(_pick("round_trip"), h2d_hash, (0x0900_0000 + i) ^ key)
    extra_hash = (0x0700_0000 + i) ^ key

    repeated = _pick("repeated_alloc")
    host_addr = np.where(repeated, 0x0005_0000 + var * 0x40, 0x0090_0000 + i * 0x40)
    nbytes = np.where(repeated, 4096, 1024 + 8 * rng.integers(0, 251, size=cycles))
    dev_addr = 0x00A0_0000 + i * 0x100

    def _const(value: int) -> np.ndarray:
        return np.full(cycles, value, dtype=np.int64)

    second_h2d = ~has_kernel
    slots = [
        (0, CODE_ALLOC, _const(host), _const(0), host_addr, dev_addr, None, None),
        (1, CODE_TO_DEVICE, _const(host), _const(0), host_addr, dev_addr, h2d_hash, None),
        (2, CODE_TO_DEVICE, _const(host), _const(0), host_addr, dev_addr, extra_hash, second_h2d),
        (3, CODE_FROM_DEVICE, _const(0), _const(host), dev_addr, host_addr, d2h_hash, None),
        (4, CODE_DELETE, _const(host), _const(0), host_addr, dev_addr, None, None),
    ]
    names = (
        "seq", "kind", "src_device_num", "dest_device_num", "src_addr",
        "dest_addr", "nbytes", "start_time", "end_time", "content_hash",
        "has_content_hash",
    )
    parts: dict[str, list[np.ndarray]] = {name: [] for name in names}
    for slot, kind, src_dev, dest_dev, src_addr, dest_addr, payload, mask in slots:
        keep = slice(None) if mask is None else mask
        n = cycles if mask is None else int(mask.sum())
        seq = (i * EVENTS_PER_CYCLE + slot)[keep]
        start = seq * _SLOT
        parts["seq"].append(seq)
        parts["kind"].append(np.full(n, kind, dtype=np.int8))
        parts["src_device_num"].append(src_dev[keep])
        parts["dest_device_num"].append(dest_dev[keep])
        parts["src_addr"].append(src_addr[keep].astype(np.uint64))
        parts["dest_addr"].append(dest_addr[keep].astype(np.uint64))
        parts["nbytes"].append(nbytes[keep])
        parts["start_time"].append(start)
        parts["end_time"].append(start + _ACTIVE * _SLOT)
        has_hash = payload is not None
        parts["content_hash"].append(
            payload[keep].astype(np.uint64) if has_hash else np.zeros(n, dtype=np.uint64)
        )
        parts["has_content_hash"].append(np.full(n, has_hash, dtype=np.bool_))

    data_ops = {name: np.concatenate(chunks) for name, chunks in parts.items()}
    order = np.argsort(data_ops["seq"], kind="stable")
    data_ops = {name: col[order] for name, col in data_ops.items()}

    k_seq = (i * EVENTS_PER_CYCLE + 2)[has_kernel]
    k_start = k_seq * _SLOT
    targets = {
        "seq": k_seq,
        "kind": np.full(k_seq.size, CODE_TARGET, dtype=np.int8),
        "device_num": np.zeros(k_seq.size, dtype=np.int32),
        "start_time": k_start,
        "end_time": k_start + _ACTIVE * _SLOT,
    }
    return ColumnarTrace.from_arrays(
        num_devices=1,
        program_name=f"sparse-{seed}",
        total_runtime=cycles * EVENTS_PER_CYCLE * _SLOT,
        data_ops=data_ops,
        targets=targets,
    )
