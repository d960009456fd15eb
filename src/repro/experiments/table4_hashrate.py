"""Table 4: effective hash rate per hash function per benchmark.

Appendix B measures, for every candidate hash, the throughput achieved over
the transfer payloads each benchmark actually produces.  The harness here
replays a sample of each application's transfer payloads through every
registered hasher.  Absolute numbers are not comparable with the paper's
native measurements (pure-Python hashes cannot reach tens of GB/s); what
reproduces is the *relative* ordering — the vectorised / library hashes are
orders of magnitude faster than the byte-at-a-time hashes and are therefore
the only viable collector defaults in this implementation, just as the
AVX2-accelerated hashes are in the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import AppVariant, ProblemSize
from repro.apps.registry import EVALUATION_APP_NAMES, get_app
from repro.hashing.base import Hasher, available_hashers
from repro.hashing.ratebench import measure_hash_rate
from repro.omp.runtime import OffloadRuntime
from repro.ompt.callbacks import CallbackType, Endpoint, TargetDataOpRecord
from repro.ompt.interface import OmptInterface
from repro.util.tables import Table


class _PayloadSampler:
    """OMPT tool that keeps copies of transfer payloads up to a budget."""

    def __init__(self, max_payloads: int, max_bytes: int) -> None:
        self.max_payloads = max_payloads
        self.max_bytes = max_bytes
        self.payloads: list[np.ndarray] = []
        self.total_bytes = 0
        self.seen_payloads = 0
        self.seen_bytes = 0

    def initialize(self, interface: OmptInterface) -> None:
        interface.set_callback(CallbackType.TARGET_DATA_OP_EMI, self._on_data_op)

    def finalize(self) -> None:
        pass

    def _on_data_op(self, record: TargetDataOpRecord) -> float:
        if record.endpoint is not Endpoint.END or record.payload is None:
            return 0.0
        self.seen_payloads += 1
        self.seen_bytes += record.bytes
        if len(self.payloads) >= self.max_payloads or self.total_bytes >= self.max_bytes:
            return 0.0
        payload = np.ascontiguousarray(record.payload).reshape(-1).view(np.uint8)
        self.payloads.append(np.array(payload, copy=True))
        self.total_bytes += payload.nbytes
        return 0.0


@dataclass(frozen=True)
class HashRateCell:
    app: str
    hasher: str
    gib_per_second: float


@dataclass
class HashRateResult:
    size: ProblemSize
    hashers: list[str]
    cells: list[HashRateCell]

    def rate(self, app: str, hasher: str) -> float | None:
        for cell in self.cells:
            if cell.app == app and cell.hasher == hasher:
                return cell.gib_per_second
        return None

    def average_rate(self, hasher: str) -> float:
        rates = [c.gib_per_second for c in self.cells if c.hasher == hasher]
        return sum(rates) / len(rates) if rates else 0.0

    def fastest_hasher(self) -> str:
        return max(self.hashers, key=self.average_rate)


def sample_payloads(
    app_name: str,
    size: ProblemSize,
    *,
    max_payloads: int = 128,
    max_bytes: int = 4 << 20,
) -> list[np.ndarray]:
    """Collect a sample of the transfer payloads an application produces."""
    app = get_app(app_name)
    ompt = OmptInterface()
    sampler = _PayloadSampler(max_payloads=max_payloads, max_bytes=max_bytes)
    ompt.connect_tool(sampler)
    runtime = OffloadRuntime(ompt=ompt, program_name=app.program_name(size, AppVariant.BASELINE))
    app.build_program(size, AppVariant.BASELINE)(runtime)
    runtime.finish()
    return sampler.payloads


def run(
    *,
    apps: tuple[str, ...] = EVALUATION_APP_NAMES,
    size: ProblemSize = ProblemSize.SMALL,
    hashers: dict[str, Hasher] | None = None,
    max_payloads: int = 128,
    max_bytes: int = 2 << 20,
) -> HashRateResult:
    hashers = hashers or available_hashers()
    cells: list[HashRateCell] = []
    for app_name in apps:
        payloads = sample_payloads(
            app_name, size, max_payloads=max_payloads, max_bytes=max_bytes
        )
        if not payloads:
            continue
        for name, hasher in hashers.items():
            sample = measure_hash_rate(hasher, payloads, repeats=1)
            cells.append(
                HashRateCell(app=app_name, hasher=name, gib_per_second=sample.gib_per_second)
            )
    return HashRateResult(size=size, hashers=list(hashers), cells=cells)


def render(result: HashRateResult) -> str:
    table = Table(
        ["program"] + result.hashers,
        title=f"Table 4: Hash rate in GiB/s over sampled transfer payloads ({result.size.value} inputs)",
    )
    apps = sorted({c.app for c in result.cells})
    for app in apps:
        row = [app]
        for hasher in result.hashers:
            rate = result.rate(app, hasher)
            row.append("-" if rate is None else f"{rate:.3f}")
        table.add_row(row)
    avg_row = ["AVERAGE"] + [f"{result.average_rate(h):.3f}" for h in result.hashers]
    table.add_row(avg_row)
    footer = (
        f"\nfastest hasher on average: {result.fastest_hasher()}"
        "\n(paper: t1ha0_avx2 fastest at ~32 GB/s native; the ordering "
        "vectorised/library >> word-at-a-time >> byte-at-a-time reproduces)"
    )
    return table.render() + footer
