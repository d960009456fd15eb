"""Hostile-trace differential fuzzing: every transport × every engine.

The correctness spine of this reproduction is the differential oracle —
object oracle, one-batch streaming passes, multi-batch streaming,
process-engine and distributed analysis must agree bit for bit.  The
hypothesis suite holds that over *small* generated traces; this module
drives the same oracle over :mod:`repro.events.hostile` adversarial
traces, written out with
shard-boundary-hostile layouts (random cut sizes, spliced empty shards),
across every transport × engine combination:

========================  ===================================================
transport                 store layout analysed
========================  ===================================================
``local``                 hostile store in a scratch directory
``zip``                   the same store in a single ``.zip`` archive
``fake-object-store``     in-memory S3-like transport (claims copy+delete)
``s3``                    a real S3 endpoint — included automatically when
                          ``OMPDATAPERF_S3_TEST_ENDPOINT`` is set (MinIO in
                          CI); the distributed leg also backs its *queue*
                          on s3
========================  ===================================================

Each case derives entirely from one integer seed — including the
detectors' coalescing target for its multi-batch legs (every shard its own
fold, a few shards per fold, or the default) — so every failure is
reproducible with a single command printed next to it::

    PYTHONPATH=src python -m repro.cli fuzz --seed <case_seed> --cases 1 \\
        --events <max_events> --transports <kind> --engines <engine>

The nightly CI leg runs a date-derived seed sweep and uploads the JSON
report written by :func:`run_fuzz_sweep`; ``OMPDATAPERF_FUZZ_SEED`` /
``OMPDATAPERF_FUZZ_CASES`` override the sweep from the environment.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import traceback
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.core.analysis import analyze_stream, analyze_trace
from repro.core.detectors._streaming import FOLD_BATCH_EVENTS, fold_batch_target
from repro.core.distributed import DistributedEngine
from repro.core.engine import ENGINES, available_engines
from repro.events.hostile import make_hostile_trace, write_hostile_store
from repro.events.stream import as_event_stream
from repro.events.transport import FakeObjectStoreTransport
from repro.events.validation import validate_trace

#: Environment knobs the nightly leg honours.
SEED_ENV = "OMPDATAPERF_FUZZ_SEED"
CASES_ENV = "OMPDATAPERF_FUZZ_CASES"

#: A real S3 endpoint (MinIO) to include the ``s3`` transport in sweeps.
S3_ENDPOINT_ENV = "OMPDATAPERF_S3_TEST_ENDPOINT"

DEFAULT_CASES = 5
DEFAULT_MAX_EVENTS = 20_000

#: Above this event count the object-mode oracle leg is skipped (it
#: materialises per-event dataclasses; the one-batch baseline stands in).
DEFAULT_ORACLE_LIMIT = 60_000

BASE_TRANSPORTS = ("local", "zip", "fake-object-store")
ALL_ENGINES = ("serial", "process", "distributed")

#: The report fields the differential oracle holds bit-identical.
REPORT_FIELDS = (
    "counts",
    "potential",
    "duplicate_groups",
    "round_trip_groups",
    "repeated_alloc_groups",
    "unused_allocations",
    "unused_transfers",
)


def default_transports() -> tuple[str, ...]:
    """The sweep's transports: the three local kinds, plus ``s3`` when a
    test endpoint is configured."""
    if os.environ.get(S3_ENDPOINT_ENV):
        return BASE_TRANSPORTS + ("s3",)
    return BASE_TRANSPORTS


def diff_reports(expected, actual) -> list[str]:
    """Names of the report fields on which two analysis reports disagree."""
    return [
        name
        for name in REPORT_FIELDS
        if getattr(expected, name) != getattr(actual, name)
    ]


@dataclass(frozen=True)
class FuzzCase:
    """One seeded fuzz case; every parameter derives from ``seed`` alone."""

    seed: int
    num_events: int
    min_shard_events: int
    max_shard_events: int
    #: the detectors' coalescing target for the multi-batch legs: every
    #: shard its own fold (1), a few shards per fold, or the default
    fold_batch_events: int

    @classmethod
    def derive(cls, seed: int, max_events: int) -> "FuzzCase":
        rng = np.random.default_rng(seed)
        num_events = int(rng.integers(max(200, max_events // 4), max_events + 1))
        lo = int(rng.integers(16, 256))
        hi = int(rng.integers(2 * lo, max(2 * lo + 1, min(8192, num_events) + 1)))
        # the regime cycles with the seed, so any three consecutive cases
        # cover all three (seeds 0 and 1: per shard and a small target)
        small = int(rng.integers(lo, max(lo, min(4 * hi, num_events // 2)) + 1))
        fold = (1, small, FOLD_BATCH_EVENTS)[seed % 3]
        return cls(
            seed=seed,
            num_events=num_events,
            min_shard_events=lo,
            max_shard_events=hi,
            fold_batch_events=fold,
        )


def derive_cases(base_seed: int, cases: int, max_events: int) -> list[FuzzCase]:
    """Case seeds are ``base_seed + index``: reproducing case *i* of a sweep
    needs only its own seed (``--seed base+i --cases 1``)."""
    return [FuzzCase.derive(base_seed + i, max_events) for i in range(cases)]


@dataclass
class FuzzFailure:
    """One differential mismatch (or crash) with its reproduction command."""

    seed: int
    max_events: int
    transport: str
    engine: str
    stage: str
    message: str
    repro: str

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class FuzzReport:
    """The sweep summary :func:`run_fuzz_sweep` returns (and writes as JSON)."""

    seed: int
    cases: int
    max_events: int
    transports: tuple[str, ...]
    engines: tuple[str, ...]
    combos_checked: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "max_events": self.max_events,
            "transports": list(self.transports),
            "engines": list(self.engines),
            "combos_checked": self.combos_checked,
            "num_failures": len(self.failures),
            "failures": [f.to_dict() for f in self.failures],
        }


def repro_command(
    seed: int, max_events: int, transport: str = "", engine: str = ""
) -> str:
    """The one command that replays a failing case exactly."""
    cmd = (
        f"PYTHONPATH=src python -m repro.cli fuzz --seed {seed} "
        f"--cases 1 --events {max_events}"
    )
    if transport:
        cmd += f" --transports {transport}"
    if engine:
        cmd += f" --engines {engine}"
    return cmd


def _open_s3_transport(prefix: str, *, create: bool):
    from repro.events.transport_s3 import S3ObjectStoreTransport

    endpoint: Optional[str] = os.environ[S3_ENDPOINT_ENV]
    if endpoint == "moto":
        # In-process moto mock: requests must go to the default AWS
        # endpoint (which moto patches), not a real URL.
        endpoint = None
    bucket = os.environ.get("OMPDATAPERF_S3_TEST_BUCKET", "ompdataperf-fuzz")
    return S3ObjectStoreTransport(
        bucket, prefix, endpoint_url=endpoint, create=create
    )


def _store_destination(kind: str, scratch: Path, run_id: str, case_seed: int):
    if kind == "local":
        return scratch / "store"
    if kind == "zip":
        return scratch / "store.zip"
    if kind == "fake-object-store":
        return FakeObjectStoreTransport()
    if kind == "s3":
        return _open_s3_transport(f"fuzz/{run_id}/case-{case_seed}/store", create=True)
    raise ValueError(f"unknown fuzz transport kind {kind!r}")


def check_engines(engines) -> None:
    """Raise ``ValueError`` naming the valid engines if any is unknown."""
    unknown = [engine for engine in engines if engine not in ENGINES]
    if unknown:
        raise ValueError(
            f"unknown engine(s) {', '.join(unknown)}; "
            f"available: {', '.join(available_engines())}"
        )


def _engine_for(kind: str, engine: str, run_id: str, case_seed: int):
    """Resolve the engine argument for one transport × engine combo.

    The distributed leg backs its task queue on the same *class* of
    storage as the store: an in-memory object store gets an object-store
    queue (claims exercise copy-then-delete), the s3 transport gets an
    s3 queue under its own prefix, and the file-backed kinds let the
    engine spawn its usual scratch directory queue.
    """
    if engine != "distributed":
        return engine
    queue = None
    if kind == "fake-object-store":
        queue = FakeObjectStoreTransport()
    elif kind == "s3":
        queue = _open_s3_transport(
            f"fuzz/{run_id}/case-{case_seed}/queue", create=True
        )
    return DistributedEngine(
        queue=queue,
        workers=2,
        worker_mode="thread",
        poll_interval=0.01,
        run_timeout=300.0,
    )


def run_fuzz_sweep(
    *,
    seed: int,
    cases: int = DEFAULT_CASES,
    max_events: int = DEFAULT_MAX_EVENTS,
    transports: Optional[tuple[str, ...]] = None,
    engines: tuple[str, ...] = ALL_ENGINES,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
    report_path: Optional[str | Path] = None,
    say: Callable[[str], None] = print,
) -> FuzzReport:
    """Run the five-way differential oracle over hostile traces.

    For each seeded case: generate an adversarial trace, validate it,
    establish the baseline by analysing the columnar trace as one batch
    (cross-checked against the object-mode oracle when small enough),
    check the in-memory streaming leg, then write the trace as a
    shard-boundary-hostile store on every transport and compare every
    engine's analysis against the baseline.  The streaming and engine
    legs validate in their scan (``validate=True``), so the validation
    guard's group sweep sees every hostile layout on every engine; a
    hostile trace is valid, so any validation error is a failure.  Mismatches
    and crashes are recorded with the single command that reproduces them.
    """
    transports = tuple(transports) if transports else default_transports()
    engines = tuple(engines)
    check_engines(engines)
    run_id = uuid.uuid4().hex[:8]
    report = FuzzReport(
        seed=seed,
        cases=cases,
        max_events=max_events,
        transports=transports,
        engines=engines,
    )

    def fail(
        case: FuzzCase, transport: str, engine: str, stage: str, message: str
    ) -> None:
        failure = FuzzFailure(
            seed=case.seed,
            max_events=max_events,
            transport=transport,
            engine=engine,
            stage=stage,
            message=message,
            repro=repro_command(case.seed, max_events, transport, engine),
        )
        report.failures.append(failure)
        say(f"FAIL [{stage}] seed={case.seed}: {message}")
        say(f"  reproduce with: {failure.repro}")

    for case in derive_cases(seed, cases, max_events):
        say(
            f"case seed={case.seed}: {case.num_events} events, "
            f"shard cuts {case.min_shard_events}..{case.max_shard_events}, "
            f"fold target {case.fold_batch_events}"
        )
        try:
            trace = make_hostile_trace(case.num_events, seed=case.seed)
            validate_trace(trace)
            baseline = analyze_trace(trace)
        except Exception:
            fail(case, "", "", "generate", traceback.format_exc(limit=3))
            continue

        if case.num_events <= oracle_limit:
            try:
                mismatch = diff_reports(analyze_trace(trace.to_trace()), baseline)
                if mismatch:
                    fail(
                        case, "", "", "object-oracle",
                        f"one-batch passes disagree with object oracle on {mismatch}",
                    )
            except Exception:
                fail(case, "", "", "object-oracle", traceback.format_exc(limit=3))
        else:
            say(f"  (object oracle skipped above {oracle_limit} events)")

        # the target is process-wide: the forked process workers and the
        # distributed leg's worker threads fold at it too
        with fold_batch_target(case.fold_batch_events):
            try:
                stream = as_event_stream(trace, case.min_shard_events)
                mismatch = diff_reports(baseline, analyze_stream(stream, validate=True))
                if mismatch:
                    fail(case, "", "", "streaming", f"streaming differs on {mismatch}")
            except Exception:
                fail(case, "", "", "streaming", traceback.format_exc(limit=3))

            for kind in transports:
                scratch = Path(tempfile.mkdtemp(prefix="ompdataperf-fuzz-"))
                try:
                    try:
                        store = write_hostile_store(
                            trace,
                            _store_destination(kind, scratch, run_id, case.seed),
                            seed=case.seed,
                            min_shard_events=case.min_shard_events,
                            max_shard_events=case.max_shard_events,
                        )
                    except Exception:
                        fail(case, kind, "", f"{kind}:write", traceback.format_exc(limit=3))
                        continue
                    for engine in engines:
                        stage = f"{kind}:{engine}"
                        try:
                            resolved = _engine_for(kind, engine, run_id, case.seed)
                            result = analyze_stream(
                                store, engine=resolved, jobs=2, validate=True
                            )
                            mismatch = diff_reports(baseline, result)
                            if mismatch:
                                fail(
                                    case, kind, engine, stage,
                                    f"analysis differs on {mismatch}",
                                )
                            report.combos_checked += 1
                        except Exception:
                            fail(case, kind, engine, stage, traceback.format_exc(limit=3))
                finally:
                    shutil.rmtree(scratch, ignore_errors=True)

    if report_path is not None:
        path = Path(report_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        say(f"fuzz report written to {path}")
    verdict = "OK" if report.ok else f"{len(report.failures)} FAILURE(S)"
    say(
        f"fuzz sweep {verdict}: {report.cases} case(s), "
        f"{report.combos_checked} transport×engine combo(s) checked"
    )
    return report
