"""The fuzz harness: clean sweeps, failure reporting, seed reproduction.

The sweep itself is correctness infrastructure, so these tests check the
harness rather than the detectors: a small sweep over real transports and
engines comes back clean, an injected analyser defect is caught, recorded
in the JSON report, and annotated with the exact one-command reproduction,
and the CLI entry point wires the knobs through (including the
``OMPDATAPERF_FUZZ_SEED`` / ``OMPDATAPERF_FUZZ_CASES`` environment
defaults the nightly leg uses).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import fuzz
from repro.core.detectors import _streaming
from repro.core.fuzz import (
    FuzzCase,
    derive_cases,
    diff_reports,
    repro_command,
    run_fuzz_sweep,
)

pytestmark = pytest.mark.slow


def test_case_derivation_is_deterministic_and_self_contained():
    sweep = derive_cases(100, 3, 5000)
    assert [c.seed for c in sweep] == [100, 101, 102]
    # Reproducing case i needs only its own seed: deriving a 1-case sweep
    # from that seed yields the identical case.
    assert derive_cases(101, 1, 5000)[0] == sweep[1]
    assert FuzzCase.derive(101, 5000) == sweep[1]


def test_each_case_runs_its_seed_derived_fold_target(monkeypatch):
    """The multi-batch legs fold at the case's coalescing target — every
    shard alone, a few shards per fold, or the default — so ``--seed``
    replays a coalescing failure too."""
    targets = {c.fold_batch_events for c in derive_cases(0, 30, 5000)}
    assert 1 in targets and _streaming.FOLD_BATCH_EVENTS in targets
    assert any(1 < t < _streaming.FOLD_BATCH_EVENTS for t in targets)

    real = fuzz.analyze_stream
    seen: list[int] = []

    def recording(stream, **kwargs):
        seen.append(_streaming.FOLD_BATCH_EVENTS)
        return real(stream, **kwargs)

    monkeypatch.setattr(fuzz, "analyze_stream", recording)
    default = _streaming.FOLD_BATCH_EVENTS
    case = next(c for c in derive_cases(0, 30, 1200) if 1 < c.fold_batch_events < default)
    report = run_fuzz_sweep(
        seed=case.seed,
        cases=1,
        max_events=1200,
        transports=("local",),
        engines=("serial",),
        say=lambda _line: None,
    )
    assert report.ok
    assert seen == [case.fold_batch_events] * 2  # the stream and store legs
    assert _streaming.FOLD_BATCH_EVENTS == default


def test_small_sweep_is_clean(tmp_path):
    report = run_fuzz_sweep(
        seed=17,
        cases=1,
        max_events=1500,
        transports=("local", "fake-object-store"),
        engines=("serial", "process"),
        report_path=tmp_path / "report.json",
        say=lambda _line: None,
    )
    assert report.ok
    assert report.combos_checked == 4
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["num_failures"] == 0
    assert saved["combos_checked"] == 4
    assert saved["seed"] == 17


def test_injected_defect_is_caught_with_repro_command(tmp_path, monkeypatch):
    """Break one engine leg on purpose: the sweep must catch the mismatch
    and print the single command that replays the failing case."""
    real = fuzz.analyze_stream

    def broken(stream, *, engine="serial", jobs=1, **kwargs):
        report = real(stream, engine=engine, jobs=jobs, **kwargs)
        if engine == "process":
            report.counts = type(report.counts)()  # zeroed: a wrong answer
        return report

    monkeypatch.setattr(fuzz, "analyze_stream", broken)
    lines: list[str] = []
    report = run_fuzz_sweep(
        seed=23,
        cases=1,
        max_events=1200,
        transports=("local",),
        engines=("serial", "process"),
        report_path=tmp_path / "report.json",
        say=lines.append,
    )
    assert not report.ok
    (failure,) = [f for f in report.failures if f.engine == "process"]
    assert failure.stage == "local:process"
    assert "counts" in failure.message
    expected = repro_command(23, 1200, "local", "process")
    assert failure.repro == expected
    assert "--seed 23" in expected and "--cases 1" in expected
    # The repro command is printed right next to the failure ...
    assert any(expected in line for line in lines)
    # ... and lands in the JSON artifact the nightly leg uploads.
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["failures"][0]["repro"] == expected


def test_crash_in_a_leg_is_a_failure_not_an_abort(monkeypatch):
    def exploding(stream, *, engine="serial", jobs=1, **kwargs):
        raise RuntimeError("injected analyser crash")

    monkeypatch.setattr(fuzz, "analyze_stream", exploding)
    report = run_fuzz_sweep(
        seed=5,
        cases=1,
        max_events=800,
        transports=("local",),
        engines=("serial",),
        say=lambda _line: None,
    )
    # streaming leg + the one combo leg both fail; the sweep still returns.
    assert not report.ok
    assert all("injected analyser crash" in f.message for f in report.failures)


def test_diff_reports_spots_every_field():
    from repro.core.analysis import analyze_trace
    from repro.events.hostile import make_hostile_trace

    trace = make_hostile_trace(1000, seed=4)
    a = analyze_trace(trace)
    b = analyze_trace(trace)
    assert diff_reports(a, b) == []
    b.counts = type(b.counts)()
    assert "counts" in diff_reports(a, b)


def test_cli_fuzz_subcommand(tmp_path, capsys):
    rc = main([
        "fuzz",
        "--seed", "31",
        "--cases", "1",
        "--events", "1000",
        "--transports", "local",
        "--engines", "serial",
        "--report", str(tmp_path / "r.json"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fuzz sweep OK" in out
    saved = json.loads((tmp_path / "r.json").read_text())
    assert saved["seed"] == 31
    assert saved["transports"] == ["local"]


def test_cli_fuzz_env_defaults(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(fuzz.SEED_ENV, "77")
    monkeypatch.setenv(fuzz.CASES_ENV, "1")
    rc = main([
        "fuzz",
        "--events", "800",
        "--transports", "local",
        "--engines", "serial",
        "--report", str(tmp_path / "r.json"),
    ])
    assert rc == 0
    saved = json.loads((tmp_path / "r.json").read_text())
    assert saved["seed"] == 77
    assert saved["cases"] == 1


def test_s3_transport_joins_sweep_under_moto(monkeypatch):
    pytest.importorskip("boto3")
    moto = pytest.importorskip("moto")
    for var in ("AWS_ACCESS_KEY_ID", "AWS_SECRET_ACCESS_KEY"):
        monkeypatch.setenv(var, "testing")
    monkeypatch.setenv("AWS_DEFAULT_REGION", "us-east-1")
    monkeypatch.delenv("OMPDATAPERF_S3_ENDPOINT", raising=False)
    # The moto sentinel: include s3 but talk to the in-process mock (the
    # process engine is excluded — moto cannot cross a process boundary).
    monkeypatch.setenv(fuzz.S3_ENDPOINT_ENV, "moto")
    assert fuzz.default_transports()[-1] == "s3"
    with moto.mock_aws():
        report = run_fuzz_sweep(
            seed=13,
            cases=1,
            max_events=1200,
            transports=("s3",),
            engines=("serial", "distributed"),
            say=lambda _line: None,
        )
    assert report.ok
    assert report.combos_checked == 2
