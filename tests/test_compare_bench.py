"""Tests for benchmarks/compare_bench.py (the CI regression gate).

The script is imported by path (the benchmarks directory is not a
package) and exercised against synthetic BENCH fixtures: a >25% throughput
drop must exit nonzero, within-tolerance noise and missing baselines must
pass.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "compare_bench.py"
_spec = importlib.util.spec_from_file_location("compare_bench", _SCRIPT)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)


def _write_bench(directory: Path, name: str, rate: float, nested_rate: float) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    record = {
        "benchmark": name,
        "aggregate": {"events_per_sec": rate, "seconds": 1.0},
        "engines": {
            "process": {"4": {"events_per_sec": nested_rate, "speedup_vs_serial": 2.0}}
        },
    }
    (directory / f"BENCH_{name}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8"
    )


def test_extract_metrics_walks_nested_records():
    metrics = compare_bench.extract_metrics(
        {
            "events_per_sec": 10.0,
            "detectors": {"dup": {"events_per_sec": 5.0, "seconds": 2.0}},
            "sweep": [{"events_per_sec": 1.0}, {"other": 3}],
        }
    )
    assert metrics == {
        "events_per_sec": 10.0,
        "detectors.dup.events_per_sec": 5.0,
        "sweep[0].events_per_sec": 1.0,
    }


def test_synthetic_regression_fails(tmp_path, capsys):
    """The acceptance fixture: a 25%+ drop in events_per_sec exits nonzero."""
    _write_bench(tmp_path / "base", "detectors", 1_000_000.0, 2_000_000.0)
    _write_bench(tmp_path / "cur", "detectors", 700_000.0, 2_000_000.0)  # -30%
    rc = compare_bench.main(
        ["--baseline", str(tmp_path / "base"), "--current", str(tmp_path / "cur")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "regression" in err
    assert "aggregate.events_per_sec" in err


def test_within_tolerance_passes(tmp_path, capsys):
    _write_bench(tmp_path / "base", "detectors", 1_000_000.0, 2_000_000.0)
    _write_bench(tmp_path / "cur", "detectors", 800_000.0, 1_900_000.0)  # -20%, -5%
    rc = compare_bench.main(
        ["--baseline", str(tmp_path / "base"), "--current", str(tmp_path / "cur")]
    )
    assert rc == 0
    assert "within tolerance" in capsys.readouterr().out


def test_improvement_passes(tmp_path):
    _write_bench(tmp_path / "base", "engine", 1_000_000.0, 1_000_000.0)
    _write_bench(tmp_path / "cur", "engine", 3_000_000.0, 5_000_000.0)
    assert compare_bench.main(
        ["--baseline", str(tmp_path / "base"), "--current", str(tmp_path / "cur")]
    ) == 0


def test_missing_baseline_is_neutral_not_pass(tmp_path, capsys):
    """No baseline exits with the DISTINCT neutral status (3), never 0:
    CI maps it to pass-with-notice, so a gate that never actually
    compared anything cannot read as 'all metrics within tolerance'."""
    _write_bench(tmp_path / "cur", "detectors", 1_000_000.0, 1.0)
    rc = compare_bench.main(
        ["--baseline", str(tmp_path / "nope"), "--current", str(tmp_path / "cur")]
    )
    assert rc == compare_bench.EXIT_NO_BASELINE == 3
    assert "neutral" in capsys.readouterr().out


def test_empty_baseline_dir_is_neutral(tmp_path, capsys):
    (tmp_path / "base").mkdir()
    _write_bench(tmp_path / "cur", "detectors", 1_000_000.0, 1.0)
    rc = compare_bench.main(
        ["--baseline", str(tmp_path / "base"), "--current", str(tmp_path / "cur")]
    )
    assert rc == compare_bench.EXIT_NO_BASELINE
    assert "no baseline records" in capsys.readouterr().out


def test_neutral_status_distinct_from_regression_and_ok():
    assert compare_bench.EXIT_NO_BASELINE not in (0, 1, 2)


def test_new_and_removed_benchmarks_never_fail(tmp_path, capsys):
    _write_bench(tmp_path / "base", "old", 1_000_000.0, 1.0)
    _write_bench(tmp_path / "cur", "brand_new", 10.0, 10.0)
    rc = compare_bench.main(
        ["--baseline", str(tmp_path / "base"), "--current", str(tmp_path / "cur")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "baseline only" in out and "new benchmark" in out


def test_tighter_tolerance_catches_smaller_drops(tmp_path):
    _write_bench(tmp_path / "base", "detectors", 1_000_000.0, 1_000_000.0)
    _write_bench(tmp_path / "cur", "detectors", 850_000.0, 1_000_000.0)  # -15%
    args = ["--baseline", str(tmp_path / "base"), "--current", str(tmp_path / "cur")]
    assert compare_bench.main(args) == 0
    assert compare_bench.main(args + ["--tolerance", "0.10"]) == 1


def test_bad_tolerance_rejected(tmp_path):
    with pytest.raises(SystemExit):
        compare_bench.main(
            ["--baseline", ".", "--current", ".", "--tolerance", "1.5"]
        )


def test_new_stats_fields_are_neutral_against_old_baselines(tmp_path, capsys):
    """A baseline written before the distributed stats block grew
    (speculative_launches, debris_blobs, peak_unmerged_chains, hints)
    compares clean against a current record that has them: the new
    leaves exist only on the current side, which is never a failure."""
    base, cur = tmp_path / "base", tmp_path / "cur"
    _write_bench(base, "engine", 1_000_000.0, 1.0)
    _write_bench(cur, "engine", 1_000_000.0, 1.0)
    record = json.loads((cur / "BENCH_engine.json").read_text())
    record["engines"]["distributed"] = {
        "2": {
            "events_per_sec": 5.0,
            "speculative_launches": 0,
            "debris_blobs": 0,
            "peak_unmerged_chains": 1,
            "hints": {"suggested_worker_delta": 0, "pending": 0},
        }
    }
    (cur / "BENCH_engine.json").write_text(json.dumps(record), encoding="utf-8")
    rc = compare_bench.main(
        ["--baseline", str(base), "--current", str(cur)]
    )
    assert rc == 0
    # And symmetrically: an old current against a new baseline stays ok.
    rc = compare_bench.main(
        ["--baseline", str(cur), "--current", str(base)]
    )
    assert rc == 0
