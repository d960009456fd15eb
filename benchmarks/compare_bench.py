#!/usr/bin/env python3
"""Compare BENCH_*.json throughput records across two runs.

Every benchmark in this repo writes a machine-readable ``BENCH_*.json``
record containing one or more ``events_per_sec`` measurements (nested at
arbitrary depth).  This script pairs the records of a *baseline* run (the
previous successful CI run, or any saved snapshot) with the records of the
*current* run by file name, extracts every ``events_per_sec`` metric by
its dotted path, and fails when any metric regressed by more than the
tolerance band::

    python benchmarks/compare_bench.py --baseline prev/ --current .
    python benchmarks/compare_bench.py --baseline prev/ --current . --tolerance 0.25

Exit status: ``0`` when every paired metric is within tolerance, ``1``
when at least one metric regressed, ``2`` on usage errors, and ``3`` —
a distinct *neutral* status — when there is no baseline to compare
against (the first run of a workflow, or a previous run that published
no records).  CI maps ``3`` to a pass-with-notice; keeping it distinct
from ``0`` means a gate that silently never compares anything (a broken
artifact download, a path typo) cannot masquerade as "all metrics within
tolerance".

Shared CI runners are noisy, so the default tolerance is generous (25%);
the point is catching order-of-magnitude cliffs (an accidentally
quadratic path, a lost fast path) rather than chasing single-digit noise.
Metrics present only in the baseline (a renamed or removed benchmark) are
reported but never fail the comparison; metrics present only in the
current run are new and pass by definition.

Besides throughput, engine records carry a per-task overhead breakdown
(``overhead_seconds`` inside each ``overhead`` block — spawn + store open
+ shard map).  These are compared with the *opposite*
direction (lower is better) under the same tolerance.  Baselines written
before the overhead fields existed simply contribute no overhead
metrics, so comparisons against old snapshots stay green.

Streaming records additionally carry ``ratio_vs_in_memory`` leaves (how
close reading from disk comes to the in-memory scan).  These are gated higher-is-better
like throughput.  Baselines recorded before the shard-format change have
no ratio leaves and pass neutrally, same as the overhead metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Metric leaves compared between runs (higher is better).
METRIC_KEY = "events_per_sec"

#: Overhead leaves compared between runs (lower is better); absent from
#: records written before the warm-pool engine landed.
OVERHEAD_KEY = "overhead_seconds"

#: Streaming closeness-to-memory leaves (higher is better); absent from
#: records written before the flat shard format landed.
RATIO_KEY = "ratio_vs_in_memory"

DEFAULT_TOLERANCE = 0.25

#: Neutral exit status: nothing to compare against (NOT a pass — the
#: caller decides; CI converts it into a pass-with-notice).
EXIT_NO_BASELINE = 3


def extract_leaves(record, leaf_key: str, prefix: str = "") -> dict[str, float]:
    """Every numeric ``leaf_key`` leaf in a record, keyed by dotted path."""
    out: dict[str, float] = {}
    if isinstance(record, dict):
        for key, value in record.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if key == leaf_key and isinstance(value, (int, float)):
                out[path] = float(value)
            else:
                out.update(extract_leaves(value, leaf_key, path))
    elif isinstance(record, list):
        for index, value in enumerate(record):
            out.update(extract_leaves(value, leaf_key, f"{prefix}[{index}]"))
    return out


def extract_metrics(record, prefix: str = "") -> dict[str, float]:
    return extract_leaves(record, METRIC_KEY, prefix)


def extract_overheads(record, prefix: str = "") -> dict[str, float]:
    return extract_leaves(record, OVERHEAD_KEY, prefix)


def extract_ratios(record, prefix: str = "") -> dict[str, float]:
    return extract_leaves(record, RATIO_KEY, prefix)


def load_bench_files(
    directory: Path, extract=extract_metrics
) -> dict[str, dict[str, float]]:
    """``{file name: {metric path: value}}`` for every BENCH_*.json present."""
    out: dict[str, dict[str, float]] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping unreadable {path}: {exc}", file=sys.stderr)
            continue
        out[path.name] = extract(record)
    return out


def compare(
    baseline: dict[str, dict[str, float]],
    current: dict[str, dict[str, float]],
    tolerance: float,
    *,
    unit: str = "events/s",
    fmt: str = "{:,.0f}",
) -> list[str]:
    """Return one message per regressed metric (empty = within tolerance)."""
    regressions: list[str] = []
    for name, base_metrics in sorted(baseline.items()):
        cur_metrics = current.get(name)
        if cur_metrics is None:
            print(f"note: {name}: present in baseline only (benchmark removed?)")
            continue
        for path, base_value in sorted(base_metrics.items()):
            cur_value = cur_metrics.get(path)
            if cur_value is None:
                print(f"note: {name}: {path} present in baseline only")
                continue
            if base_value <= 0:
                continue  # a zero/negative baseline rate carries no signal
            ratio = cur_value / base_value
            status = "ok"
            if ratio < 1.0 - tolerance:
                status = "REGRESSION"
                regressions.append(
                    f"{name}: {path} fell to {ratio:.2f}x of baseline "
                    f"({fmt.format(base_value)} -> {fmt.format(cur_value)} {unit}, "
                    f"tolerance {1.0 - tolerance:.2f}x)"
                )
            print(
                f"{status:>10}  {name}  {path}  "
                f"{fmt.format(base_value):>14} -> {fmt.format(cur_value):>14}  "
                f"({ratio:.2f}x)"
            )
    for name in sorted(set(current) - set(baseline)):
        print(f"note: {name}: new benchmark (no baseline), passing")
    return regressions


def compare_overheads(
    baseline: dict[str, dict[str, float]],
    current: dict[str, dict[str, float]],
    tolerance: float,
) -> list[str]:
    """Lower-is-better twin of :func:`compare` for overhead seconds.

    Old baselines have no overhead leaves: every current metric is then
    "new" and passes, so the gate degrades gracefully across the format
    change.
    """
    regressions: list[str] = []
    for name, base_metrics in sorted(baseline.items()):
        cur_metrics = current.get(name, {})
        for path, base_value in sorted(base_metrics.items()):
            cur_value = cur_metrics.get(path)
            if cur_value is None:
                print(f"note: {name}: {path} present in baseline only")
                continue
            if base_value <= 0:
                continue  # a warm run's zero overhead carries no ratio
            ratio = cur_value / base_value
            status = "ok"
            if ratio > 1.0 + tolerance:
                status = "REGRESSION"
                regressions.append(
                    f"{name}: {path} grew to {ratio:.2f}x of baseline "
                    f"({base_value:.4f}s -> {cur_value:.4f}s overhead, "
                    f"tolerance {1.0 + tolerance:.2f}x)"
                )
            print(
                f"{status:>10}  {name}  {path}  "
                f"{base_value:>10.4f}s -> {cur_value:>10.4f}s  ({ratio:.2f}x)"
            )
        new_paths = sorted(set(cur_metrics) - set(base_metrics))
        if new_paths:
            print(
                f"note: {name}: {len(new_paths)} overhead metric(s) without "
                f"a baseline (older record format), passing"
            )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when any BENCH_*.json events_per_sec metric "
        "regressed past the tolerance band."
    )
    parser.add_argument(
        "--baseline", required=True, metavar="DIR",
        help="directory holding the baseline BENCH_*.json records",
    )
    parser.add_argument(
        "--current", required=True, metavar="DIR",
        help="directory holding the current run's BENCH_*.json records",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE, metavar="FRACTION",
        help="allowed fractional slowdown before failing "
        f"(default: {DEFAULT_TOLERANCE:.2f} = fail below "
        f"{1 - DEFAULT_TOLERANCE:.0%} of baseline)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")

    baseline_dir, current_dir = Path(args.baseline), Path(args.current)
    if not current_dir.is_dir():
        parser.error(f"{current_dir}: no such directory")
    current = load_bench_files(current_dir)
    if not current:
        print(f"warning: no BENCH_*.json records under {current_dir}", file=sys.stderr)

    if not baseline_dir.is_dir():
        print(
            f"note: no baseline directory at {baseline_dir}; "
            f"nothing to compare (neutral)"
        )
        return EXIT_NO_BASELINE
    baseline = load_bench_files(baseline_dir)
    if not baseline:
        print(
            f"note: no baseline records under {baseline_dir}; "
            f"nothing to compare (neutral)"
        )
        return EXIT_NO_BASELINE

    regressions = compare(baseline, current, args.tolerance)
    regressions += compare_overheads(
        load_bench_files(baseline_dir, extract_overheads),
        load_bench_files(current_dir, extract_overheads),
        args.tolerance,
    )
    # Closeness-to-memory ratios: drop files without ratio leaves so a
    # pre-format baseline contributes nothing (graceful pass) instead of
    # a wall of present-in-current-only notes.
    regressions += compare(
        {k: v for k, v in load_bench_files(
            baseline_dir, extract_ratios).items() if v},
        {k: v for k, v in load_bench_files(
            current_dir, extract_ratios).items() if v},
        args.tolerance,
        unit="x in-memory",
        fmt="{:.3f}",
    )
    if regressions:
        print(f"\n{len(regressions)} benchmark regression(s):", file=sys.stderr)
        for message in regressions:
            print(f"  {message}", file=sys.stderr)
        return 1
    print("\nall benchmark metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
