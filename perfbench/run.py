"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each run builds its inputs from ``--seed`` in child processes that time the
program's set-up (``setup_s``), flushes writeback, then measures the
workload's timed region for ``--seconds`` in a fresh process that did not
generate the input (``scaled_ms``, ``peak_mb``).  ``scaled_ms`` is each
repetition's wall time scaled by a host-speed probe timed around it (see
``child.PROBE_REF_MS``), and ``setup_s`` is scaled the same way; the raw
wall times and probe times are printed and recorded beside them.  Every
repetition is checked against a reference analysis of the same input.
``--trace 1`` reports the per-layer numbers instead, from spans recorded
around each layer's public functions, and writes the spans of the last
traced repetition as JSON.

Results, with the host they were measured on, go to ``.perfbench_out/``;
scratch stores live under ``.perfbench_work/`` and are removed at exit.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import monotonic

from layers import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up repetitions whose median is ``setup_s``.  The first
#: ``SETUP_REPS_BEFORE`` run before the measurement and the rest after it,
#: so the median spans the whole run rather than its first seconds.
SETUP_REPS = 5
SETUP_REPS_BEFORE = 2
#: A run ends (killing its children) this long after it starts.
DEADLINE_S = 170.0

END_TO_END = {"scaled_ms": "ms", "peak_mb": "MB", "setup_s": "s"}
#: Printed and recorded beside the metrics, for reading the scaled times:
#: raw wall times of the repetitions and set-ups, and the probe's times.
RAW = {"wall_ms": "ms", "wall_setup_s": "s", "probe_ms": "ms"}


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def _run_child(args: list[str], deadline: float) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: the simulated kernels' NumPy calls would otherwise
    # race the measured process for the same cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"child {args[0]} ran out of time") from None
    finally:
        # The measuring child's pool workers share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise BenchError(f"child {args[0]} exited with status {code}")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _summarise(samples: dict[str, list[float]], units: dict[str, str]) -> dict:
    summary = {}
    for name, unit in units.items():
        values = samples[name]
        q1, median, q3 = _quartiles(values)
        summary[name] = {
            "value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values), "samples": values,
        }
    return summary


def _steal_ticks() -> int | None:
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_info() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Build, measure and summarise one workload; returns the result record."""
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    steal_before = _steal_ticks()
    builds: list[dict] = []

    def build(k: int) -> None:
        dest = work / ("store" if k == 0 else f"setup{k}")
        out = work / f"build{k}.json"
        flags = ["--reference"] if k == 0 else []
        os.sync()
        _run_child(["build", workload, str(seed), str(dest), str(out), *flags], deadline)
        builds.append(json.loads(out.read_text()))
        if k > 0:
            shutil.rmtree(dest, ignore_errors=True)

    reps = 1 if trace else SETUP_REPS
    try:
        for k in range(min(reps, SETUP_REPS_BEFORE)):
            build(k)
        (work / "reference.json").write_text(json.dumps(builds[0]["reference"]))
        os.sync()
        out = work / "measure.json"
        _run_child(
            ["measure", workload, str(seed), str(work), str(seconds), str(int(trace)), str(out)],
            deadline,
        )
        measured = json.loads(out.read_text())
        if not measured["wall_ms"] or (trace and not measured["traced_ms"]):
            raise BenchError(f"{workload}: every repetition failed: {measured['errors'][:1]}")
        for k in range(SETUP_REPS_BEFORE, reps):
            build(k)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal_after = _steal_ticks()

    samples: dict[str, list[float]]
    if trace:
        samples = dict(measured["layers"])
        untraced = statistics.median(measured["wall_ms"])
        traced = statistics.median(measured["traced_ms"])
        samples["trace.overhead_pct"] = [(traced / untraced - 1.0) * 100.0]
        units = PER_LAYER
    else:
        samples = {
            "scaled_ms": measured["scaled_ms"],
            "peak_mb": [measured["peak_mb"]],
            "setup_s": [b["setup_s"] for b in builds],
        }
        units = END_TO_END
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_info(),
        "steal_ticks": (
            steal_after - steal_before if None not in (steal_before, steal_after) else None
        ),
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "errors": measured["errors"],
        "metrics": _summarise(samples, units),
        "raw": _summarise(
            {**measured, "wall_setup_s": [b["wall_setup_s"] for b in builds]}, RAW
        ),
        "setup": builds,
    }
    results = ROOT / ".perfbench_out"
    results.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if trace and measured.get("spans") is not None:
        (results / f"{workload}-seed{seed}-spans.json").write_text(json.dumps(measured["spans"]))
    return record


def _print_table(record: dict) -> None:
    print(
        f"# {record['workload']} seed={record['seed']} attempted={record['attempted']} "
        f"failed={record['failed']} steal_ticks={record['steal_ticks']} host={json.dumps(record['host'])}"
    )
    rows = [*record["metrics"].items(), *((f"({name})", m) for name, m in record["raw"].items())]
    for name, m in rows:
        print(
            f"{record['workload']:<12} {name:<28} {m['value']:>14.4f} {m['unit']:<6}"
            f" q1={m['q1']:.4f} q3={m['q3']:.4f} n={m['n']}"
        )
    for error in record["errors"]:
        print(error, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so its children are killed and its
    # scratch stores removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    started = monotonic()
    records = []
    try:
        for name in names:
            deadline = started + DEADLINE_S * (len(records) + 1)
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace), deadline))
            _print_table(records[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for name, m in record["metrics"].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
