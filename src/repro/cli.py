"""Command-line interface, mirroring the artifact's ``ompdataperf`` usage.

The real tool wraps a native binary (``ompdataperf ./prog args``); in this
reproduction the "programs" are the registered simulated applications, so
the CLI takes an application name plus options::

    ompdataperf bfs --size small                 # analyze the baseline
    ompdataperf bfs --size small --variant fixed # analyze the fixed version
    ompdataperf --list                           # list available programs
    ompdataperf --experiments table1 fig2        # regenerate paper tables
    ompdataperf --experiments --jobs 4           # ... on four worker threads
    ompdataperf bfs --trace-out bfs.json         # save the raw trace
    ompdataperf bfs --stream --trace-out b.store # bounded-memory sharded run
    ompdataperf trace convert bfs.json bfs.npz   # JSON <-> binary columnar
    ompdataperf trace shard bfs.npz bfs.store    # cut into a sharded store
    ompdataperf trace merge bfs.store bfs.npz    # merge a store into one compressed file
    ompdataperf trace info bfs.store             # summarise without loading
    ompdataperf trace compact bfs.store          # re-shard a store in place
    ompdataperf trace compact bfs.store --retain-max-age 5.0   # drop old events
    ompdataperf trace shard bfs.npz bfs.zip      # single-file zip-archived store
    ompdataperf bfs --stream --engine process --jobs 4   # four pass groups on four workers
    ompdataperf bfs --stream --engine distributed --jobs 4   # loopback cluster
    ompdataperf worker --queue run.queue         # join a distributed run
    ompdataperf bfs --stream --engine distributed:queue=run.queue --jobs 4
    ompdataperf bfs --stream --engine distributed:lease_timeout=10,run_timeout=300
    ompdataperf queue status run.queue           # inspect a live run's queue

``--engine`` takes an engine spec string: a registry name optionally
followed by ``:key=value,...`` engine options (the per-engine option
tables live on each engine class's ``config_options``).
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Optional, Sequence

from repro._version import __version__
from repro.apps.base import AppVariant, ProblemSize
from repro.apps.registry import all_apps, get_app
from repro.core.distributed import DistributedExecutionError
from repro.core.engine import (
    EngineConfig,
    available_engines,
    resolve_engine,
)
from repro.core.profiler import OMPDataPerf
from repro.events.columnar import as_columnar, as_object_trace, load_trace
from repro.events.store import (
    RETAINABLE_KINDS,
    RetentionPolicy,
    ShardedTraceStore,
    shard_trace,
)
from repro.events.stream import DEFAULT_SHARD_EVENTS
from repro.experiments.runner import available_experiments, run_experiments


def positive_int(text: str) -> int:
    """Argparse type for counts that must be at least 1.

    Range errors surface at parse time with a uniform message instead of
    as ``ValueError`` from deep inside the analysis layers.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def nonnegative_number(text: str) -> float:
    """Argparse type for limits that must be zero or more (the --retain-* flags)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {text!r}")
    return value


def positive_number(text: str) -> float:
    """Argparse type for durations that must be strictly positive."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ompdataperf",
        description="Detect inefficient data mapping patterns in (simulated) OpenMP offload programs.",
    )
    parser.add_argument("program", nargs="?", help="registered application name (see --list)")
    parser.add_argument("--size", default="medium",
                        help="problem size: small, medium or large (default: medium)")
    parser.add_argument("--variant", default="baseline",
                        help="application variant: baseline, fixed or synthetic")
    parser.add_argument("--hasher", default=None,
                        help="content hash to use (see repro.hashing.available_hashers)")
    parser.add_argument("--audit-collisions", action="store_true",
                        help="store payload copies and verify the hash is collision-free")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the recorded trace as JSON to PATH")
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress warnings")
    parser.add_argument("-v", "--verbose", action="store_true", help="enable verbose output")
    parser.add_argument("--list", action="store_true", help="list registered applications")
    parser.add_argument("--experiments", nargs="*", metavar="KEY",
                        help="regenerate paper tables/figures (no KEY = all); "
                             f"available: {', '.join(available_experiments())}")
    parser.add_argument("--quick", action="store_true",
                        help="with --experiments: restrict sweeps to the small problem size")
    parser.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                        help="with --experiments: run independent experiments on N worker "
                             "threads; with --stream: number of pass groups (one worker "
                             "each) for the process and distributed engines, which serial "
                             "ignores (default: 1; output is identical regardless of N)")
    parser.add_argument("--stream", action="store_true",
                        help="record into an on-disk sharded store (O(shard) ingest memory) "
                             "and analyze it with the incremental streaming detectors; "
                             "--trace-out names the store directory (default: a temp dir)")
    parser.add_argument("--shard-events", type=positive_int, default=DEFAULT_SHARD_EVENTS,
                        metavar="N",
                        help=f"with --stream: events per shard (default: {DEFAULT_SHARD_EVENTS})")
    parser.add_argument("--engine", default="serial", metavar="SPEC",
                        help="with --stream: execution engine for the detector passes — "
                             f"one of {', '.join(available_engines())}, optionally with "
                             "engine options as 'name:key=value,...' (e.g. "
                             "'distributed:lease_timeout=10,run_timeout=300' "
                             "or 'distributed:queue=run.queue'); 'serial' scans once on "
                             "one thread, 'process' splits the five passes into up to "
                             "--jobs groups and folds each group in one scan on its own "
                             "worker process, 'distributed' leases the same pass-group "
                             "tasks to workers from a transport-backed queue; findings "
                             "are identical for every engine (default: serial)")
    parser.add_argument("--version", action="version", version=f"ompdataperf {__version__}")
    return parser


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ompdataperf trace",
        description="Inspect and convert saved traces "
                    "(JSON <-> binary columnar <-> sharded store).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser(
        "convert",
        help="convert a trace between the JSON and binary columnar formats",
    )
    convert.add_argument("input", help="path of the trace to read (format sniffed)")
    convert.add_argument("output", help="path of the trace to write")
    convert.add_argument(
        "--to", choices=("json", "binary", "flat"), default=None,
        help="output format (default: binary for .npz/.bin outputs, "
             "flat for .odpf outputs, else json)",
    )

    shard = sub.add_parser(
        "shard",
        help="cut a trace into a sharded on-disk store (a directory of "
             "columnar shards plus a manifest)",
    )
    shard.add_argument("input", help="path of the trace to read (format sniffed)")
    shard.add_argument("output", help="directory of the store to create")
    shard.add_argument("--shard-events", type=positive_int, default=DEFAULT_SHARD_EVENTS,
                       metavar="N", help="events per shard "
                       f"(default: {DEFAULT_SHARD_EVENTS})")

    compact = sub.add_parser(
        "compact",
        help="re-shard a store in place to a target shard size, coalescing "
             "small shards, dropping empty ones and rewriting the manifest; "
             "--retain-* flags additionally apply a retention policy "
             "(newest events survive, folded statistics are recomputed "
             "from what is kept)",
    )
    compact.add_argument("input", help="directory (or zip archive) of the store to compact")
    compact.add_argument("--shard-events", type=positive_int,
                         default=DEFAULT_SHARD_EVENTS, metavar="N",
                         help="target events per shard "
                         f"(default: {DEFAULT_SHARD_EVENTS})")
    compact.add_argument("--retain-max-age", type=nonnegative_number,
                         metavar="SECONDS", default=None,
                         help="drop events whose end time is more than SECONDS "
                              "of event time before the end of the trace")
    compact.add_argument("--retain-max-bytes", type=positive_int,
                         metavar="BYTES", default=None,
                         help="keep only the newest rewritten shards whose "
                              "stored sizes fit BYTES")
    compact.add_argument("--retain-max-shards", type=positive_int,
                         metavar="N", default=None,
                         help="keep at most the N newest rewritten shards")
    compact.add_argument("--retain-keep-kinds", metavar="KIND[,KIND...]",
                         default=None,
                         help="keep only events of these kinds; known kinds: "
                              f"{', '.join(RETAINABLE_KINDS)}")

    merge = sub.add_parser(
        "merge",
        help="merge a sharded store back into one JSON or binary trace file",
    )
    merge.add_argument("input", help="directory of the store to read")
    merge.add_argument("output", help="path of the trace to write")
    merge.add_argument(
        "--to", choices=("json", "binary", "flat"), default=None,
        help="output format (default: binary for .npz/.bin outputs, "
             "flat for .odpf outputs, else json)",
    )

    info = sub.add_parser(
        "info",
        help="print the summary, per-kind event counts and on-disk size of a "
             "saved trace (sharded stores are summarised from the manifest "
             "without loading any shard)",
    )
    info.add_argument("input", help="path of the trace to read (format sniffed)")
    return parser


def build_worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ompdataperf worker",
        description="Join a distributed analysis run: claim pass-group tasks "
                    "from a transport-backed queue, fold each group over the "
                    "run's trace store in one scan, and publish its finding "
                    "parts back. "
                    "Workers may start before the queue exists; they exit "
                    "when the coordinator publishes the done (or abort) "
                    "marker.",
    )
    parser.add_argument("--queue", required=True, metavar="PATH",
                        help="task queue location (the coordinator's distributed:queue=PATH)")
    parser.add_argument("--poll-interval", type=positive_number, default=0.5,
                        metavar="SECONDS",
                        help="how often to poll for new tasks (default: 0.5)")
    parser.add_argument("--max-tasks", type=positive_int, default=None, metavar="N",
                        help="exit after completing N tasks (default: run until done)")
    parser.add_argument("--idle-timeout", type=positive_number, default=None,
                        metavar="SECONDS",
                        help="exit with an error if no run manifest appears within "
                             "SECONDS (default: wait forever)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-task progress output")
    return parser


def _worker_main(argv: Sequence[str]) -> int:
    from repro.core.distributed import run_worker

    parser = build_worker_parser()
    args = parser.parse_args(argv)
    try:
        return run_worker(
            args.queue,
            poll_interval=args.poll_interval,
            max_tasks=args.max_tasks,
            idle_timeout=args.idle_timeout,
            echo=None if args.quiet else print,
            crash_hook=True,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive interrupt
        return 130


def build_queue_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ompdataperf queue",
        description="Inspect a distributed run's task queue: its state "
                    "(running, done, aborted) and how many tasks are pending, "
                    "claimed, resulted and errored.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    status = sub.add_parser(
        "status",
        help="print the queue's state and per-kind blob counts",
    )
    status.add_argument("queue", metavar="PATH",
                        help="task queue location (the coordinator's queue)")
    return parser


def _queue_main(argv: Sequence[str]) -> int:
    from repro.core.distributed import (
        CLAIM_PREFIX,
        ERROR_PREFIX,
        RUN_MANIFEST,
        TaskQueue,
    )
    from repro.events.transport import TransportError, open_transport

    parser = build_queue_parser()
    args = parser.parse_args(argv)
    try:
        transport = open_transport(args.queue)
    except (TransportError, OSError, ValueError) as exc:
        parser.error(f"cannot open queue {args.queue}: {exc}")
        return 2  # unreachable; parser.error raises SystemExit

    queue = TaskQueue(transport)
    names = transport.list_blobs()
    abort = queue.abort_reason()
    if abort is not None:
        state = f"aborted: {abort}"
    elif queue.is_done():
        state = "done"
    elif RUN_MANIFEST not in names:
        state = "no-run"
    else:
        state = "running"
    claims = [n for n in names if n.startswith(CLAIM_PREFIX)]
    print(f"state: {state}")
    print(f"pending_tasks: {len(queue.pending_task_names())}")
    print(f"claimed_tasks: {len(claims)}")
    print(f"results: {len(queue.result_names())}")
    print(f"errors: {len([n for n in names if n.startswith(ERROR_PREFIX)])}")
    workers = sorted({name.rsplit(".", 1)[1] for name in claims})
    if workers:
        print(f"claim_workers: {', '.join(workers)}")
    return 0


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ompdataperf fuzz",
        description="Run the hostile-trace differential fuzz sweep: seeded "
                    "adversarial traces written with shard-boundary-hostile "
                    "layouts, analysed on every transport × engine "
                    "combination and compared bit-for-bit against the "
                    "columnar/object oracle.  Every failure prints the one "
                    "command that reproduces it from its seed.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="base case seed (default: $OMPDATAPERF_FUZZ_SEED, else 0); "
                             "case i uses seed+i, so any case replays alone")
    parser.add_argument("--cases", type=positive_int, default=None, metavar="N",
                        help="number of seeded cases "
                             "(default: $OMPDATAPERF_FUZZ_CASES, else 5)")
    parser.add_argument("--events", type=positive_int, default=None, metavar="N",
                        help="maximum events per case (each case draws its size "
                             "from its seed, up to N; default 20000)")
    parser.add_argument("--transports", default=None, metavar="KINDS",
                        help="comma-separated transports to sweep "
                             "(local,zip,fake-object-store,s3; default: all "
                             "local kinds, plus s3 when "
                             "$OMPDATAPERF_S3_TEST_ENDPOINT is set)")
    parser.add_argument("--engines", default=None, metavar="NAMES",
                        help="comma-separated engines to sweep "
                             "(default: serial,process,distributed)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the sweep summary as JSON to PATH")
    parser.add_argument("--oracle-max", type=positive_int, default=None, metavar="N",
                        help="skip the (slow) object-mode oracle cross-check "
                             "above N events (default 60000)")
    return parser


def _fuzz_main(argv: Sequence[str]) -> int:
    import os

    from repro.core import fuzz

    parser = build_fuzz_parser()
    args = parser.parse_args(argv)
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get(fuzz.SEED_ENV, "0"))
    cases = args.cases
    if cases is None:
        cases = int(os.environ.get(fuzz.CASES_ENV, str(fuzz.DEFAULT_CASES)))
    transports = None
    if args.transports:
        transports = tuple(t.strip() for t in args.transports.split(",") if t.strip())
    engines = fuzz.ALL_ENGINES
    if args.engines:
        engines = tuple(e.strip() for e in args.engines.split(",") if e.strip())
    try:
        fuzz.check_engines(engines)
    except ValueError as exc:
        parser.error(f"argument --engines: {exc}")
    report = fuzz.run_fuzz_sweep(
        seed=seed,
        cases=cases,
        max_events=args.events or fuzz.DEFAULT_MAX_EVENTS,
        transports=transports,
        engines=engines,
        oracle_limit=args.oracle_max or fuzz.DEFAULT_ORACLE_LIMIT,
        report_path=args.report,
    )
    return 0 if report.ok else 1


def _on_disk_bytes(trace, path: Path) -> int:
    if isinstance(trace, ShardedTraceStore):
        return trace.on_disk_bytes()
    return path.stat().st_size


def _print_trace_info(trace, path: Path) -> None:
    for key, value in trace.summary().items():
        print(f"{key}: {value}")
    if isinstance(trace, ShardedTraceStore):
        # Per-kind counts straight from the manifest: no shard is read.
        do_kinds = trace.data_op_kind_counts()
        tgt_kinds = trace.target_kind_counts()
        print(f"num_shards: {trace.num_shards}")
    else:
        columnar = as_columnar(trace)
        import numpy as np

        from repro.events.columnar import DATA_OP_KIND_CODES, TARGET_KIND_CODES

        do_counts = np.bincount(columnar.do_kind, minlength=len(DATA_OP_KIND_CODES))
        tgt_counts = np.bincount(columnar.tgt_kind, minlength=len(TARGET_KIND_CODES))
        do_kinds = {k.value: int(n) for k, n in zip(DATA_OP_KIND_CODES, do_counts)}
        tgt_kinds = {k.value: int(n) for k, n in zip(TARGET_KIND_CODES, tgt_counts)}
    for kind, count in do_kinds.items():
        print(f"data_op_kind.{kind}: {count}")
    for kind, count in tgt_kinds.items():
        print(f"target_kind.{kind}: {count}")
    print(f"on_disk_bytes: {_on_disk_bytes(trace, path)}")


def _trace_main(argv: Sequence[str]) -> int:
    parser = build_trace_parser()
    args = parser.parse_args(argv)

    try:
        trace = load_trace(args.input)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # KeyError/TypeError cover structurally valid JSON that is not a
        # trace (missing or mistyped schema fields).
        parser.error(f"cannot load {args.input}: {exc}")
        return 2  # unreachable; parser.error raises SystemExit

    if args.command == "info":
        _print_trace_info(trace, Path(args.input))
        return 0

    if args.command == "compact":
        if not isinstance(trace, ShardedTraceStore):
            parser.error(f"{args.input} is not a sharded trace store")
        keep_kinds = None
        if args.retain_keep_kinds is not None:
            keep_kinds = frozenset(
                kind.strip() for kind in args.retain_keep_kinds.split(",") if kind.strip()
            )
        before_shards, before_events = trace.num_shards, len(trace)
        try:
            retention = RetentionPolicy(
                max_age=args.retain_max_age,
                max_total_bytes=args.retain_max_bytes,
                max_shards=args.retain_max_shards,
                keep_kinds=keep_kinds,
            )
            store = trace.compact(
                shard_events=args.shard_events,
                retention=retention,
            )
        except (OSError, ValueError) as exc:
            parser.error(f"cannot compact {args.input}: {exc}")
            return 2  # unreachable; parser.error raises SystemExit
        dropped = before_events - len(store)
        retained = "" if retention.is_null() else (
            f" (retention dropped {dropped} event(s))"
        )
        print(
            f"info: compacted {args.input}: {before_shards} -> {store.num_shards} "
            f"shard(s), {len(store)} events{retained}"
        )
        return 0

    if args.command == "shard":
        try:
            store = shard_trace(trace, args.output, shard_events=args.shard_events)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot shard into {args.output}: {exc}")
            return 2
        print(
            f"info: wrote {store.num_shards} shard(s), {len(store)} events "
            f"to {args.output}"
        )
        return 0

    if args.command == "merge" and not isinstance(trace, ShardedTraceStore):
        parser.error(f"{args.input} is not a sharded trace store")

    if isinstance(trace, ShardedTraceStore):
        trace = trace.load()  # convert/merge write a single file: materialise

    fmt = args.to
    if fmt is None:
        suffix = Path(args.output).suffix
        if suffix in (".npz", ".bin"):
            fmt = "binary"
        elif suffix == ".odpf":
            fmt = "flat"
        else:
            fmt = "json"
    try:
        if fmt == "binary":
            as_columnar(trace).save_binary(args.output)
        elif fmt == "flat":
            as_columnar(trace).save_flat(args.output)
        else:
            as_object_trace(trace).save(args.output)
    except OSError as exc:
        parser.error(f"cannot write {args.output}: {exc}")
        return 2
    print(f"info: wrote {fmt} trace to {args.output}")
    return 0


def _list_programs() -> str:
    lines = ["Registered applications:"]
    for name, app in sorted(all_apps().items()):
        variants = ", ".join(v.value for v in app.supported_variants())
        lines.append(f"  {name:18s} {app.domain:24s} variants: {variants}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "worker":
        return _worker_main(argv[1:])
    if argv and argv[0] == "queue":
        return _queue_main(argv[1:])
    if argv and argv[0] == "fuzz":
        return _fuzz_main(argv[1:])

    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        engine_config = EngineConfig.parse(args.engine)
    except ValueError as exc:
        parser.error(f"argument --engine: {exc}")
        return 2  # unreachable; parser.error raises SystemExit

    if args.list:
        print(_list_programs())
        return 0

    if args.experiments is not None:
        keys = args.experiments or None
        try:
            run_experiments(keys, quick=args.quick, echo=print, jobs=args.jobs)
        except KeyError as exc:
            parser.error(str(exc))
        return 0

    if not args.program:
        parser.error("a program name is required (or use --list / --experiments)")

    try:
        app = get_app(args.program)
    except KeyError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error raises SystemExit

    try:
        size = ProblemSize.parse(args.size)
        variant = AppVariant.parse(args.variant)
    except ValueError as exc:
        parser.error(str(exc))
        return 2

    if not app.supports_variant(variant):
        parser.error(f"{app.name} does not provide a {variant.value!r} variant")

    if not args.quiet:
        print(f"info: OpenMP OMPT interface version 5.1 (simulated)")
        print(f"info: analyzing {app.name} [{size.value}, {variant.value}] with OMPDataPerf {__version__}")

    tool = OMPDataPerf(
        hasher=args.hasher or "vector64",
        audit_collisions=args.audit_collisions,
    )
    if args.stream:
        # Resolve the engine up front with degradation enabled: asking for
        # process workers on a machine that cannot profit from them (one
        # usable core, or no way to start workers) falls back to serial
        # with a visible warning instead of oversubscribing.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine = resolve_engine(engine_config, jobs=args.jobs, degrade=True)
        if not args.quiet:
            for warning in caught:
                print(f"warning: {warning.message}")
        # Without --trace-out the store only exists to bound the run's
        # memory: put it in a scratch directory and remove it afterwards.
        scratch = None if args.trace_out else tempfile.mkdtemp(prefix="ompdataperf-")
        store_path = args.trace_out or Path(scratch) / "trace.store"
        try:
            try:
                result = tool.profile_streaming(
                    app.build_program(size, variant),
                    store_path,
                    shard_events=args.shard_events,
                    program_name=app.program_name(size, variant),
                    jobs=args.jobs,
                    engine=engine,
                )
            except DistributedExecutionError as exc:
                parser.error(f"distributed run failed: {exc}")
                return 2  # unreachable; parser.error raises SystemExit
            except (OSError, ValueError) as exc:
                # e.g. the store directory already exists and is non-empty
                parser.error(f"cannot stream into {store_path}: {exc}")
                return 2  # unreachable; parser.error raises SystemExit
            trace_like = result.store
            if not args.quiet:
                kept = "" if scratch is None else " (scratch, removed on exit)"
                print(
                    f"info: streamed {len(result.store)} events into "
                    f"{result.store.num_shards} shard(s) at {store_path}{kept}"
                )
                stats = result.analysis.engine_stats
                if result.analysis.engine_name == "distributed" and stats:
                    print(
                        f"info: distributed: {stats.get('tasks', 0)} task(s), "
                        f"{stats.get('requeued', 0)} requeued, "
                        f"{stats.get('speculative_launches', 0)} speculative, "
                        f"{stats.get('debris_blobs', 0)} debris"
                    )
        finally:
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)
    else:
        result = tool.profile(
            app.build_program(size, variant),
            program_name=app.program_name(size, variant),
        )
        trace_like = result.trace

        if args.trace_out:
            if Path(args.trace_out).suffix in (".npz", ".bin"):
                result.trace.save_binary(args.trace_out)
            else:
                result.trace.save(args.trace_out)
            if not args.quiet:
                print(f"info: trace written to {args.trace_out}")

    # The report and summaries below read only in-memory state (findings
    # and manifest aggregates), so a scratch store may already be gone.
    if args.verbose:
        summary = trace_like.summary()
        print("info: trace summary:")
        for key, value in summary.items():
            print(f"  {key}: {value}")

    print(result.render_report())

    if args.audit_collisions and result.collector.auditor is not None:
        auditor = result.collector.auditor
        status = "collision-free" if auditor.is_collision_free() else "COLLISIONS DETECTED"
        print(f"\nhash audit: {auditor.observed} payloads, {status}")

    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
