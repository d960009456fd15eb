"""Where the traced run puts its spans: one wrapper per layer boundary.

Each entry wraps a public function of one program module (the layer) and
names the span and counters it records.  ``PER_LAYER`` lists the metrics a
traced run reports; every ``*_ms`` metric derived from spans is a sum of
self times, so the layers of one repetition add up to its root span.
"""

from __future__ import annotations

from spans import Tracer

#: Streaming pass class name -> short name used in metric names.
PASS_NAMES = {
    "DuplicateTransferPass": "duplicates",
    "RoundTripPass": "roundtrips",
    "RepeatedAllocationPass": "repeated_allocs",
    "UnusedAllocationPass": "unused_allocs",
    "UnusedTransferPass": "unused_transfers",
}

#: Span name -> per-layer metric (self time in ms).
SPAN_METRICS = {
    **{f"fold.{p}": f"fold.{p}_ms" for p in PASS_NAMES.values()},
    **{f"finalize.{p}": f"finalize.{p}_ms" for p in PASS_NAMES.values()},
    "materialize": "materialize_ms",
    "potential": "potential_ms",
    "render": "render_ms",
    "validate": "validate_ms",
    "store.load": "store.load_ms",
    "store.append": "store.append_ms",
    "store.flush": "store.flush_ms",
    "engine.run": "engine.run_ms",
    "merge": "merge_ms",
    "carry.encode": "carry.encode_ms",
    "carry.decode": "carry.decode_ms",
    "ompt.callback": "ompt.callback_ms",
    "hash": "hash_ms",
}

#: ``ProcessEngine.stats`` key -> per-layer metric (seconds, reported in ms).
ENGINE_STATS = {
    "spawn_seconds": "engine.spawn_ms",
    "map_seconds": "engine.map_ms",
    "fold_seconds": "engine.worker_fold_ms",
}

COUNTS = (
    "carry.bytes",
    "carry.shipped_bytes",
    "materialize.events",
    "store.shards_loaded",
    "store.shards_written",
    "ompt.callbacks",
    "hash.bytes",
)

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER = {
    **{metric: "ms" for metric in SPAN_METRICS.values()},
    **{metric: "ms" for metric in ENGINE_STATS.values()},
    **{name: ("bytes" if name.endswith("bytes") else "count") for name in COUNTS},
    "omp.native_ms": "ms",
    "untraced_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Spans the tracer itself adds (the carry-size probe); not a layer.
PROBE = "trace.probe"


def _one(args, kwargs, result) -> int:
    return 1


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _payload_len(args, kwargs, result) -> int:
    return len(args[0])


def _hashed_bytes(args, kwargs, result) -> int:
    data = args[1]
    return int(getattr(data, "nbytes", None) or len(data))


def _written_shards(args, kwargs, result) -> int:
    return len(args[0].shards)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark traces."""
    import repro.core.analysis as analysis
    import repro.core.carrycodec as carrycodec
    import repro.core.engine as engine
    import repro.core.profiler as profiler
    import repro.core.report as report
    from repro.core.detectors import (
        duplicates,
        repeated_allocs,
        roundtrips,
        unused_allocs,
        unused_transfers,
    )
    from repro.events.store import ShardedTraceStore, TraceWriter
    from repro.hashing import DEFAULT_HASHER, get_hasher
    from repro.ompt.interface import OmptInterface

    encode_original = carrycodec.encode_carries

    def carry_probe(args) -> None:
        # Finalize runs in this process only on the serial engine; the
        # process engine's merged carries are counted by the carry.encode
        # wrapper as the parent ships them out.
        with tracer.span(PROBE):
            tracer.counts["carry.bytes"] += len(encode_original([args[0]]))

    for module, cls_name in (
        (duplicates, "DuplicateTransferPass"),
        (roundtrips, "RoundTripPass"),
        (repeated_allocs, "RepeatedAllocationPass"),
        (unused_allocs, "UnusedAllocationPass"),
        (unused_transfers, "UnusedTransferPass"),
    ):
        cls = getattr(module, cls_name)
        short = PASS_NAMES[cls_name]
        tracer.wrap(cls, "fold", f"fold.{short}")
        tracer.wrap(cls, "merge", "merge")
        tracer.wrap(cls, "finalize", f"finalize.{short}", before=carry_probe)
        tracer.wrap(
            module, "materialize_data_op_events", "materialize",
            {"materialize.events": _result_len},
        )

    tracer.wrap(profiler, "validate_stream", "validate")
    tracer.wrap(analysis, "estimate_potential", "potential")
    tracer.wrap(report, "render_report", "render")
    tracer.wrap(ShardedTraceStore, "load_batch", "store.load", {"store.shards_loaded": _one})
    tracer.wrap(engine.SerialEngine, "run", "engine.run")
    tracer.wrap(engine.ProcessEngine, "run", "engine.run")
    tracer.wrap(
        carrycodec, "encode_carries", "carry.encode",
        {"carry.shipped_bytes": _result_len, "carry.bytes": _result_len},
    )
    tracer.wrap(carrycodec, "decode_carries", "carry.decode", {"carry.shipped_bytes": _payload_len})

    for emit in (
        "emit_device_initialize", "emit_device_finalize", "emit_target",
        "emit_target_submit", "emit_target_data_op",
    ):
        tracer.wrap(OmptInterface, emit, "ompt.callback", {"ompt.callbacks": _one})
    tracer.wrap(type(get_hasher(DEFAULT_HASHER)), "hash", "hash", {"hash.bytes": _hashed_bytes})
    tracer.wrap(TraceWriter, "append_data_op", "store.append")
    tracer.wrap(TraceWriter, "append_target", "store.append")
    tracer.wrap(TraceWriter, "flush", "store.flush")
    tracer.wrap(TraceWriter, "close", "store.flush", {"store.shards_written": _written_shards})


def metrics(tracer: Tracer, engine_stats: dict, root: str) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (everything but the
    native-run time and the overhead, which need untraced runs)."""
    by_name = tracer.self_ms_by_name()
    out: dict[str, float] = {metric: by_name.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    for key, metric in ENGINE_STATS.items():
        out[metric] = float(engine_stats.get(key, 0.0)) * 1000.0
    for name in COUNTS:
        out[name] = float(tracer.counts.get(name, 0))
    out["untraced_ms"] = by_name.get(root, 0.0)
    return out
