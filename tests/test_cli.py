"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_programs(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "bfs" in out and "tealeaf" in out and "bspline-vgh-omp" in out


def test_analyze_program(capsys):
    assert main(["hotspot", "--size", "small", "-q"]) == 0
    out = capsys.readouterr().out
    assert "DD=2" in out
    assert "Optimization Potential" in out


def test_analyze_fixed_variant(capsys):
    assert main(["rsbench", "--size", "small", "--variant", "fixed", "-q"]) == 0
    out = capsys.readouterr().out
    assert "RT=0" in out


def test_verbose_header_and_summary(capsys):
    assert main(["rsbench", "--size", "small", "-v"]) == 0
    out = capsys.readouterr().out
    assert "OMPT interface version" in out
    assert "trace summary" in out


def test_trace_output_file(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert main(["hotspot", "--size", "small", "-q", "--trace-out", str(path)]) == 0
    from repro.events.trace import Trace

    trace = Trace.load(path)
    assert len(trace.data_op_events) > 0


def test_collision_audit_flag(capsys):
    assert main(["hotspot", "--size", "small", "-q", "--audit-collisions"]) == 0
    assert "collision-free" in capsys.readouterr().out


def test_experiments_mode(capsys):
    assert main(["--experiments", "table6", "--quick"]) == 0
    assert "Table 6" in capsys.readouterr().out


def test_experiments_parallel_jobs(capsys):
    assert main(["--experiments", "table5", "table6", "--quick", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "Table 5" in out and "Table 6" in out


def test_invalid_jobs_rejected():
    with pytest.raises(SystemExit):
        main(["--experiments", "table6", "--jobs", "0"])


def test_trace_subcommand_round_trip(tmp_path, capsys):
    json_path = tmp_path / "trace.json"
    assert main(["hotspot", "--size", "small", "-q", "--trace-out", str(json_path)]) == 0
    capsys.readouterr()

    npz_path = tmp_path / "trace.npz"
    back_path = tmp_path / "back.json"
    assert main(["trace", "convert", str(json_path), str(npz_path)]) == 0
    assert main(["trace", "convert", str(npz_path), str(back_path)]) == 0
    capsys.readouterr()

    import json

    original = json.loads(json_path.read_text(encoding="utf-8"))
    restored = json.loads(back_path.read_text(encoding="utf-8"))
    assert restored == original  # JSON -> binary columnar -> JSON is lossless


def test_trace_subcommand_binary_out_from_cli(tmp_path, capsys):
    npz_path = tmp_path / "trace.npz"
    assert main(["hotspot", "--size", "small", "-q", "--trace-out", str(npz_path)]) == 0
    capsys.readouterr()
    from repro.events.columnar import ColumnarTrace

    trace = ColumnarTrace.load_binary(npz_path)
    assert trace.num_data_op_events > 0


def test_trace_subcommand_info(tmp_path, capsys):
    json_path = tmp_path / "trace.json"
    assert main(["rsbench", "--size", "small", "-q", "--trace-out", str(json_path)]) == 0
    capsys.readouterr()
    assert main(["trace", "info", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "num_data_op_events" in out
    assert "rsbench" in out
    assert "data_op_kind.transfer_to_device:" in out
    assert "on_disk_bytes:" in out


def test_trace_shard_info_merge_round_trip(tmp_path, capsys):
    npz_path = tmp_path / "trace.npz"
    assert main(["hotspot", "--size", "small", "-q", "--trace-out", str(npz_path)]) == 0
    capsys.readouterr()

    store_path = tmp_path / "trace.store"
    assert main(["trace", "shard", str(npz_path), str(store_path),
                 "--shard-events", "4"]) == 0
    assert (store_path / "manifest.json").is_file()
    capsys.readouterr()

    # info on the store comes from the manifest (per-kind counts included).
    assert main(["trace", "info", str(store_path)]) == 0
    out = capsys.readouterr().out
    assert "num_shards:" in out
    assert "data_op_kind.alloc:" in out
    assert "on_disk_bytes:" in out
    assert "shard_format" not in out

    back_path = tmp_path / "back.npz"
    assert main(["trace", "merge", str(store_path), str(back_path)]) == 0
    from repro.events.columnar import ColumnarTrace

    original = ColumnarTrace.load_binary(npz_path)
    restored = ColumnarTrace.load_binary(back_path)
    assert restored.to_trace().to_dict() == original.to_trace().to_dict()


@pytest.mark.parametrize(
    "argv",
    [
        ["migrate", "{store}"],
        ["shard", "{npz}", "{out}", "--compress"],
        ["compact", "{store}", "--compress"],
    ],
    ids=["migrate", "shard-compress", "compact-compress"],
)
def test_removed_shard_format_commands_exit_2(tmp_path, capsys, argv):
    """Stores have one shard format: there is nothing to migrate and no
    compressed shards to ask for.  The store is left as it was."""
    store_path = _small_store(tmp_path, capsys)
    manifest = (store_path / "manifest.json").read_bytes()
    paths = {"store": store_path, "npz": tmp_path / "trace.npz", "out": tmp_path / "out.store"}
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", *(arg.format(**paths) for arg in argv)])
    assert excinfo.value.code == 2
    assert (store_path / "manifest.json").read_bytes() == manifest
    assert not (tmp_path / "out.store").exists()


def test_trace_info_refuses_a_store_with_an_npz_shard(tmp_path, capsys):
    import json

    store_path = _small_store(tmp_path, capsys)
    manifest_path = store_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["shards"][0].update(file="shard-legacy.npz", format="npz")
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "info", str(store_path)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "shard-legacy.npz" in err and "'npz'" in err


def test_trace_convert_flat_round_trip(tmp_path, capsys):
    from repro.events.columnar import ColumnarTrace

    npz_path = tmp_path / "trace.npz"
    assert main(["hotspot", "--size", "small", "-q", "--trace-out", str(npz_path)]) == 0
    capsys.readouterr()
    flat_path = tmp_path / "trace.odpf"
    assert main(["trace", "convert", str(npz_path), str(flat_path)]) == 0
    assert "flat trace" in capsys.readouterr().out
    assert flat_path.read_bytes()[:4] == b"ODPF"

    back_path = tmp_path / "back.npz"
    assert main(["trace", "convert", str(flat_path), str(back_path)]) == 0
    original = ColumnarTrace.load_binary(npz_path)
    restored = ColumnarTrace.load_binary(back_path)
    assert restored.to_trace().to_dict() == original.to_trace().to_dict()


def test_trace_merge_rejects_single_file(tmp_path, capsys):
    json_path = tmp_path / "trace.json"
    assert main(["rsbench", "--size", "small", "-q", "--trace-out", str(json_path)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["trace", "merge", str(json_path), str(tmp_path / "out.npz")])


def test_stream_mode_matches_in_memory_report(tmp_path, capsys):
    assert main(["hotspot", "--size", "small", "-q"]) == 0
    in_memory = capsys.readouterr().out

    store_path = tmp_path / "hotspot.store"
    assert main(["hotspot", "--size", "small", "-q", "--stream", "--jobs", "2",
                 "--shard-events", "8", "--trace-out", str(store_path)]) == 0
    streamed = capsys.readouterr().out
    streamed = "\n".join(
        line for line in streamed.splitlines() if not line.startswith("info:")
    )
    assert streamed.strip() == in_memory.strip()
    assert (store_path / "manifest.json").is_file()

    # The store left behind is analyzable offline.
    from repro.events.backends import load_trace
    from repro.events.store import ShardedTraceStore

    assert isinstance(load_trace(store_path), ShardedTraceStore)


def test_stream_rejects_bad_shard_events():
    with pytest.raises(SystemExit):
        main(["hotspot", "--size", "small", "-q", "--stream", "--shard-events", "0"])


@pytest.mark.parametrize("flag", ["--jobs", "--shard-events"])
@pytest.mark.parametrize("value", ["0", "-2", "three"])
def test_count_flags_validated_at_parse_time(flag, value, capsys):
    """--jobs/--shard-events are range-checked by argparse, uniformly."""
    with pytest.raises(SystemExit):
        main(["hotspot", "--size", "small", "-q", "--stream", flag, value])
    err = capsys.readouterr().err
    assert f"expected a positive integer, got '{value}'" in err


def test_trace_shard_rejects_bad_shard_events(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["trace", "shard", "in.npz", str(tmp_path / "out.store"),
              "--shard-events", "0"])
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["process", "distributed"])
def test_stream_engines_match_in_memory_report(tmp_path, capsys, engine):
    assert main(["hotspot", "--size", "small", "-q"]) == 0
    in_memory = capsys.readouterr().out

    store_path = tmp_path / f"hotspot-{engine}.store"
    assert main(["hotspot", "--size", "small", "-q", "--stream",
                 "--engine", engine, "--jobs", "2", "--shard-events", "4",
                 "--trace-out", str(store_path)]) == 0
    streamed = capsys.readouterr().out
    streamed = "\n".join(
        line for line in streamed.splitlines() if not line.startswith("info:")
    )
    assert streamed.strip() == in_memory.strip()


def test_unknown_engine_rejected():
    with pytest.raises(SystemExit):
        main(["hotspot", "--size", "small", "-q", "--stream",
              "--engine", "quantum"])


def test_thread_engine_is_gone_from_analysis_and_fuzz(capsys):
    """The removed partitioned thread engine is refused by name, with the
    list of engines that remain, by ``--engine`` and ``fuzz --engines``."""
    with pytest.raises(SystemExit) as exc:
        main(["hotspot", "--size", "small", "-q", "--stream", "--engine", "thread"])
    assert exc.value.code == 2
    assert "available: distributed, process, serial" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--cases", "1", "--events", "200", "--engines", "serial,thread"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--engines" in err and "thread" in err
    assert "available: distributed, process, serial" in err


def test_queue_requires_distributed_engine(capsys):
    """The queue and its deadline are distributed-engine spec options;
    other engines reject them, and the analyse command has no flags."""
    for spec, option in (("process:queue=some.queue", "queue"),
                         ("serial:run_timeout=5", "run_timeout")):
        with pytest.raises(SystemExit):
            main(["hotspot", "--size", "small", "-q", "--stream", "--engine", spec])
        assert f"unknown option {option!r}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["hotspot", "--size", "small", "-q", "--stream",
              "--engine", "distributed", "--queue", "some.queue"])
    assert "unrecognized arguments: --queue" in capsys.readouterr().err


def test_queue_timeout_fails_clearly_when_no_worker_attaches(tmp_path, capsys):
    """Attach mode with no workers must not hang: run_timeout turns
    the wait into a clear CLI error naming the reason."""
    queue = tmp_path / "nobody.queue"
    with pytest.raises(SystemExit):
        main(["hotspot", "--size", "small", "-q", "--stream",
              "--engine", f"distributed:queue={queue},workers=0,run_timeout=0.5",
              "--jobs", "2", "--shard-events", "4"])
    err = capsys.readouterr().err
    assert "distributed run failed" in err and "did not complete" in err


def test_worker_exits_on_done_marker(tmp_path, capsys):
    """A worker pointed at a finished run's queue exits cleanly."""
    from repro.core.distributed import TaskQueue
    from repro.events.transport import LocalDirTransport

    queue_dir = tmp_path / "finished.queue"
    TaskQueue(LocalDirTransport(queue_dir, create=True)).mark_done()
    assert main(["worker", "--queue", str(queue_dir),
                 "--poll-interval", "0.05"]) == 0
    assert "run complete" in capsys.readouterr().out


def test_worker_exits_on_abort_marker(tmp_path, capsys):
    from repro.core.distributed import TaskQueue
    from repro.events.transport import LocalDirTransport

    queue_dir = tmp_path / "aborted.queue"
    TaskQueue(LocalDirTransport(queue_dir, create=True)).mark_abort("boom")
    assert main(["worker", "--queue", str(queue_dir),
                 "--poll-interval", "0.05"]) == 1
    assert "boom" in capsys.readouterr().out


def test_worker_refuses_an_older_protocol_version(tmp_path, capsys):
    """A worker never folds a run whose manifest speaks another protocol:
    a version 4 manifest (codec-encoded results) is refused with exit 1
    and a message naming both versions."""
    from repro.core.distributed import QUEUE_FORMAT_VERSION, TaskQueue
    from repro.events.transport import LocalDirTransport

    assert QUEUE_FORMAT_VERSION == 5
    queue_dir = tmp_path / "v4.queue"
    queue = TaskQueue(LocalDirTransport(queue_dir, create=True))
    queue.publish_run({"version": 4, "store_spec": {}, "pass_specs": ()})
    queue.publish_task(0, [0])
    assert main(["worker", "--queue", str(queue_dir),
                 "--poll-interval", "0.05", "--idle-timeout", "30"]) == 1
    out = capsys.readouterr().out
    assert "queue speaks protocol version 4, this worker speaks 5" in out
    # The task was left untouched for a worker that speaks the protocol.
    assert queue.pending_task_names() == ["tasks/task-00000.a000"]


def test_worker_idle_timeout(tmp_path, capsys):
    """With --idle-timeout a worker does not wait forever for a run."""
    assert main(["worker", "--queue", str(tmp_path / "never.queue"),
                 "--poll-interval", "0.05", "--idle-timeout", "0.2"]) == 1
    assert "no run appeared" in capsys.readouterr().out


def test_worker_flag_validation(capsys):
    with pytest.raises(SystemExit):
        main(["worker", "--queue", "q", "--poll-interval", "0"])
    assert "expected a positive number" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["worker", "--queue", "q", "--max-tasks", "0"])
    with pytest.raises(SystemExit):
        main(["worker"])  # --queue is required
    capsys.readouterr()
    # A worker claims one task at a time: there is no batch size to set.
    with pytest.raises(SystemExit) as excinfo:
        main(["worker", "--queue", "q", "--claim-batch", "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --claim-batch" in capsys.readouterr().err


def test_trace_compact_reshards_in_place(tmp_path, capsys):
    npz_path = tmp_path / "trace.npz"
    assert main(["hotspot", "--size", "small", "-q", "--trace-out", str(npz_path)]) == 0
    capsys.readouterr()

    store_path = tmp_path / "trace.store"
    assert main(["trace", "shard", str(npz_path), str(store_path),
                 "--shard-events", "2"]) == 0
    capsys.readouterr()

    from repro.events.columnar import ColumnarTrace
    from repro.events.store import ShardedTraceStore

    before = ShardedTraceStore.open(store_path)
    num_before = before.num_shards
    assert num_before > 1

    assert main(["trace", "compact", str(store_path), "--shard-events", "1024"]) == 0
    out = capsys.readouterr().out
    assert f"{num_before} -> 1 shard(s)" in out

    after = ShardedTraceStore.open(store_path)
    assert after.num_shards == 1
    # The superseded shard files are gone, whatever their format.
    assert not any(
        (store_path / f"shard-{num_before - 1:05d}.{fmt}").exists()
        for fmt in ("npz", "odpf")
    )
    original = ColumnarTrace.load_binary(npz_path)
    assert after.load().to_trace().to_dict() == original.to_trace().to_dict()


def _small_store(tmp_path, capsys, shard_events=2):
    npz_path = tmp_path / "trace.npz"
    assert main(["hotspot", "--size", "small", "-q", "--trace-out", str(npz_path)]) == 0
    store_path = tmp_path / "trace.store"
    assert main(["trace", "shard", str(npz_path), str(store_path),
                 "--shard-events", str(shard_events)]) == 0
    capsys.readouterr()
    return store_path


def test_trace_compact_retain_max_shards(tmp_path, capsys):
    store_path = _small_store(tmp_path, capsys)
    from repro.events.store import ShardedTraceStore

    before = ShardedTraceStore.open(store_path)
    assert main(["trace", "compact", str(store_path), "--shard-events", "2",
                 "--retain-max-shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "retention dropped" in out

    after = ShardedTraceStore.open(store_path)
    assert after.num_shards == 2
    assert 0 < len(after) < len(before)


def test_trace_compact_retain_keep_kinds(tmp_path, capsys):
    store_path = _small_store(tmp_path, capsys)
    assert main(["trace", "compact", str(store_path),
                 "--retain-keep-kinds", "transfer_to_device,target"]) == 0
    capsys.readouterr()
    from repro.events.store import ShardedTraceStore

    after = ShardedTraceStore.open(store_path)
    kinds = after.data_op_kind_counts()
    assert kinds["alloc"] == 0
    assert kinds["transfer_to_device"] > 0


def test_trace_compact_retain_max_age(tmp_path, capsys):
    store_path = _small_store(tmp_path, capsys)
    from repro.events.store import ShardedTraceStore

    before = ShardedTraceStore.open(store_path)
    horizon = before.end_time / 2
    assert main(["trace", "compact", str(store_path),
                 "--retain-max-age", str(horizon)]) == 0
    capsys.readouterr()
    after = ShardedTraceStore.open(store_path)
    assert 0 < len(after) < len(before)
    assert after.end_time == before.end_time


def test_trace_compact_rejects_unknown_kind(tmp_path, capsys):
    store_path = _small_store(tmp_path, capsys)
    with pytest.raises(SystemExit):
        main(["trace", "compact", str(store_path),
              "--retain-keep-kinds", "warp-drive"])
    assert "unknown event kind" in capsys.readouterr().err


def test_trace_compact_rejects_negative_age(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["trace", "compact", "whatever.store", "--retain-max-age", "-1"])
    assert "non-negative number" in capsys.readouterr().err


def test_trace_shard_into_zip_archive(tmp_path, capsys):
    npz_path = tmp_path / "trace.npz"
    assert main(["hotspot", "--size", "small", "-q", "--trace-out", str(npz_path)]) == 0
    zip_path = tmp_path / "trace.zip"
    assert main(["trace", "shard", str(npz_path), str(zip_path),
                 "--shard-events", "4"]) == 0
    capsys.readouterr()
    assert zip_path.is_file()

    # Sniffed, summarised and compacted like any other store.
    assert main(["trace", "info", str(zip_path)]) == 0
    assert "num_shards:" in capsys.readouterr().out
    assert main(["trace", "compact", str(zip_path), "--shard-events", "1024"]) == 0
    assert "-> 1 shard(s)" in capsys.readouterr().out

    back_path = tmp_path / "back.npz"
    assert main(["trace", "merge", str(zip_path), str(back_path)]) == 0
    from repro.events.columnar import ColumnarTrace

    original = ColumnarTrace.load_binary(npz_path)
    restored = ColumnarTrace.load_binary(back_path)
    assert restored.to_trace().to_dict() == original.to_trace().to_dict()


def test_stream_process_engine_degrades_on_one_core(monkeypatch, capsys):
    """resolve_engine degradation as the CLI surfaces it: the default run
    prints the RuntimeWarning (with its reason), -q suppresses it."""
    monkeypatch.setattr("repro.core.engine._usable_cores", lambda: 1)
    assert main(["hotspot", "--size", "small", "--stream",
                 "--engine", "process", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "warning:" in out and "falling back to the serial engine" in out
    assert "usable core" in out  # the reason travels with the warning
    # -q suppresses the warning but the run still succeeds.
    assert main(["hotspot", "--size", "small", "-q", "--stream",
                 "--engine", "process", "--jobs", "2"]) == 0
    assert "warning:" not in capsys.readouterr().out


def test_stream_process_degradation_reason_for_jobs_one(capsys):
    """--jobs 1 is the other degradation trigger; surfaced the same way."""
    assert main(["hotspot", "--size", "small", "--stream",
                 "--engine", "process", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "warning:" in out and "--jobs 1" in out


def test_trace_compact_rejects_single_file(tmp_path, capsys):
    json_path = tmp_path / "trace.json"
    assert main(["rsbench", "--size", "small", "-q", "--trace-out", str(json_path)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["trace", "compact", str(json_path)])
    assert "not a sharded trace store" in capsys.readouterr().err


def test_trace_subcommand_rejects_missing_file(tmp_path):
    with pytest.raises(SystemExit):
        main(["trace", "info", str(tmp_path / "nope.json")])


def test_unknown_program_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["not-a-program"])


def test_unknown_size_rejected():
    with pytest.raises(SystemExit):
        main(["bfs", "--size", "gigantic"])


def test_unsupported_variant_rejected():
    with pytest.raises(SystemExit):
        main(["lud", "--variant", "fixed"])


def test_missing_program_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_parser_metadata():
    parser = build_parser()
    assert parser.prog == "ompdataperf"


def test_engine_spec_string_with_options(capsys):
    assert main(["hotspot", "--size", "small", "-q", "--stream",
                 "--shard-events", "8", "--jobs", "2",
                 "--engine", "distributed:worker_mode=thread,max_attempts=2"]) == 0
    capsys.readouterr()
    # Options ride the spec string; a bad option fails at parse time.
    with pytest.raises(SystemExit):
        main(["hotspot", "--size", "small", "-q", "--stream",
              "--engine", "distributed:warp_factor=9"])
    err = capsys.readouterr().err
    assert "warp_factor" in err and "known options" in err
    with pytest.raises(SystemExit):
        main(["hotspot", "--size", "small", "-q", "--stream",
              "--engine", "distributed:lease_timeout"])
    assert "key=value" in capsys.readouterr().err


def test_engine_spec_distributed_loopback(capsys):
    assert main(["hotspot", "--size", "small", "--stream",
                 "--shard-events", "8", "--jobs", "2",
                 "--engine", "distributed:lease_timeout=60,max_attempts=2"]) == 0
    out = capsys.readouterr().out
    assert "info: distributed:" in out
    assert "speculative" in out


def test_queue_status_subcommand(tmp_path, capsys):
    queue = tmp_path / "status.queue"
    queue.mkdir()
    assert main(["queue", "status", str(queue)]) == 0
    out = capsys.readouterr().out
    assert "state: no-run" in out
    assert "pending_tasks: 0" in out
    (queue / "done").write_bytes(b"")
    assert main(["queue", "status", str(queue)]) == 0
    assert "state: done" in capsys.readouterr().out


def test_queue_status_counts_a_running_queue(tmp_path, capsys):
    """A running queue prints its state and one count line per blob kind;
    staging files and stray names are not counted."""
    queue = tmp_path / "running.queue"
    for sub in ("tasks", "claims", "results", "errors"):
        (queue / sub).mkdir(parents=True)
    (queue / "run.pkl").write_bytes(b"stub")
    (queue / "tasks" / "task-00002.a000").write_bytes(b"")
    (queue / "tasks" / "task-00003.a001").write_bytes(b"")
    (queue / "claims" / "task-00001.a000.w-1").write_bytes(b"")
    (queue / "results" / "task-00000.a000.w-1").write_bytes(b"")
    (queue / "results" / "task-00004.a001.w-2").write_bytes(b"")
    (queue / "results" / "task-00005.a000.w-2.tmp-99").write_bytes(b"")
    (queue / "errors" / "task-00004.a000.w-2").write_bytes(b"")
    assert main(["queue", "status", str(queue)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "state: running",
        "pending_tasks: 2",
        "claimed_tasks: 1",
        "results: 2",
        "errors: 1",
        "claim_workers: w-1",
    ]
    (queue / "abort").write_bytes(b"task 4 failed")
    assert main(["queue", "status", str(queue)]) == 0
    assert capsys.readouterr().out.startswith("state: aborted: task 4 failed\n")
