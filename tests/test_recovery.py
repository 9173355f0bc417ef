"""Differential suite for the durable-state subsystem (repro.state).

The contract under test: **kill-and-restore mid-stream is observationally
identical to never having crashed** —

* a :class:`~repro.core.monitor.SurgeMonitor` saved and re-loaded mid-stream
  must finish the stream bit-identically to the original instance, for all
  10 detector names (window deques, cell records, lazy heaps, memoised
  candidates, top-k state and counters all survive the snapshot);
* a :class:`~repro.service.SurgeService` that checkpointed, "crashed" (its
  in-memory state discarded), restored and replayed the lost tail via
  ``run(start_offset=...)`` must produce the same per-chunk updates, final
  results, top-k lists and cumulative :class:`~repro.service.QueryStats`
  object counts as an uninterrupted run — under the ``serial`` and
  ``process`` shard executors (one query per detector name, so all 10
  detectors cross the snapshot boundary under every backend).  The
  uninterrupted reference is itself checked against the
  independent-monitor oracle (``tests/helpers.replay_oracle``), so every
  crash cycle is simultaneously a proof that the shared-work plan's
  group-owned windows / unit-owned monitors survive the snapshot;
* a checkpoint written by an earlier commit (``snapshot/v1`` … ``v4`` shard,
  ingest and monitor files, a ``service-manifest/v1`` … ``v3`` manifest) is
  refused by version with a typed :class:`~repro.state.SnapshotSchemaError`, before
  any payload is unpickled;
* the ``repro serve --checkpoint-dir / --resume`` CLI implements exactly
  that protocol end to end, including refusing a resume at a different
  ``--chunk-size`` and refusing to clobber an existing checkpoint.

Restore must also *fail loudly* on broken inputs: unknown manifest schema
versions, missing shard files, snapshots of the wrong kind.
"""

from __future__ import annotations

import json
import logging
import random
import zlib
from pathlib import Path

import pytest

from repro.core.monitor import DETECTOR_NAMES, SurgeMonitor
from repro.core.query import SurgeQuery
from repro.service import QuerySpec, SurgeService
from repro.state import CheckpointPolicy, SnapshotError, SnapshotSchemaError
from repro.state.recovery import (
    MANIFEST_SCHEMA,
    manifest_path,
    previous_manifest_path,
    read_manifest,
    wal_path,
)
from repro.state.snapshot import SNAPSHOT_MAGIC, SNAPSHOT_SCHEMA
from repro.state.wal import ChunkWal
from repro.streams.objects import SpatialObject
from repro.streams.sources import iter_chunks
from tests.helpers import replay_oracle, result_key, result_keys

VOCABULARY = ("concert", "parade", "zika", "festival")
CHUNK_SIZE = 41  # ragged: does not divide the stream length

#: (executor, shards) combinations the kill-and-restore replay runs under.
EXECUTOR_GRID = (
    ("serial", 3),
    ("process", 2),
)


def make_stream(count: int = 300, seed: int = 61) -> list[SpatialObject]:
    """Keyword-tagged stream with irregular arrivals and one big time jump."""
    rng = random.Random(seed)
    stream = []
    t = 0.0
    for index in range(count):
        t += rng.uniform(0.05, 0.5)
        if index == count // 2:
            t += 150.0  # larger than every query window pair: full lifecycles
        keywords = (rng.choice(VOCABULARY),) if rng.random() < 0.85 else ()
        stream.append(
            SpatialObject(
                x=rng.uniform(0.0, 6.0),
                y=rng.uniform(0.0, 6.0),
                timestamp=t,
                weight=rng.uniform(0.5, 10.0),
                object_id=index,
                attributes={"keywords": keywords} if keywords else {},
            )
        )
    return stream


def make_specs() -> list[QuerySpec]:
    """One query per detector name, heterogeneous in every dimension."""
    specs = []
    for index, name in enumerate(DETECTOR_NAMES):
        size = (0.8, 1.0, 1.4)[index % 3]
        specs.append(
            QuerySpec(
                query_id=f"{name}-q",
                query=SurgeQuery(
                    rect_width=size,
                    rect_height=size,
                    window_length=(15.0, 20.0, 30.0)[index % 3],
                    alpha=0.5,
                    k=3 if name.startswith("k") else 1,
                ),
                algorithm=name,
                keyword=VOCABULARY[index % len(VOCABULARY)] if index % 3 else None,
                backend="python"
                if name in ("ccs", "bccs", "base", "ag2", "naive", "kccs")
                else None,
            )
        )
    return specs


# ---------------------------------------------------------------------------
# Monitor save / load
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream():
    return make_stream()


class TestMonitorSaveLoad:
    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_restored_monitor_finishes_bit_identically(self, tmp_path, stream, name):
        query = SurgeQuery(
            rect_width=1.0,
            rect_height=1.0,
            window_length=20.0,
            k=3 if name.startswith("k") else 1,
        )
        backend = (
            "python" if name in ("ccs", "bccs", "base", "ag2", "naive", "kccs") else None
        )
        original = SurgeMonitor(query, algorithm=name, backend=backend)
        original.push_many(stream[:150])
        path = tmp_path / f"{name}.snap"
        header = original.save(path, meta={"chunk_offset": 9})
        assert header["meta"]["algorithm"] == name
        assert header["meta"]["objects_seen"] == 150
        assert header["meta"]["chunk_offset"] == 9

        restored = SurgeMonitor.load(path)
        # The snapshot boundary must be invisible: finish the stream on both.
        for chunk in iter_chunks(stream[150:], 37):
            a = original.push_many(chunk)
            b = restored.push_many(chunk)
            assert result_key(a) == result_key(b)
        assert [result_key(r) for r in original.top_k()] == [
            result_key(r) for r in restored.top_k()
        ]
        assert original.objects_seen == restored.objects_seen
        assert original.window_state() == restored.window_state()
        assert original.is_stable == restored.is_stable

    def test_load_rejects_other_kinds(self, tmp_path):
        from repro.state import write_snapshot

        path = tmp_path / "other.snap"
        write_snapshot(path, "service-shard", {"not": "a monitor"})
        with pytest.raises(SnapshotError, match="not the expected"):
            SurgeMonitor.load(path)

    def test_load_rejects_unknown_schema(self, tmp_path):
        query = SurgeQuery(rect_width=1.0, rect_height=1.0, window_length=10.0)
        monitor = SurgeMonitor(query, algorithm="gaps")
        path = tmp_path / "monitor.snap"
        monitor.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(SNAPSHOT_SCHEMA.encode(), b"snapshot/v7", 1))
        with pytest.raises(SnapshotSchemaError, match="snapshot/v7"):
            SurgeMonitor.load(path)


# ---------------------------------------------------------------------------
# Service kill-and-restore across executors
# ---------------------------------------------------------------------------
def uninterrupted_run(stream, executor="serial", shards=1):
    """Per-chunk trace + finals of a run that never crashes."""
    trace = []
    with SurgeService(make_specs(), shards=shards, executor=executor) as service:
        for updates in service.run(stream, CHUNK_SIZE):
            trace.append({u.query_id: result_key(u.result) for u in updates})
        finals = {qid: result_key(r) for qid, r in service.results().items()}
        top_k = {
            qid: tuple(result_key(r) for r in results)
            for qid, results in service.top_k().items()
        }
        counts = {
            qid: (stats.objects_routed, stats.chunks_processed)
            for qid, stats in service.stats().per_query.items()
        }
    return trace, finals, top_k, counts


@pytest.fixture(scope="module")
def reference(stream):
    return uninterrupted_run(stream)


def test_uninterrupted_reference_equals_oracle(stream, reference):
    """The yardstick of this module is itself the independent-monitor oracle."""
    ref_trace, ref_finals, ref_top_k, ref_counts = reference
    oracle_trace, oracle_finals, oracle_top_k, oracle_routed = replay_oracle(
        stream, make_specs(), CHUNK_SIZE
    )
    assert ref_trace == [
        {qid: key for qid, (key, _) in step.items()} for step in oracle_trace
    ]
    assert ref_finals == oracle_finals
    assert ref_top_k == oracle_top_k
    assert {qid: routed for qid, (routed, _) in ref_counts.items()} == oracle_routed


@pytest.mark.parametrize(
    "executor,shards", EXECUTOR_GRID, ids=[f"{e}-{s}shard" for e, s in EXECUTOR_GRID]
)
def test_kill_and_restore_equals_uninterrupted(
    tmp_path, stream, reference, executor, shards
):
    """All 10 detectors crossing a crash under every executor."""
    ref_trace, ref_finals, ref_top_k, ref_counts = reference
    checkpoint_dir = tmp_path / "ckpt"

    # The doomed service: checkpoint every 3 chunks, die after chunk 7 (the
    # checkpoint at chunk 6 is durable; chunk 7's effects are lost).
    doomed = SurgeService(
        make_specs(),
        shards=shards,
        executor=executor,
        checkpoint_dir=checkpoint_dir,
        checkpoint_policy=CheckpointPolicy(every_chunks=3),
    )
    chunks = iter(iter_chunks(stream, CHUNK_SIZE))
    with doomed:
        for _ in range(7):
            doomed.push_many(next(chunks))
    del doomed  # in-memory state gone: this is the crash

    restored = SurgeService.restore(checkpoint_dir, executor=executor)
    assert restored.n_shards == shards
    assert restored.chunk_offset == 6  # the last every-3-chunks checkpoint
    with restored:
        tail_trace = [
            {u.query_id: result_key(u.result) for u in updates}
            for updates in restored.run(
                stream, CHUNK_SIZE, start_offset=restored.chunk_offset
            )
        ]
        # The replayed tail reproduces the uninterrupted per-chunk updates,
        # including re-living chunk 7, whose first run died with the process.
        assert tail_trace == ref_trace[6:]
        assert {qid: result_key(r) for qid, r in restored.results().items()} == (
            ref_finals
        )
        assert {
            qid: tuple(result_key(r) for r in results)
            for qid, results in restored.top_k().items()
        } == ref_top_k
        assert {
            qid: (stats.objects_routed, stats.chunks_processed)
            for qid, stats in restored.stats().per_query.items()
        } == ref_counts


def test_restore_can_switch_executor(tmp_path, stream, reference):
    """A checkpoint taken under one backend restores under another."""
    _, ref_finals, _, _ = reference
    checkpoint_dir = tmp_path / "ckpt"
    with SurgeService(make_specs(), shards=2, executor="process") as service:
        for chunk in iter_chunks(stream[: 4 * CHUNK_SIZE], CHUNK_SIZE):
            service.push_many(chunk)
        service.checkpoint(checkpoint_dir)
    restored = SurgeService.restore(checkpoint_dir, executor="serial")
    assert restored.executor_name == "serial"
    with restored:
        for _ in restored.run(stream, CHUNK_SIZE, start_offset=restored.chunk_offset):
            pass
        assert {qid: result_key(r) for qid, r in restored.results().items()} == (
            ref_finals
        )


def test_registry_mutations_survive_restore(tmp_path, stream):
    """add/remove before the checkpoint keep their shard assignment after."""
    specs = make_specs()[:4]
    late = QuerySpec(
        query_id="late",
        query=SurgeQuery(rect_width=1.0, rect_height=1.0, window_length=20.0),
        algorithm="ccs",
        keyword="concert",
        backend="python",
    )
    checkpoint_dir = tmp_path / "ckpt"

    def play(service, mutate):
        it = iter_chunks(stream, CHUNK_SIZE)
        with service:
            for _ in range(3):
                service.push_many(next(it))
            mutate(service)
            for chunk in it:
                service.push_many(chunk)
            return {qid: result_key(r) for qid, r in service.results().items()}

    def mutate(service):
        service.remove_query(specs[1].query_id)
        service.add_query(late)

    expected = play(SurgeService(specs, shards=3), mutate)

    def mutate_then_checkpoint(service):
        mutate(service)
        service.checkpoint()

    doomed = SurgeService(
        specs, shards=3, checkpoint_dir=checkpoint_dir
    )
    it = iter_chunks(stream, CHUNK_SIZE)
    with doomed:
        for _ in range(3):
            doomed.push_many(next(it))
        mutate_then_checkpoint(doomed)
    restored = SurgeService.restore(checkpoint_dir)
    with restored:
        for chunk in iter_chunks(stream, CHUNK_SIZE, start_offset=3):
            restored.push_many(chunk)
        got = {qid: result_key(r) for qid, r in restored.results().items()}
    assert got == expected


# ---------------------------------------------------------------------------
# Failure modes and plumbing
# ---------------------------------------------------------------------------
class TestRestoreValidation:
    def test_restore_without_checkpoint(self, tmp_path):
        with pytest.raises(SnapshotError, match="no service checkpoint"):
            SurgeService.restore(tmp_path)

    def test_unknown_manifest_schema(self, tmp_path, stream):
        with SurgeService(make_specs()[:2], checkpoint_dir=tmp_path) as service:
            service.push_many(stream[:50])
            service.checkpoint()
        path = manifest_path(tmp_path)
        record = json.loads(path.read_text())
        record["schema"] = "service-manifest/v42"
        path.write_text(json.dumps(record))
        with pytest.raises(SnapshotSchemaError) as excinfo:
            SurgeService.restore(tmp_path)
        assert "service-manifest/v42" in str(excinfo.value)
        assert MANIFEST_SCHEMA in str(excinfo.value)

    @staticmethod
    def write_old_snapshot(path, kind, schema):
        """A snapshot file as earlier commits wrote them — ``v1`` without a
        checksum, later ones with a valid one, so only the version can refuse
        them — and a payload that must never be reached."""
        payload = b"not a pickle"
        header = {"schema": schema, "kind": kind, "meta": {}}
        if schema != "snapshot/v1":
            header.update(crc32=zlib.crc32(payload), payload_bytes=len(payload))
        path.write_bytes(SNAPSHOT_MAGIC + json.dumps(header).encode() + b"\n" + payload)

    @staticmethod
    def assert_names_both(excinfo, found, expected):
        assert type(excinfo.value) is SnapshotSchemaError
        assert found in str(excinfo.value) and expected in str(excinfo.value)

    def refuse_monitor_file(self, tmp_path, schema):
        path = tmp_path / "monitor.snap"
        self.write_old_snapshot(path, "monitor", schema)
        with pytest.raises(SnapshotSchemaError) as excinfo:
            SurgeMonitor.load(path)
        self.assert_names_both(excinfo, schema, SNAPSHOT_SCHEMA)

    def test_v1_monitor_file_is_refused(self, tmp_path):
        self.refuse_monitor_file(tmp_path, "snapshot/v1")

    def test_v2_monitor_file_is_refused(self, tmp_path):
        self.refuse_monitor_file(tmp_path, "snapshot/v2")

    def test_v3_monitor_file_is_refused(self, tmp_path):
        self.refuse_monitor_file(tmp_path, "snapshot/v3")

    def test_v4_monitor_file_is_refused(self, tmp_path):
        """``v4`` kept each GAP-SURGE grid's scores in a heap."""
        self.refuse_monitor_file(tmp_path, "snapshot/v4")

    def refuse_shard_file(self, tmp_path, stream, schema):
        with SurgeService(make_specs()[:2], shards=2, checkpoint_dir=tmp_path) as s:
            s.push_many(stream[:50])
            s.checkpoint()
        self.write_old_snapshot(
            next(tmp_path.glob("shard-01*.ckpt")), "service-shard", schema
        )
        with pytest.raises(SnapshotSchemaError) as excinfo:
            SurgeService.restore(tmp_path)
        self.assert_names_both(excinfo, schema, SNAPSHOT_SCHEMA)

    def test_v1_shard_file_is_refused(self, tmp_path, stream):
        self.refuse_shard_file(tmp_path, stream, "snapshot/v1")

    def test_v2_shard_file_is_refused(self, tmp_path, stream):
        self.refuse_shard_file(tmp_path, stream, "snapshot/v2")

    def test_v3_shard_file_is_refused(self, tmp_path, stream):
        self.refuse_shard_file(tmp_path, stream, "snapshot/v3")

    def test_v4_shard_file_is_refused(self, tmp_path, stream):
        self.refuse_shard_file(tmp_path, stream, "snapshot/v4")

    def test_v3_ingest_file_is_refused(self, tmp_path, stream):
        """``v3`` ingest snapshots held a dict of buffer and pending list and
        left the counters in the manifest; ``v4`` holds the tier."""
        with SurgeService(make_specs()[:2], checkpoint_dir=tmp_path) as service:
            for _ in service.feed(stream[:50], CHUNK_SIZE):
                pass
            service.checkpoint()
        self.write_old_snapshot(
            next(tmp_path.glob("ingest.*.ckpt")), "service-ingest", "snapshot/v3"
        )
        with pytest.raises(SnapshotSchemaError) as excinfo:
            SurgeService.restore(tmp_path)
        self.assert_names_both(excinfo, "snapshot/v3", SNAPSHOT_SCHEMA)

    def test_v1_manifest_is_refused_after_the_fallback_fails_too(
        self, tmp_path, stream
    ):
        self.refuse_manifest(tmp_path, stream, "service-manifest/v1")

    def test_v2_manifest_is_refused_after_the_fallback_fails_too(
        self, tmp_path, stream
    ):
        self.refuse_manifest(tmp_path, stream, "service-manifest/v2")

    def test_v3_manifest_is_refused_after_the_fallback_fails_too(
        self, tmp_path, stream
    ):
        self.refuse_manifest(tmp_path, stream, "service-manifest/v3")

    def refuse_manifest(self, tmp_path, stream, schema):
        with SurgeService(make_specs()[:2], checkpoint_dir=tmp_path) as service:
            for chunk in iter_chunks(stream[: 2 * CHUNK_SIZE], CHUNK_SIZE):
                service.push_many(chunk)
                service.checkpoint()
        paths = (manifest_path(tmp_path), previous_manifest_path(tmp_path))
        for path in paths:
            record = json.loads(path.read_text())
            assert record["schema"] == MANIFEST_SCHEMA
            record["schema"] = schema
            path.write_text(json.dumps(record))
        with pytest.raises(SnapshotSchemaError) as excinfo:
            SurgeService.restore(tmp_path)
        self.assert_names_both(excinfo, schema, MANIFEST_SCHEMA)
        assert str(paths[0]) in str(excinfo.value)

    def test_missing_shard_file(self, tmp_path, stream):
        with SurgeService(make_specs()[:2], shards=2, checkpoint_dir=tmp_path) as s:
            s.push_many(stream[:50])
            s.checkpoint()
        victim = next(tmp_path.glob("shard-01*.ckpt"))
        victim.unlink()
        with pytest.raises(SnapshotError, match="missing shard snapshot"):
            SurgeService.restore(tmp_path)

    def test_checkpoint_without_directory(self, stream):
        with SurgeService(make_specs()[:1]) as service:
            service.push_many(stream[:50])
            with pytest.raises(ValueError, match="no checkpoint directory"):
                service.checkpoint()

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_scatter_requires_one_message_per_shard(self, executor):
        from repro.service.shards import make_executor

        backend = make_executor(executor, [[], []])
        try:
            with pytest.raises(ValueError, match="one message per shard"):
                backend.scatter([("results",)])
        finally:
            backend.close()


class TestDurabilityPlumbing:
    def test_wal_records_every_chunk_and_checkpoint(self, tmp_path, stream):
        with SurgeService(
            make_specs()[:2],
            checkpoint_dir=tmp_path,
            checkpoint_policy=CheckpointPolicy(every_chunks=2),
        ) as service:
            for _ in service.run(stream[: 5 * CHUNK_SIZE], CHUNK_SIZE):
                pass
        state = ChunkWal.read(wal_path(tmp_path))
        # 5 chunks, checkpoints after chunks 2 and 4: the WAL holds the
        # generation-2 checkpoint plus the single chunk after it.
        assert state.checkpoint is not None
        assert state.checkpoint.chunk_offset == 4
        assert state.checkpoint.generation == 2
        assert state.lost_chunks == 1
        assert state.next_chunk_offset == 5
        manifest = read_manifest(tmp_path)
        assert manifest.chunk_offset == 4
        # Pruning keeps the last two generations so a torn newest
        # checkpoint can fall back to MANIFEST.prev.json on restore.
        assert sorted(p.name for p in tmp_path.glob("shard-*.ckpt")) == [
            "shard-00.g000001.ckpt",
            "shard-00.g000002.ckpt",
        ]

    def test_prune_generations_returns_the_failed_delete_count(
        self, tmp_path, monkeypatch
    ):
        import repro.state.recovery as recovery_module

        monkeypatch.setattr(recovery_module, "_prune_warned", True)  # quiet
        for generation in (1, 2, 3):
            (tmp_path / f"shard-00.g{generation:06d}.ckpt").write_bytes(b"x")

        def refusing_unlink(self, *args, **kwargs):
            raise PermissionError(f"unlink refused: {self}")

        monkeypatch.setattr(Path, "unlink", refusing_unlink)
        # keep {g3, g2}: only the g1 file is stale, and its delete fails.
        assert recovery_module.prune_generations(tmp_path, 3) == 1

    def test_prune_failures_are_counted_and_warned_once(
        self, tmp_path, stream, monkeypatch, caplog
    ):
        """Satellite: failed prune deletes reach stats; the log warns once.

        A read-only or shared checkpoint directory must not crash the
        checkpoint (the manifest never names stale files) — but it must
        not be silent either, or the directory grows until the disk fills.
        """
        import repro.state.recovery as recovery_module

        monkeypatch.setattr(recovery_module, "_prune_warned", False)
        real_unlink = Path.unlink

        def refusing_unlink(self, *args, **kwargs):
            if self.suffix == ".ckpt":
                raise PermissionError(f"unlink refused: {self}")
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", refusing_unlink)
        with caplog.at_level(logging.WARNING, logger="repro.state.recovery"):
            with SurgeService(
                make_specs()[:1],
                checkpoint_dir=tmp_path,
                checkpoint_policy=CheckpointPolicy(every_chunks=2),
            ) as service:
                for _ in service.run(stream[: 8 * CHUNK_SIZE], CHUNK_SIZE):
                    pass
                # Generations 1..4, each a shard file plus the ingest
                # tier's (run() goes through it): the g3 checkpoint fails
                # to delete g1, the g4 checkpoint fails to delete g1 and g2.
                assert service.checkpoint_prune_errors == 6
        events = [
            getattr(record, "event", None)
            for record in caplog.records
            if record.name == "repro.state.recovery"
        ]
        assert events.count("checkpoint_prune_errors") == 1
        # Nothing was deleted: every generation's snapshot is still on disk.
        assert len(list(tmp_path.glob("shard-00.*.ckpt"))) == 4

    def test_fresh_attach_refuses_an_existing_checkpoint(self, tmp_path, stream):
        """Constructing over someone else's checkpoint must not clobber it."""
        with SurgeService(make_specs()[:1], checkpoint_dir=tmp_path) as service:
            service.push_many(stream[:50])
            service.checkpoint()
        with pytest.raises(ValueError, match="restore"):
            SurgeService(make_specs()[:1], checkpoint_dir=tmp_path)
        # The original checkpoint is untouched and still restores.
        with SurgeService.restore(tmp_path, attach=False) as restored:
            assert restored.chunk_offset == 1

    def test_restore_resets_the_stale_wal(self, tmp_path, stream):
        """Replayed chunks must not be double-counted by the crash-era log."""
        doomed = SurgeService(
            make_specs()[:2],
            checkpoint_dir=tmp_path,
            checkpoint_policy=CheckpointPolicy(every_chunks=3),
        )
        chunks = iter(iter_chunks(stream, CHUNK_SIZE))
        with doomed:
            for _ in range(5):  # checkpoint at 3; chunks 3 and 4 die with us
                doomed.push_many(next(chunks))
        assert ChunkWal.read(wal_path(tmp_path)).lost_chunks == 2
        restored = SurgeService.restore(tmp_path)
        with restored:
            for chunk in iter_chunks(stream, CHUNK_SIZE, start_offset=3):
                restored.push_many(chunk)
        state = ChunkWal.read(wal_path(tmp_path))
        offsets = [record["chunk"] for record in state.chunks_after_checkpoint]
        # Exactly-once ledger: every offset after the last checkpoint appears
        # once — the crash-era records for chunks 3 and 4 were reset away.
        assert offsets == sorted(set(offsets))
        assert state.next_chunk_offset == restored.chunk_offset

    def test_empty_chunks_do_not_advance_the_replay_offset(self, tmp_path, stream):
        with SurgeService(make_specs()[:1], checkpoint_dir=tmp_path) as service:
            service.push_many(stream[:30])
            service.push_many([])  # a no-op for every monitor
            service.push_many(stream[30:60])
            assert service.chunk_offset == 2  # only the real chunks count
        state = ChunkWal.read(wal_path(tmp_path))
        assert [record["chunk"] for record in state.chunks_after_checkpoint] == [0, 1]

    def test_registry_changes_are_immediately_durable(self, tmp_path, stream):
        """A crash right after add/remove must not lose the registry change."""
        late = QuerySpec(
            query_id="late",
            query=SurgeQuery(rect_width=1.0, rect_height=1.0, window_length=20.0),
            algorithm="ccs",
            keyword="concert",
            backend="python",
        )
        doomed = SurgeService(make_specs()[:2], shards=2, checkpoint_dir=tmp_path)
        with doomed:
            doomed.push_many(stream[:50])
            doomed.add_query(late)
            removed = make_specs()[0].query_id
            doomed.remove_query(removed)
            # Crash immediately: no explicit checkpoint after the mutations.
        restored = SurgeService.restore(tmp_path, attach=False)
        with restored:
            assert "late" in restored.query_ids
            assert removed not in restored.query_ids

    def test_stream_time_policy_triggers(self, tmp_path, stream):
        # Arrivals are ~0.3s apart with a 150s jump mid-stream; a 40s policy
        # must checkpoint at least at the jump.
        with SurgeService(
            make_specs()[:2],
            checkpoint_dir=tmp_path,
            checkpoint_policy=CheckpointPolicy(every_stream_seconds=40.0),
        ) as service:
            for _ in service.run(stream, CHUNK_SIZE):
                pass
        assert read_manifest(tmp_path).generation >= 2

    def test_resume_after_completion_is_a_noop(self, tmp_path, stream):
        with SurgeService(make_specs()[:3], checkpoint_dir=tmp_path) as service:
            for _ in service.run(stream, CHUNK_SIZE):
                pass
            service.checkpoint()
            finals = {qid: result_key(r) for qid, r in service.results().items()}
        restored = SurgeService.restore(tmp_path)
        with restored:
            replayed = list(
                restored.run(stream, CHUNK_SIZE, start_offset=restored.chunk_offset)
            )
            assert replayed == []
            assert {
                qid: result_key(r) for qid, r in restored.results().items()
            } == finals

    def test_detached_restore_relocates_extra_and_policy(self, tmp_path, stream):
        """restore(a, attach=False) + checkpoint(b): b records what a did."""
        a, b = tmp_path / "a", tmp_path / "b"
        policy = CheckpointPolicy(every_chunks=2)
        chunks = list(iter_chunks(stream, CHUNK_SIZE))
        with SurgeService(
            make_specs()[:2],
            checkpoint_dir=a,
            checkpoint_policy=policy,
            checkpoint_extra={"chunk_size": CHUNK_SIZE},
        ) as service:
            for chunk in chunks[:2]:
                service.push_many(chunk)
        recorded = read_manifest(a)
        with SurgeService.restore(a, attach=False) as detached:
            assert detached.checkpoint_dir is None
            assert detached.checkpoint_policy == policy
            assert detached.checkpoint_extra == {"chunk_size": CHUNK_SIZE}
            # Detached: the carried cadence is never consulted — no WAL, no
            # automatic checkpoint, here or in the source directory.
            for chunk in chunks[2:5]:
                detached.push_many(chunk)
            assert read_manifest(a).generation == recorded.generation
            assert ChunkWal.read(wal_path(a)).lost_chunks == 0
            detached.checkpoint(b)
        relocated = read_manifest(b)
        assert relocated.extra == recorded.extra == {"chunk_size": CHUNK_SIZE}
        assert relocated.policy == recorded.policy == policy.to_dict()
        with SurgeService.restore(b) as resumed:
            assert resumed.checkpoint_policy == policy
            for chunk in chunks[5:7]:
                resumed.push_many(chunk)
        assert read_manifest(b).generation == relocated.generation + 1

    def test_manual_checkpoint_to_explicit_directory(self, tmp_path, stream):
        target = tmp_path / "one-off"
        with SurgeService(make_specs()[:2]) as service:
            service.push_many(stream[:100])
            path = service.checkpoint(target)
            assert path == manifest_path(target)
            # One-off checkpoints do not attach the directory.
            assert service.checkpoint_dir is None
        restored = SurgeService.restore(target, attach=False)
        with restored:
            assert restored.chunk_offset == 1


class TestMeasureRecovery:
    """The staged-crash harness behind ``benchmarks/bench_recovery.py``."""

    def test_times_both_paths_and_asserts_parity(self, tmp_path, stream):
        from repro.evaluation.runner import measure_recovery

        outcome = measure_recovery(
            make_specs()[:3],
            stream,
            tmp_path / "crash",
            chunk_size=CHUNK_SIZE,
            checkpoint_every=2,
            crash_fraction=0.75,
        )
        assert outcome.chunks_total == -(-len(stream) // CHUNK_SIZE)
        assert 0 < outcome.crash_chunk_offset < outcome.chunks_total
        assert 0 < outcome.checkpoint_chunk_offset <= outcome.crash_chunk_offset
        assert outcome.checkpoints_written >= 1
        assert outcome.full_replay_seconds > 0.0
        assert outcome.restore_seconds > 0.0
        assert outcome.resume_seconds == (
            outcome.restore_seconds + outcome.tail_replay_seconds
        )
        assert outcome.speedup_vs_full_replay > 0.0

    def test_refuses_a_crash_before_any_checkpoint(self, tmp_path, stream):
        from repro.evaluation.runner import measure_recovery

        with pytest.raises(ValueError, match="no checkpoint was taken"):
            measure_recovery(
                make_specs()[:1],
                stream,
                tmp_path / "crash",
                chunk_size=CHUNK_SIZE,
                checkpoint_every=10_000,
            )

    def test_refuses_a_stream_too_short_to_crash(self, tmp_path, stream):
        from repro.evaluation.runner import measure_recovery

        with pytest.raises(ValueError, match="too short"):
            measure_recovery(
                make_specs()[:1],
                stream[:10],
                tmp_path / "crash",
                chunk_size=1_000,
            )


# ---------------------------------------------------------------------------
# CLI: repro serve --checkpoint-dir / --resume
# ---------------------------------------------------------------------------
class TestCliResume:
    @pytest.fixture()
    def cli_env(self, tmp_path, stream):
        from repro.cli import main
        from repro.datasets.io import write_csv_stream

        cut = 5 * CHUNK_SIZE  # a chunk boundary, so prefix chunks line up
        full = tmp_path / "stream.csv"
        partial = tmp_path / "partial.csv"
        write_csv_stream(full, stream)
        write_csv_stream(partial, stream[:cut])
        queries = tmp_path / "queries.json"
        queries.write_text(
            json.dumps(
                [
                    {"id": "concerts", "keyword": "concert", "rect": [1.0, 1.0],
                     "window": 20, "backend": "python"},
                    {"id": "all", "rect": [1.2, 1.2], "window": 15,
                     "algorithm": "gaps"},
                ]
            )
        )
        return main, tmp_path, full, partial, queries

    @staticmethod
    def serve(main, stream_file, *extra):
        return main(
            ["serve", str(stream_file), "--chunk-size", str(CHUNK_SIZE), *extra]
        )

    @staticmethod
    def finals(capsys):
        out = capsys.readouterr().out.splitlines()
        return out[out.index("final results:") :]

    def test_crash_and_resume_matches_uninterrupted(self, cli_env, capsys):
        main, tmp_path, full, partial, queries = cli_env
        ckpt = tmp_path / "ckpt"

        assert self.serve(main, full, "--queries", str(queries)) == 0
        expected = self.finals(capsys)

        # The "crash": the victim only ever saw the stream prefix (cut at a
        # chunk boundary), checkpointing as it went.
        assert (
            self.serve(
                main,
                partial,
                "--queries",
                str(queries),
                "--checkpoint-dir",
                str(ckpt),
                "--checkpoint-every",
                "2",
            )
            == 0
        )
        capsys.readouterr()
        # Resume over the full stream replays only the unseen chunks.
        assert self.serve(main, full, "--resume", "--checkpoint-dir", str(ckpt)) == 0
        assert self.finals(capsys) == expected

    def test_resume_defaults_to_the_recorded_executor(self, cli_env, capsys):
        """--resume without --executor must not downgrade the backend."""
        main, tmp_path, full, partial, queries = cli_env
        ckpt = tmp_path / "ckpt"
        assert (
            self.serve(
                main, partial, "--queries", str(queries),
                "--executor", "process", "--shards", "2",
                "--checkpoint-dir", str(ckpt),
            )
            == 0
        )
        capsys.readouterr()
        assert self.serve(main, full, "--resume", "--checkpoint-dir", str(ckpt)) == 0
        err = capsys.readouterr().err
        assert "executor=process" in err
        assert "shards=2" in err

    def test_resume_requires_checkpoint_dir(self, cli_env, capsys):
        main, _, full, _, _ = cli_env
        assert self.serve(main, full, "--resume") == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_refuses_other_chunk_size(self, cli_env, capsys):
        main, tmp_path, full, partial, queries = cli_env
        ckpt = tmp_path / "ckpt"
        assert (
            self.serve(
                main, partial, "--queries", str(queries),
                "--checkpoint-dir", str(ckpt),
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            ["serve", str(full), "--chunk-size", str(CHUNK_SIZE + 1),
             "--resume", "--checkpoint-dir", str(ckpt)]
        )
        assert code == 2
        assert "chunk-size" in capsys.readouterr().err

    def test_relocated_checkpoint_keeps_the_chunk_size_guard(self, cli_env, capsys):
        main, tmp_path, full, partial, queries = cli_env
        a, b = tmp_path / "a", tmp_path / "b"
        assert (
            self.serve(main, partial, "--queries", str(queries),
                       "--checkpoint-dir", str(a))
            == 0
        )
        with SurgeService.restore(a, attach=False) as detached:
            detached.checkpoint(b)
        capsys.readouterr()
        code = main(
            ["serve", str(full), "--chunk-size", str(CHUNK_SIZE + 1),
             "--resume", "--checkpoint-dir", str(b)]
        )
        assert code == 2
        assert (
            "replay offsets only line up at the original chunking"
            in capsys.readouterr().err
        )

    def test_fresh_start_refuses_existing_checkpoint(self, cli_env, capsys):
        main, tmp_path, full, partial, queries = cli_env
        ckpt = tmp_path / "ckpt"
        assert (
            self.serve(
                main, partial, "--queries", str(queries),
                "--checkpoint-dir", str(ckpt),
            )
            == 0
        )
        capsys.readouterr()
        assert (
            self.serve(
                main, full, "--queries", str(queries), "--checkpoint-dir", str(ckpt)
            )
            == 2
        )
        assert "--resume" in capsys.readouterr().err

    def test_seconds_only_policy_keeps_the_chunk_default(self, tmp_path):
        """--checkpoint-every-seconds adds a trigger, it does not drop one."""
        from repro.cli import _build_parser, _build_serve_service
        from repro.service.service import DEFAULT_CHECKPOINT_EVERY_CHUNKS

        args = _build_parser().parse_args(
            ["serve", "ignored.csv", "--queries", "also-ignored.json",
             "--checkpoint-dir", str(tmp_path / "d"),
             "--checkpoint-every-seconds", "3600"]
        )
        # Build only the policy path: the queries file does not exist, so
        # stop at the load error after the policy was already constructed.
        with pytest.raises(ValueError, match="failed to load"):
            _build_serve_service(args)
        from repro.state import CheckpointPolicy

        policy = CheckpointPolicy(
            every_chunks=DEFAULT_CHECKPOINT_EVERY_CHUNKS,
            every_stream_seconds=3600.0,
        )
        # Re-parse with an existing queries file to observe the policy.
        queries = tmp_path / "q.json"
        queries.write_text(
            json.dumps([{"id": "q", "rect": [1.0, 1.0], "window": 20}])
        )
        args = _build_parser().parse_args(
            ["serve", "ignored.csv", "--queries", str(queries),
             "--checkpoint-dir", str(tmp_path / "d"),
             "--checkpoint-every-seconds", "3600"]
        )
        service = _build_serve_service(args)
        with service:
            assert service.chunk_offset == 0
            assert service.checkpoint_policy == policy

    def test_checkpoint_flags_require_directory(self, cli_env, capsys):
        main, _, full, _, queries = cli_env
        assert (
            self.serve(
                main, full, "--queries", str(queries), "--checkpoint-every", "4"
            )
            == 2
        )
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_runs_at_the_recorded_chunk_size(self, cli_env, capsys):
        """--chunk-size need not be restated: its default is a fresh start's."""
        main, tmp_path, full, partial, queries = cli_env
        ckpt = tmp_path / "ckpt"
        assert self.serve(main, full, "--queries", str(queries)) == 0
        expected = self.finals(capsys)
        assert (
            self.serve(main, partial, "--queries", str(queries),
                       "--checkpoint-dir", str(ckpt))
            == 0
        )
        capsys.readouterr()
        assert main(["serve", str(full), "--resume", "--checkpoint-dir", str(ckpt)]) == 0
        assert self.finals(capsys) == expected

    #: setting -> (flags recording it, a differing request of the same flags)
    SETTINGS = {
        "chunk_size": (("--chunk-size", str(CHUNK_SIZE)),
                       ("--chunk-size", str(CHUNK_SIZE - 1))),
        "max_lateness": (("--max-lateness", "5"), ("--max-lateness", "6")),
        "max_inflight_chunks": (
            ("--max-lateness", "5", "--max-inflight-chunks", "4"),
            ("--max-inflight-chunks", "3"),
        ),
        "overload": (
            ("--overload-high", "8", "--overload-low", "2",
             "--overload-policy", "stretch", "--shed-below-priority", "1"),
            ("--overload-high", "8", "--overload-policy", "shed"),
        ),
        "compact_every_chunks": (("--compact-every", "3"), ("--compact-every", "4")),
    }

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    def test_every_replay_setting_is_refused_changed_and_kept_otherwise(
        self, cli_env, capsys, setting
    ):
        import shutil

        main, tmp_path, full, partial, queries = cli_env
        recorded, changed = self.SETTINGS[setting]
        # The setting under test alone is restated; whatever else shapes the
        # replay (the lateness a budget needs) is left to the recording.
        restated = recorded[-2:] if setting == "max_inflight_chunks" else recorded
        if setting != "chunk_size":
            recorded = ("--chunk-size", str(CHUNK_SIZE), *recorded)
        assert main(["serve", str(full), *recorded, "--queries", str(queries)]) == 0
        expected = self.finals(capsys)
        victim = tmp_path / "victim"
        assert (
            main(["serve", str(partial), *recorded, "--queries", str(queries),
                  "--checkpoint-dir", str(victim)])
            == 0
        )
        capsys.readouterr()
        copies = {case: tmp_path / case for case in ("restated", "omitted")}
        for copy in copies.values():
            shutil.copytree(victim, copy)

        def resume(directory, *flags):
            return main(["serve", str(full), "--resume", "--checkpoint-dir",
                         str(directory), *flags])

        assert resume(victim, *changed) == 2
        err = capsys.readouterr().err
        assert changed[0] in err and "cannot change mid-stream" in err
        assert resume(copies["restated"], *restated) == 0
        assert self.finals(capsys) == expected
        assert resume(copies["omitted"]) == 0
        assert self.finals(capsys) == expected

    def test_two_conflicting_flags_make_one_error_naming_both(self, cli_env, capsys):
        main, tmp_path, full, partial, queries = cli_env
        ckpt = tmp_path / "ckpt"
        assert (
            self.serve(main, partial, "--queries", str(queries),
                       "--checkpoint-dir", str(ckpt))
            == 0
        )
        capsys.readouterr()
        code = main(
            ["serve", str(full), "--chunk-size", str(CHUNK_SIZE + 1),
             "--compact-every", "2", "--resume", "--checkpoint-dir", str(ckpt)]
        )
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "--chunk-size" in err and "--compact-every" in err

    def test_resume_without_quarantine_dir_stays_tolerant(self, cli_env, capsys):
        """The screen mode is the checkpoint's: omitting --quarantine-dir on
        resume neither sorts the arrival-order file nor drops the ingest
        line of the compared block."""
        from repro.datasets.io import write_csv_stream
        from repro.service import load_query_specs
        from repro.streams.faults import FaultInjector

        main, tmp_path, _, _, queries = cli_env
        arrivals = FaultInjector(
            make_stream(), seed=5, poison_fraction=0.02,
            poison_kinds=("nan_timestamp",),
        ).materialize()
        poisoned = tmp_path / "poisoned.csv"
        write_csv_stream(poisoned, arrivals)
        assert (
            self.serve(main, poisoned, "--queries", str(queries),
                       "--quarantine-dir", str(tmp_path / "q1"))
            == 0
        )
        expected = self.finals(capsys)
        assert any(line.startswith("ingest:") for line in expected)
        # The victim stops mid-stream with a partial chunk held in its tier.
        ckpt = tmp_path / "ckpt"
        with SurgeService(
            load_query_specs(queries), checkpoint_dir=ckpt,
            quarantine_dir=tmp_path / "q2",
        ) as victim:
            for _ in victim.feed(arrivals[: len(arrivals) // 2], CHUNK_SIZE):
                pass
            victim.checkpoint()
        assert self.serve(main, poisoned, "--resume", "--checkpoint-dir", str(ckpt)) == 0
        assert self.finals(capsys) == expected


def test_v4_manifest_is_refused_before_any_payload_is_read(tmp_path, stream):
    """``v4`` kept the replay settings in three sections; ``v5`` has one."""
    from repro.service.replay import recorded_settings

    with SurgeService(make_specs()[:2], checkpoint_dir=tmp_path, max_lateness=1.0) as s:
        for _ in s.feed(stream[:100], CHUNK_SIZE):
            pass
        s.checkpoint()
        s.checkpoint()
    for path in tmp_path.glob("*.ckpt"):
        path.write_bytes(b"not a snapshot")  # reaching any payload would fail
    for path in (manifest_path(tmp_path), previous_manifest_path(tmp_path)):
        record = json.loads(path.read_text())
        record["schema"] = "service-manifest/v4"
        path.write_text(json.dumps(record))
    for attempt in (SurgeService.restore, recorded_settings):
        with pytest.raises(SnapshotSchemaError) as excinfo:
            attempt(tmp_path)
        assert type(excinfo.value) is SnapshotSchemaError
        message = str(excinfo.value)
        assert "service-manifest/v4" in message and MANIFEST_SCHEMA in message
