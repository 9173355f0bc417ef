"""Unit suite for the durable-state substrate (repro.state).

Covers the three layers beneath the service integration:

* the ``snapshot/v3`` codec — round-trip fidelity, atomicity guarantees
  (no temp-file debris, old file intact on failed writes), and the clear
  failure modes: bad magic, corrupt header, truncated payload, wrong kind,
  and — the contractually required one — an *unknown schema version*, which
  must raise :class:`~repro.state.SnapshotSchemaError` naming both versions
  before any payload bytes are unpickled;
* the chunk-offset WAL — append/checkpoint/read cycle, torn-tail tolerance,
  schema validation;
* the one atomic-write routine both use — the directory is fsynced after
  the rename, so the rename is durable;
* :class:`~repro.state.CheckpointPolicy` — chunk and stream-time triggers,
  validation.
"""

from __future__ import annotations

import json
import os
import pickle
import stat

import pytest

from repro.state import (
    CheckpointPolicy,
    SnapshotError,
    SnapshotSchemaError,
    read_snapshot,
    read_snapshot_header,
    write_snapshot,
)
from repro.state.snapshot import SNAPSHOT_MAGIC, SNAPSHOT_SCHEMA
from repro.state.wal import ChunkWal, WalCheckpoint


class TestSnapshotCodec:
    def test_round_trip(self, tmp_path):
        payload = {"deque": [1.5, 2.5], "nested": {"heap": [(-3.0, 1, (0, 1))]}}
        path = tmp_path / "state.snap"
        header = write_snapshot(path, "monitor", payload, meta={"offset": 7})
        assert header["schema"] == SNAPSHOT_SCHEMA
        got_header, got_payload = read_snapshot(path)
        assert got_header["kind"] == "monitor"
        assert got_header["meta"]["offset"] == 7
        assert got_payload == payload

    def test_floats_round_trip_bit_exactly(self, tmp_path):
        values = [0.1 + 0.2, 1e-300, float("inf"), -0.0, 2**53 + 1.0]
        path = tmp_path / "floats.snap"
        write_snapshot(path, "test", values)
        _, got = read_snapshot(path)
        assert all(a == b for a, b in zip(got, values))
        assert str(got[3]) == "-0.0"  # sign of zero preserved

    def test_header_readable_without_payload(self, tmp_path):
        path = tmp_path / "state.snap"
        write_snapshot(path, "service-shard", object(), meta={"shard": 3})
        header = read_snapshot_header(path)
        assert header["kind"] == "service-shard"
        assert header["meta"]["shard"] == 3

    def test_unknown_schema_version_fails_clearly(self, tmp_path):
        """The required error path: a snapshot from a newer/foreign codec."""
        path = tmp_path / "future.snap"
        write_snapshot(path, "monitor", {"x": 1})
        raw = path.read_bytes()
        header_end = raw.index(b"\n", len(SNAPSHOT_MAGIC))
        header = json.loads(raw[len(SNAPSHOT_MAGIC) : header_end])
        header["schema"] = "snapshot/v99"
        path.write_bytes(
            SNAPSHOT_MAGIC
            + json.dumps(header).encode()
            + raw[header_end:]
        )
        with pytest.raises(SnapshotSchemaError) as excinfo:
            read_snapshot(path)
        message = str(excinfo.value)
        assert "snapshot/v99" in message
        assert SNAPSHOT_SCHEMA in message
        # The cheap header probe fails the same way.
        with pytest.raises(SnapshotSchemaError):
            read_snapshot_header(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not-a-snapshot"
        path.write_bytes(b"PNG\x89 something else entirely")
        with pytest.raises(SnapshotError, match="not a repro snapshot"):
            read_snapshot(path)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "corrupt.snap"
        path.write_bytes(SNAPSHOT_MAGIC + b"{not json}\n")
        with pytest.raises(SnapshotError, match="corrupt snapshot header"):
            read_snapshot(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.snap"
        write_snapshot(path, "monitor", list(range(100)))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 20])
        with pytest.raises(SnapshotError, match="corrupt snapshot payload"):
            read_snapshot(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "kind.snap"
        write_snapshot(path, "monitor", {})
        with pytest.raises(SnapshotError, match="not the expected"):
            read_snapshot(path, expected_kind="service-shard")

    def test_unpicklable_payload_leaves_previous_file_intact(self, tmp_path):
        path = tmp_path / "state.snap"
        write_snapshot(path, "monitor", {"generation": 1})
        with pytest.raises(SnapshotError, match="cannot snapshot"):
            write_snapshot(path, "monitor", lambda: None)  # not picklable
        _, payload = read_snapshot(path)
        assert payload == {"generation": 1}
        assert list(tmp_path.glob("*.tmp")) == []  # no temp debris

    def test_payload_not_unpickled_on_schema_mismatch(self, tmp_path):
        """Schema check happens before any pickle bytes are touched."""
        path = tmp_path / "armed.snap"
        header = {"schema": "snapshot/v99", "kind": "monitor", "meta": {}}
        # A payload that would explode if unpickled.
        bomb = pickle.dumps(object)
        path.write_bytes(
            SNAPSHOT_MAGIC + json.dumps(header).encode() + b"\n" + b"\x80garbage"
        )
        del bomb
        with pytest.raises(SnapshotSchemaError):
            read_snapshot(path)


class TestPayloadChecksum:
    def test_header_records_crc_and_length(self, tmp_path):
        path = tmp_path / "state.snap"
        header = write_snapshot(path, "monitor", {"generation": 1})
        assert isinstance(header["crc32"], int)
        assert header["payload_bytes"] > 0
        assert read_snapshot_header(path)["crc32"] == header["crc32"]

    def test_bit_rot_detected_before_unpickling(self, tmp_path):
        path = tmp_path / "rotten.snap"
        write_snapshot(path, "monitor", list(range(100)))
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip bits in the last payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="CRC32 mismatch"):
            read_snapshot(path)

    def test_swapped_payload_of_equal_length_detected(self, tmp_path):
        """Length alone is not enough — the checksum catches same-size swaps."""
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        write_snapshot(a, "monitor", (1, 2, 3))
        write_snapshot(b, "monitor", (4, 5, 6))
        a_header = a.read_bytes().split(b"\n", 2)
        b_payload = b.read_bytes().split(b"\n", 2)[2]
        a.write_bytes(a_header[0] + b"\n" + a_header[1] + b"\n" + b_payload)
        with pytest.raises(SnapshotError, match="CRC32 mismatch"):
            read_snapshot(a)

    def test_file_without_checksum_is_refused(self, tmp_path):
        """No tier trusts bytes it cannot verify: the payload is not unpickled."""
        path = tmp_path / "unchecked.snap"
        written = write_snapshot(path, "monitor", {"deque": [1.5, 2.5]})
        payload = path.read_bytes().split(b"\n", 2)[2]
        for missing in ("crc32", "payload_bytes"):
            header = {key: written[key] for key in written if key != missing}
            path.write_bytes(
                SNAPSHOT_MAGIC + json.dumps(header).encode() + b"\n" + payload
            )
            with pytest.raises(SnapshotError, match="no crc32 / payload_bytes"):
                read_snapshot(path)


class TestChunkWal:
    def test_append_and_read(self, tmp_path):
        wal = ChunkWal(tmp_path / "wal.log")
        wal.append_chunk(0, 128, 12.5)
        wal.append_chunk(1, 128, 25.0)
        state = ChunkWal.read(wal.path)
        assert state.checkpoint is None
        assert state.lost_chunks == 2
        assert state.next_chunk_offset == 2
        assert not state.torn_tail

    def test_checkpoint_restarts_the_log(self, tmp_path):
        wal = ChunkWal(tmp_path / "wal.log")
        for index in range(5):
            wal.append_chunk(index, 64, float(index))
        wal.mark_checkpoint(WalCheckpoint(chunk_offset=5, generation=2, stream_time=4.0))
        wal.append_chunk(5, 64, 5.0)
        state = ChunkWal.read(wal.path)
        assert state.checkpoint == WalCheckpoint(5, 2, 4.0)
        assert state.lost_chunks == 1
        assert state.next_chunk_offset == 6
        # The pre-checkpoint records are physically gone (bounded log size).
        assert len(wal.path.read_text().splitlines()) == 3

    def test_torn_tail_is_tolerated(self, tmp_path):
        wal = ChunkWal(tmp_path / "wal.log")
        wal.append_chunk(0, 64, 1.0)
        with open(wal.path, "a") as handle:
            handle.write('{"type": "chunk", "chunk": 1, "obj')  # torn append
        state = ChunkWal.read(wal.path)
        assert state.torn_tail
        assert state.lost_chunks == 1  # only the complete record counts
        assert state.next_chunk_offset == 1

    def test_corrupt_middle_record_is_an_error(self, tmp_path):
        wal = ChunkWal(tmp_path / "wal.log")
        wal.append_chunk(0, 64, 1.0)
        with open(wal.path, "a") as handle:
            handle.write("{broken\n")
            handle.write('{"type": "chunk", "chunk": 1, "objects": 64, "end_time": 2.0}\n')
        with pytest.raises(SnapshotError, match="corrupt WAL record"):
            ChunkWal.read(wal.path)

    def test_unknown_wal_schema_fails_clearly(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_text('{"schema": "wal/v9"}\n')
        with pytest.raises(SnapshotSchemaError) as excinfo:
            ChunkWal.read(path)
        assert "wal/v9" in str(excinfo.value)

    def test_unknown_record_type_rejected(self, tmp_path):
        wal = ChunkWal(tmp_path / "wal.log")
        with open(wal.path, "a") as handle:
            handle.write('{"type": "mystery"}\n')
            handle.write('{"type": "chunk", "chunk": 0, "objects": 1, "end_time": 0.0}\n')
        with pytest.raises(SnapshotError, match="unknown WAL record type"):
            ChunkWal.read(wal.path)


class TestDurableRename:
    """Snapshot writes and WAL rewrites fsync the directory after the rename."""

    @pytest.fixture
    def syscalls(self, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            kind = "dir" if stat.S_ISDIR(info.st_mode) else "file"
            calls.append((f"fsync {kind}", info.st_ino))
            real_fsync(fd)

        def replace(source, target):
            calls.append(("replace", None))
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        return calls

    @staticmethod
    def kinds(calls):
        return [kind for kind, _ in calls]

    def test_snapshot_write(self, tmp_path, syscalls):
        write_snapshot(tmp_path / "state.snap", "test", {"a": 1})
        assert self.kinds(syscalls) == ["fsync file", "replace", "fsync dir"]
        assert syscalls[-1][1] == tmp_path.stat().st_ino

    def test_wal_rewrite(self, tmp_path, syscalls):
        wal = ChunkWal(tmp_path / "wal.log")
        wal.append_chunk(0, 64, 1.0)
        syscalls.clear()
        wal.mark_checkpoint(WalCheckpoint(chunk_offset=1, generation=1))
        assert self.kinds(syscalls) == ["fsync file", "replace", "fsync dir"]
        assert syscalls[-1][1] == tmp_path.stat().st_ino
        assert ChunkWal.read(wal.path).checkpoint == WalCheckpoint(1, 1)


class TestServiceManifest:
    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        from repro.state import read_manifest

        with pytest.raises(SnapshotError, match="no service checkpoint"):
            read_manifest(tmp_path)

    def test_corrupt_manifest_json(self, tmp_path):
        from repro.state import read_manifest
        from repro.state.recovery import manifest_path

        manifest_path(tmp_path).write_text("{not json")
        with pytest.raises(SnapshotError, match="corrupt service manifest"):
            read_manifest(tmp_path)

    def test_manifest_missing_field(self, tmp_path):
        from repro.state import MANIFEST_SCHEMA, read_manifest
        from repro.state.recovery import manifest_path

        manifest_path(tmp_path).write_text(json.dumps({"schema": MANIFEST_SCHEMA}))
        with pytest.raises(SnapshotError, match="missing or malformed"):
            read_manifest(tmp_path)

    def test_stream_time_encoding(self):
        from repro.state.recovery import decode_stream_time, encode_stream_time

        assert encode_stream_time(float("-inf")) is None
        assert decode_stream_time(None) == float("-inf")
        assert decode_stream_time(encode_stream_time(12.25)) == 12.25


class TestCheckpointPolicy:
    def test_chunk_trigger(self):
        policy = CheckpointPolicy(every_chunks=4)
        assert not policy.due(3, 10.0, 0.0)
        assert policy.due(4, 10.0, 0.0)
        assert policy.due(9, 10.0, 0.0)

    def test_stream_time_trigger(self):
        policy = CheckpointPolicy(every_stream_seconds=60.0)
        assert not policy.due(5, 59.0, 0.0)
        assert policy.due(5, 60.0, 0.0)
        # Before any checkpoint the reference time is -inf: fire immediately.
        assert policy.due(1, 0.0, float("-inf"))

    def test_either_trigger_fires(self):
        policy = CheckpointPolicy(every_chunks=100, every_stream_seconds=10.0)
        assert policy.due(1, 30.0, 0.0)  # time fired, chunks did not
        assert policy.due(100, 5.0, 0.0)  # chunks fired, time did not

    def test_never_due_with_nothing_new(self):
        policy = CheckpointPolicy(every_chunks=1, every_stream_seconds=0.001)
        assert not policy.due(0, 1e9, 0.0)

    def test_manual_policy(self):
        policy = CheckpointPolicy()
        assert not policy.automatic
        assert not policy.due(10_000, 1e9, float("-inf"))

    def test_round_trip(self):
        policy = CheckpointPolicy(every_chunks=7, every_stream_seconds=2.5)
        assert CheckpointPolicy.from_dict(policy.to_dict()) == policy
        assert CheckpointPolicy.from_dict({}) == CheckpointPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"every_chunks": 0},
            {"every_chunks": -3},
            {"every_stream_seconds": 0.0},
            {"every_stream_seconds": -1.0},
            {"every_stream_seconds": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CheckpointPolicy(**kwargs)
