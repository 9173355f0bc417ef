"""Durable state: versioned snapshots, WAL-backed crash recovery, policies.

This package turns the continuous monitors into restartable services:

* :mod:`repro.state.snapshot` — the ``snapshot/v5`` codec: schema-tagged,
  atomically-written files holding the complete live state of a
  :class:`~repro.core.monitor.SurgeMonitor` or one service shard;
* :mod:`repro.state.wal` — the chunk-offset write-ahead log giving
  exactly-once resume semantics (load last snapshot, replay only the chunks
  after its offset);
* :mod:`repro.state.policy` — :class:`CheckpointPolicy`: every N chunks
  and/or every T stream-seconds;
* :mod:`repro.state.recovery` — the checkpoint-directory layout (per-shard
  snapshot files + service manifest) shared by
  :meth:`repro.service.SurgeService.checkpoint` / ``restore`` and the
  ``repro serve --checkpoint-dir/--resume`` CLI;
* :mod:`repro.state.durability` — :class:`Durability`: one service's
  attached directory, cadence, WAL and generation counter.

Quickstart::

    from repro.state import CheckpointPolicy

    service = SurgeService(
        specs,
        checkpoint_dir="ckpt/",
        checkpoint_policy=CheckpointPolicy(every_chunks=64),
    )
    for updates in service.run(stream, chunk_size=512):
        ...                                   # checkpoints happen inline

    # after a crash:
    service = SurgeService.restore("ckpt/")
    for updates in service.run(stream, chunk_size=512,
                               start_offset=service.chunk_offset):
        ...                                   # replays only the lost tail
"""

from repro.state.durability import Durability
from repro.state.policy import CheckpointPolicy
from repro.state.recovery import (
    MANIFEST_SCHEMA,
    ServiceManifest,
    has_checkpoint,
    read_manifest,
    read_previous_manifest,
)
from repro.state.snapshot import (
    SNAPSHOT_SCHEMA,
    SnapshotError,
    SnapshotSchemaError,
    read_snapshot,
    read_snapshot_header,
    write_snapshot,
)
from repro.state.wal import WAL_SCHEMA, ChunkWal, WalCheckpoint, WalState

__all__ = [
    "CheckpointPolicy",
    "Durability",
    "ServiceManifest",
    "MANIFEST_SCHEMA",
    "has_checkpoint",
    "read_manifest",
    "read_previous_manifest",
    "SNAPSHOT_SCHEMA",
    "SnapshotError",
    "SnapshotSchemaError",
    "read_snapshot",
    "read_snapshot_header",
    "write_snapshot",
    "WAL_SCHEMA",
    "ChunkWal",
    "WalCheckpoint",
    "WalState",
]
