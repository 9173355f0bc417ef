"""The durable side of one service: directory, cadence, WAL, generations.

:class:`Durability` owns what :class:`~repro.service.SurgeService` used to
keep in eight loose fields, and answers the three questions the service asks
— *log this chunk; is a checkpoint due?*, *which directory and generation
does the next checkpoint use?*, *publish this manifest*.  It needs no
service, only a directory.  **Detached** (no directory) means no WAL and no
automatic checkpoints; the policy and ``extra`` are still carried, so a
one-off ``checkpoint(directory)`` records them.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Any, Mapping

from repro.state.policy import CheckpointPolicy
from repro.state.recovery import (
    ServiceManifest,
    encode_stream_time,
    has_checkpoint,
    next_generation,
    prune_generations,
    wal_path,
    write_manifest,
)
from repro.state.wal import ChunkWal, WalCheckpoint

logger = logging.getLogger(__name__)

#: Chunk cadence of the default automatic checkpoint policy (used when a
#: ``checkpoint_dir`` is given without an explicit policy).
DEFAULT_CHECKPOINT_EVERY_CHUNKS = 64


def remote_cadence_floor(policy: CheckpointPolicy) -> CheckpointPolicy:
    """Enforce the remote tier's checkpoint-cadence floor.

    Under the remote executor every mutating message since the last
    durable generation sits in the coordinator's replay ledger, so the
    checkpoint cadence bounds both failover replay time and coordinator
    memory.  A policy with no chunk cadence (or one wider than
    :data:`~repro.distributed.executor.REMOTE_CHECKPOINT_FLOOR_CHUNKS`)
    is clamped to the floor, with a structured warning.
    """
    from repro.distributed.executor import REMOTE_CHECKPOINT_FLOOR_CHUNKS

    every = policy.every_chunks
    if every is not None and every <= REMOTE_CHECKPOINT_FLOOR_CHUNKS:
        return policy
    logger.warning(
        "remote executor clamps the checkpoint cadence to every %d "
        "chunks (requested: %s); the cadence bounds failover replay "
        "and the coordinator's ledger memory",
        REMOTE_CHECKPOINT_FLOOR_CHUNKS,
        "none" if every is None else f"every {every} chunks",
        extra={
            "event": "remote_checkpoint_floor",
            "requested_every_chunks": every,
            "floor_chunks": REMOTE_CHECKPOINT_FLOOR_CHUNKS,
        },
    )
    return CheckpointPolicy(
        every_chunks=REMOTE_CHECKPOINT_FLOOR_CHUNKS,
        every_stream_seconds=policy.every_stream_seconds,
    )


def _wal_mark(manifest: ServiceManifest) -> WalCheckpoint:
    return WalCheckpoint(
        chunk_offset=manifest.chunk_offset,
        generation=manifest.generation,
        stream_time=encode_stream_time(manifest.stream_time),
    )


class Durability:
    """Checkpoint directory, cadence and write-ahead log of one service.

    ``directory``, ``policy`` and ``extra`` are :class:`~repro.service.
    SurgeService`'s ``checkpoint_dir`` / ``checkpoint_policy`` /
    ``checkpoint_extra``, documented there.  ``remote`` says the service
    runs the remote executor, whose replay ledger needs
    :func:`remote_cadence_floor` applied to an attached cadence.

    ``resumed`` is the manifest the service state was just restored from;
    ``None`` means a fresh service, which refuses a directory that already
    holds a checkpoint — attaching would overwrite it on the first
    snapshot.  Either way the WAL is atomically reset to match *this*
    service's durable state: a stale log (from the crash being recovered,
    or from an unrelated previous run) would double-count the replayed
    chunks otherwise.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        policy: CheckpointPolicy | None = None,
        extra: Mapping[str, Any] | None = None,
        *,
        remote: bool = False,
        resumed: ServiceManifest | None = None,
    ) -> None:
        self.extra: dict[str, Any] = dict(extra) if extra else {}
        #: Checkpoint prune deletes that failed (see prune_generations):
        #: counted, never fatal — stale generations only cost disk.
        self.prune_errors = 0
        self.directory: Path | None = None
        self._wal: ChunkWal | None = None
        self._generation = 0
        self._last_offset = 0
        self._last_time = float("-inf")
        if directory is None:
            self.policy = policy if policy is not None else CheckpointPolicy()
            return
        directory = Path(directory)
        if resumed is None and has_checkpoint(directory):
            raise ValueError(
                f"{directory} already holds a service checkpoint; use "
                f"SurgeService.restore({str(directory)!r}) to continue it, "
                f"or point checkpoint_dir at a fresh directory"
            )
        if policy is None:
            policy = CheckpointPolicy(every_chunks=DEFAULT_CHECKPOINT_EVERY_CHUNKS)
        self.policy = remote_cadence_floor(policy) if remote else policy
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        self._resolved = directory.resolve()
        self._wal = ChunkWal(wal_path(directory))
        self._wal.reset(_wal_mark(resumed) if resumed is not None else None)
        if resumed is not None:
            self._mark(resumed)

    def _mark(self, manifest: ServiceManifest) -> None:
        # The service wrote (or restored) the attached directory's last
        # manifest itself, so the generation counter lives in memory — no
        # O(registry) manifest re-parse on the ingestion path.
        self._generation = manifest.generation
        self._last_offset = manifest.chunk_offset
        self._last_time = manifest.stream_time

    @property
    def attached(self) -> bool:
        """Whether chunks are logged and automatic checkpoints taken."""
        return self._wal is not None

    def log_chunk(self, chunk_offset: int, objects: int, stream_time: float) -> bool:
        """Log the chunk applied at ``chunk_offset``; is a checkpoint due now?

        Attached only.  ``stream_time`` is the chunk's end time, which is
        the service clock once the chunk is applied.
        """
        self._wal.append_chunk(chunk_offset, objects, stream_time)
        return self.due(chunk_offset + 1, stream_time)

    def due(self, chunks_applied: int, stream_time: float, stretch: int = 1) -> bool:
        """Whether the cadence, widened ``stretch`` times, wants a checkpoint."""
        policy = self.policy if stretch == 1 else self.policy.scaled(stretch)
        return policy.due(
            chunks_applied - self._last_offset, stream_time, self._last_time
        )

    def _owns(self, target: Path) -> bool:
        # Spelling-insensitive "is this the attached directory?" — a relative
        # vs absolute path must not fork the bookkeeping.
        return self.directory is not None and (
            target is self.directory or target.resolve() == self._resolved
        )

    def allocate(self, directory: str | Path | None = None) -> tuple[Path, int]:
        """The directory and generation number of the next checkpoint.

        With no argument the attached directory is used (this is what the
        automatic policy asks for); an explicit ``directory`` is a one-off
        target whose generation continues whatever manifest it holds.
        """
        target = Path(directory) if directory is not None else self.directory
        if target is None:
            raise ValueError(
                "no checkpoint directory: construct the service with "
                "checkpoint_dir=... or pass an explicit directory"
            )
        target.mkdir(parents=True, exist_ok=True)
        if self._owns(target):
            return target, self._generation + 1
        return target, next_generation(target)

    def publish(self, target: Path, manifest: ServiceManifest) -> Path:
        """Make a finished generation the checkpoint of ``target``.

        Every snapshot file the manifest names is already on disk.  The
        manifest is atomically replaced, the WAL restarted from the new
        checkpoint record, and superseded generations pruned; a crash at
        any point leaves the previous checkpoint fully usable.
        """
        path = write_manifest(target, manifest)
        if self._owns(target):
            self._wal.mark_checkpoint(_wal_mark(manifest))
            self._mark(manifest)
        else:
            ChunkWal(wal_path(target)).mark_checkpoint(_wal_mark(manifest))
        self.prune_errors += prune_generations(target, manifest.generation)
        return path
