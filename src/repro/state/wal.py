"""Chunk-offset write-ahead log for the checkpoint subsystem.

The durable state of a service is a *snapshot* (taken every N chunks / T
stream-seconds) plus this log.  The WAL records, per ingested chunk, the
chunk offset, its object count and its end-of-chunk stream time; at every
checkpoint it is atomically rewritten to start from a ``checkpoint`` record.
Recovery therefore needs no scan of the stream itself::

    last checkpoint record  ->  which snapshot generation to load, and the
                                chunk offset its state already contains
    chunk records after it  ->  exactly the chunks whose effects were lost
                                with the process (they are re-applied by
                                replaying the stream from the snapshot's
                                offset via ``iter_chunks(start_offset=...)``)

This gives exactly-once resume semantics with respect to durable state: a
chunk is either inside the snapshot (offset < checkpoint offset) or replayed
(offset >= checkpoint offset) — never both, never neither — for any stream
source that can reproduce its chunk sequence (same source, same chunk size).

Format: JSON Lines.  The first line is a header ``{"schema": "wal/v1"}``;
every following line is one record with a ``"type"`` of ``"chunk"`` or
``"checkpoint"``.  Appends are flushed per record but not fsynced (the WAL
is an optimisation aid — losing its tail costs only re-replayed chunks, which
resume handles anyway); a torn final line from a crash mid-append is detected
and ignored on read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.state.snapshot import SnapshotError, _atomic_write_bytes, check_schema

#: The WAL format version this build reads and writes.
WAL_SCHEMA = "wal/v1"


@dataclass(frozen=True)
class WalCheckpoint:
    """A ``checkpoint`` WAL record: durable state exists up to ``chunk_offset``."""

    chunk_offset: int
    generation: int
    stream_time: float | None = None


@dataclass
class WalState:
    """Everything a recovery needs from one read of the WAL."""

    #: The last checkpoint record, or ``None`` if none was ever written.
    checkpoint: WalCheckpoint | None = None
    #: Chunk records appended after the last checkpoint (offset order).
    chunks_after_checkpoint: list[dict[str, Any]] = field(default_factory=list)
    #: Whether a torn (unparseable) final line was skipped.
    torn_tail: bool = False

    @property
    def lost_chunks(self) -> int:
        """Chunks whose effects died with the process (replayed on resume)."""
        return len(self.chunks_after_checkpoint)

    @property
    def next_chunk_offset(self) -> int:
        """The offset of the first chunk the crashed process never applied."""
        if self.chunks_after_checkpoint:
            return int(self.chunks_after_checkpoint[-1]["chunk"]) + 1
        if self.checkpoint is not None:
            return self.checkpoint.chunk_offset
        return 0


class ChunkWal:
    """Append-only chunk-offset log with atomic checkpoint rewrites.

    Records are appended with an open-append-close per call: one chunk is
    hundreds of objects, so the syscall cost is noise, and never holding a
    file handle keeps the WAL trivially safe across ``fork`` (process shard
    executors) and object lifetime bugs.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if not self.path.exists():
            self._rewrite([])

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append_chunk(
        self, chunk_offset: int, objects: int, end_time: float | None
    ) -> None:
        """Record that the chunk at ``chunk_offset`` was applied in memory."""
        self._append(
            {
                "type": "chunk",
                "chunk": int(chunk_offset),
                "objects": int(objects),
                "end_time": end_time,
            }
        )

    def mark_checkpoint(self, checkpoint: WalCheckpoint) -> None:
        """Atomically restart the log from a ``checkpoint`` record.

        Chunk records before a checkpoint are dead weight (their effects are
        inside the snapshot), so the log is rewritten rather than appended —
        the WAL stays O(chunks since last checkpoint) on disk.
        """
        self.reset(checkpoint)

    def reset(self, checkpoint: WalCheckpoint | None = None) -> None:
        """Atomically rewrite the log: header plus an optional checkpoint.

        A service attaching to a directory calls this so the ledger starts
        from *its* durable state — a stale log left by a previous run (or by
        the crash the attach is recovering from) would otherwise record the
        replayed chunks twice and break the exactly-once reading.
        """
        records = []
        if checkpoint is not None:
            records.append(
                {
                    "type": "checkpoint",
                    "chunk_offset": checkpoint.chunk_offset,
                    "generation": checkpoint.generation,
                    "stream_time": checkpoint.stream_time,
                }
            )
        self._rewrite(records)

    def _append(self, record: dict[str, Any]) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()

    def _rewrite(self, records: list[dict[str, Any]]) -> None:
        lines = [json.dumps({"schema": WAL_SCHEMA}, sort_keys=True)]
        lines.extend(json.dumps(record, sort_keys=True) for record in records)
        _atomic_write_bytes(self.path, ("\n".join(lines) + "\n").encode("utf-8"))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @staticmethod
    def read(path: str | Path) -> WalState:
        """Parse a WAL file into a :class:`WalState` (torn tail tolerated)."""
        path = Path(path)
        raw_lines = path.read_text(encoding="utf-8").splitlines()
        if not raw_lines:
            raise SnapshotError(f"{path}: empty write-ahead log (missing header)")
        try:
            header = json.loads(raw_lines[0])
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"{path}: corrupt WAL header: {exc}") from exc
        if not isinstance(header, dict):
            raise SnapshotError(f"{path}: corrupt WAL header: not a JSON object")
        check_schema(header.get("schema"), WAL_SCHEMA, path, "write-ahead log")

        state = WalState()
        for index, line in enumerate(raw_lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if index == len(raw_lines):
                    # Torn final line: the process died mid-append.  Its
                    # chunk is simply replayed on resume.
                    state.torn_tail = True
                    break
                raise SnapshotError(
                    f"{path}: corrupt WAL record on line {index} "
                    f"(not the final line, so this is not a torn append)"
                )
            if record.get("type") == "checkpoint":
                state.checkpoint = WalCheckpoint(
                    chunk_offset=int(record["chunk_offset"]),
                    generation=int(record["generation"]),
                    stream_time=record.get("stream_time"),
                )
                state.chunks_after_checkpoint = []
            elif record.get("type") == "chunk":
                state.chunks_after_checkpoint.append(record)
            else:
                raise SnapshotError(
                    f"{path}: unknown WAL record type {record.get('type')!r} "
                    f"on line {index}"
                )
        return state
