"""When to take a checkpoint: every N chunks and/or every T stream-seconds.

The policy is deliberately defined on *stream* time, not wall time: a
replayed historical stream should produce the same checkpoint cadence as the
live run did, so recovery behaviour is reproducible in tests and benchmarks.
Chunk count is the natural unit of the ingestion path (one WAL record, one
shard broadcast per chunk); stream seconds bound the replay horizon for slow
streams where a chunk budget alone could leave hours between snapshots.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class CheckpointPolicy:
    """Checkpoint cadence: whichever configured trigger fires first.

    Parameters
    ----------
    every_chunks:
        Take a checkpoint once this many chunks were ingested since the last
        one (``None`` disables the chunk trigger).
    every_stream_seconds:
        Take a checkpoint once the stream clock advanced this far past the
        last checkpoint's stream time (``None`` disables the time trigger).

    A policy with both triggers disabled is valid and means "manual
    checkpoints only" (explicit :meth:`~repro.service.SurgeService.checkpoint`
    calls still work).
    """

    every_chunks: int | None = None
    every_stream_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.every_chunks is not None and self.every_chunks < 1:
            raise ValueError(
                f"every_chunks must be a positive chunk count, got "
                f"{self.every_chunks}"
            )
        if self.every_stream_seconds is not None and (
            self.every_stream_seconds <= 0
            or math.isnan(self.every_stream_seconds)
        ):
            raise ValueError(
                f"every_stream_seconds must be a positive duration, got "
                f"{self.every_stream_seconds}"
            )

    @property
    def automatic(self) -> bool:
        """Whether any trigger is configured at all."""
        return self.every_chunks is not None or self.every_stream_seconds is not None

    def due(
        self,
        chunks_since_checkpoint: int,
        stream_time: float,
        checkpoint_stream_time: float,
    ) -> bool:
        """Whether a checkpoint should be taken now.

        ``checkpoint_stream_time`` is the stream time recorded at the last
        checkpoint (``-inf`` before the first, which makes the time trigger
        fire on the first opportunity — the earliest durable point).
        """
        if chunks_since_checkpoint < 1:
            return False  # nothing new to persist
        if self.every_chunks is not None and chunks_since_checkpoint >= self.every_chunks:
            return True
        if self.every_stream_seconds is not None and (
            stream_time - checkpoint_stream_time >= self.every_stream_seconds
        ):
            return True
        return False

    def scaled(self, factor: int) -> "CheckpointPolicy":
        """The same triggers, each ``factor`` times rarer (``stretch`` overload)."""
        chunks, seconds = self.every_chunks, self.every_stream_seconds
        return CheckpointPolicy(
            every_chunks=None if chunks is None else chunks * factor,
            every_stream_seconds=None if seconds is None else seconds * factor,
        )

    def to_dict(self) -> dict:
        """JSON form stored in the service manifest (for resume)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, record: dict) -> "CheckpointPolicy":
        return cls(**record)
