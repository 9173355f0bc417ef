"""The settings that shape replayed results, as one recorded record.

A crashed service resumes bit-identically only under the settings that
decide which chunks exist and what happens to them.  A service records them
as its manifest's ``replay`` section,
:meth:`~repro.service.SurgeService.restore` builds from that section, and a
resume compares what it asks for with it (:meth:`ReplaySettings.conflicts`)
before anything is restored.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from repro.service.overload import OverloadConfig
from repro.state.recovery import read_manifest

#: The chunk size a fresh ``repro serve`` cuts at when none is requested.
DEFAULT_CHUNK_SIZE = 512


def _setting(flag: str, minimum: int | None = None) -> Any:
    # ``flag`` is the ``repro serve`` option that requests the setting.
    return field(default=None, metadata={"flag": flag, "minimum": minimum})


@dataclass(frozen=True)
class ReplaySettings:
    """Chunk size, lateness bound, in-flight budget, overload configuration
    and compaction cadence (see :class:`~repro.service.SurgeService`).

    In a record a service wrote, ``None`` means *off*, or for ``chunk_size``
    that the ingest tier has not been fed yet; ``max_lateness`` is always a
    number.  In a record a caller requests, ``None`` means "as recorded" (on
    a fresh start: the default).
    """

    chunk_size: int | None = _setting("--chunk-size", minimum=1)
    max_lateness: float | None = _setting("--max-lateness", minimum=0)
    max_inflight_chunks: int | None = _setting("--max-inflight-chunks", minimum=1)
    overload: OverloadConfig | None = _setting(
        "--overload-high/--overload-low/--overload-policy/--shed-below-priority"
    )
    compact_every_chunks: int | None = _setting("--compact-every", minimum=1)

    def __post_init__(self) -> None:
        for item in fields(self):
            value, minimum = getattr(self, item.name), item.metadata["minimum"]
            if value is not None and minimum is not None and value < minimum:
                raise ValueError(
                    f"{item.name} ({item.metadata['flag']}) must be >= "
                    f"{minimum}, got {value}"
                )
        if self.max_inflight_chunks is not None and self.max_lateness == 0:
            raise ValueError(
                "max_inflight_chunks (--max-inflight-chunks) bounds the reorder "
                "buffer, which only exists with max_lateness > 0"
            )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "ReplaySettings":
        values = dict(record)
        if values["overload"] is not None:
            values["overload"] = OverloadConfig.from_dict(values["overload"])
        return cls(**values)

    def keywords(self) -> dict[str, Any]:
        """The ``SurgeService`` keywords that run these settings (the chunk
        size is the feeder's: ``run`` / ``feed`` take it)."""
        return {
            "max_lateness": self.max_lateness or 0.0,
            "max_inflight_chunks": self.max_inflight_chunks,
            "overload": self.overload,
            "compact_every_chunks": self.compact_every_chunks,
        }

    def conflicts(self, requested: "ReplaySettings") -> None:
        """Raise one :class:`ValueError` naming every setting ``requested``
        changes in this recording.  Unset and restated values pass, and so
        does any chunk size against a record that has cut nothing yet."""
        differing = []
        for item in fields(self):
            wanted, recorded = getattr(requested, item.name), getattr(self, item.name)
            if wanted is None or wanted == recorded:
                continue
            if item.name == "chunk_size" and recorded is None:
                continue
            differing.append(f"{item.metadata['flag']} {wanted} (recorded: {recorded})")
        if differing:
            raise ValueError(
                f"resume asks for settings the checkpoint was not taken at: "
                f"{'; '.join(differing)}.  They decide which chunks exist and "
                f"what happens to them (replay offsets only line up at the "
                f"original chunking), so they cannot change mid-stream; omit "
                f"a flag to resume as recorded"
            )


def recorded_settings(directory: str | Path) -> tuple[str, ReplaySettings]:
    """The executor and replay settings of the checkpoint in ``directory``,
    read from its manifest alone: nothing is unpickled and no shard is built,
    so a resume can be refused or configured before anything is spawned."""
    manifest = read_manifest(directory)
    return manifest.executor, ReplaySettings.from_dict(manifest.replay)
