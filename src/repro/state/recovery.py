"""Checkpoint-directory layout and the service manifest.

A service checkpoint directory looks like::

    <dir>/
      MANIFEST.json           the service-level manifest (written last)
      wal.log                 chunk-offset write-ahead log (repro.state.wal)
      shard-00.g000003.ckpt   one snapshot file per shard, per generation
      shard-01.g000003.ckpt   (repro.state.snapshot, kind "service-shard")
      ingest.g000003.ckpt     the ingest tier, once it holds any state
      obs.g000003.ckpt        tracing flight recorder, when a tracer is on

Checkpoint protocol (crash-safe by ordering).  The service conducts step 1 —
it knows *what* is snapshotted — and hands the finished manifest to its
:class:`~repro.state.durability.Durability`, which allocated the generation
and publishes steps 2–4:

1. every shard writes its own generation-``g`` snapshot file (atomic; under
   the process executor each worker process persists its shard
   independently — the shard state never crosses the process boundary);
   the ingest tier and the flight recorder follow, when there are any;
2. the manifest — query registry, shard assignment, chunk offset, stats,
   and the list of generation-``g`` shard files — is atomically replaced;
3. the WAL is restarted from a ``checkpoint`` record for generation ``g``;
4. older generations' shard files are deleted (best effort).

A crash anywhere in 1–3 leaves the *previous* manifest pointing at the
previous generation's files, all intact.  Recovery reads the manifest, loads
the shard snapshots it names, and replays the stream from
``manifest.chunk_offset`` — see :meth:`repro.service.SurgeService.restore`.

Manifest floats are stored as JSON numbers (Python's ``json`` round-trips
``float`` exactly via ``repr``), except the pre-ingestion stream clock
``-inf``, which is stored as ``None``.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.state.snapshot import (
    SnapshotError,
    _atomic_write_bytes,
    check_schema,
    read_snapshot,
)

logger = logging.getLogger(__name__)

#: The manifest format version this build reads and writes.
MANIFEST_SCHEMA = "service-manifest/v5"
MANIFEST_NAME = "MANIFEST.json"
#: Backup of the manifest the last checkpoint replaced.  Restore falls back
#: to it when the current manifest names a shard file whose write was
#: interrupted (a violated atomic-write contract, e.g. power loss between
#: fsync and publish on some filesystems).
MANIFEST_PREV_NAME = "MANIFEST.prev.json"
WAL_NAME = "wal.log"

#: ``kind`` of the per-shard snapshot files in a checkpoint directory.
SHARD_SNAPSHOT_KIND = "service-shard"

#: ``kind`` of the ingest-tier snapshot (the pickled tier: reorder buffer,
#: pending list, replay offset, counters) written alongside the shard files
#: once a record went through the tier or it is configured to absorb.
INGEST_SNAPSHOT_KIND = "service-ingest"

#: ``kind`` of the observability snapshot (the tracing tier's flight
#: recorder: span ring + per-stage latency aggregates) written alongside the
#: shard files when the service carries a tracer.
OBS_SNAPSHOT_KIND = "service-obs"


def shard_snapshot_name(shard_index: int, generation: int) -> str:
    """File name of one shard's snapshot at one checkpoint generation."""
    return f"shard-{shard_index:02d}.g{generation:06d}.ckpt"


def ingest_snapshot_name(generation: int) -> str:
    """File name of the ingest-tier snapshot at one checkpoint generation."""
    return f"ingest.g{generation:06d}.ckpt"


def obs_snapshot_name(generation: int) -> str:
    """File name of the flight-recorder snapshot at one checkpoint generation."""
    return f"obs.g{generation:06d}.ckpt"


def encode_stream_time(time: float) -> float | None:
    """JSON form of a stream clock (``-inf`` — never ingested — as ``None``)."""
    return None if math.isinf(time) and time < 0 else time


def decode_stream_time(value: float | None) -> float:
    return float("-inf") if value is None else float(value)


@dataclass
class ServiceManifest:
    """Everything :meth:`SurgeService.restore` needs besides the shard files.

    ``service-manifest/v5`` guarantees every field below is present in the
    file (older layouts are refused by version, not defaulted); the four
    optional sections are ``None`` when their tier holds nothing to record.
    """

    generation: int
    chunk_offset: int
    chunk_index: int
    stream_time: float
    n_shards: int
    executor: str
    order: list[str]
    shard_of: dict[str, int]
    registered: int
    specs: list[dict]
    policy: dict
    stats: dict
    shard_files: list[str]
    #: The replay-shaping settings, the one place they are recorded: chunk
    #: size (``None`` until the ingest tier was fed), lateness bound,
    #: in-flight budget, overload configuration and compaction cadence — the
    #: :class:`~repro.service.replay.ReplaySettings` a resume is checked
    #: against and the restored service is built from.
    replay: dict
    #: Free-form caller metadata, carried into every later manifest.
    extra: dict = field(default_factory=dict)
    #: Ingest tier state (``None`` = a strict tier no record went through):
    #: the name of the generation's ingest snapshot file, which holds the
    #: pickled :class:`~repro.streams.ingest.IngestTier` (reorder buffer,
    #: pending list, replay offset, counters, screen mode).
    ingest: dict | None = None
    #: Overload tier state (``None`` = every counter zero): the cumulative
    #: :class:`~repro.service.overload.OverloadStats` under ``"stats"``,
    #: including whether the service was degraded at checkpoint time, so a
    #: resume continues shedding exactly where the victim stopped.
    overload: dict | None = None
    #: Network-tier listener configuration (``None`` = the service was not
    #: serving): host/port of the frame listener and the optional metrics
    #: endpoint — enough for ``repro serve --resume`` to re-serve the same
    #: endpoint without re-specifying it.
    server: dict | None = None
    #: Observability tier state (``None`` = no tracer attached): whether the
    #: tracer was enabled, its slow-chunk threshold, and the name of the
    #: generation's flight-recorder snapshot (span ring + per-stage latency
    #: aggregates).
    obs: dict | None = None

    def to_dict(self) -> dict[str, Any]:
        # Shallow on purpose: the sections are already JSON-shaped, and
        # asdict's deep copy doubles the cost of a 256-query checkpoint.
        record = dict(vars(self))
        record["schema"] = MANIFEST_SCHEMA
        record["stream_time"] = encode_stream_time(self.stream_time)
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any], path: str | Path) -> "ServiceManifest":
        check_schema(record.get("schema"), MANIFEST_SCHEMA, path, "service manifest")
        try:
            values = dict(record)
            del values["schema"]
            values["stream_time"] = decode_stream_time(values["stream_time"])
            return cls(**values)
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"{path}: corrupt service manifest (missing or malformed "
                f"field: {exc})"
            ) from exc


def manifest_path(directory: str | Path) -> Path:
    return Path(directory) / MANIFEST_NAME


def previous_manifest_path(directory: str | Path) -> Path:
    return Path(directory) / MANIFEST_PREV_NAME


def wal_path(directory: str | Path) -> Path:
    return Path(directory) / WAL_NAME


def has_checkpoint(directory: str | Path) -> bool:
    """Whether ``directory`` holds a completed service checkpoint."""
    return manifest_path(directory).exists()


def write_manifest(directory: str | Path, manifest: ServiceManifest) -> Path:
    """Atomically write the manifest into the checkpoint directory.

    The manifest being replaced (if any) is first preserved as
    ``MANIFEST.prev.json`` so restore can fall back one generation when
    the new generation's shard files turn out to be unreadable.
    """
    path = manifest_path(directory)
    if path.exists():
        try:
            _atomic_write_bytes(previous_manifest_path(directory), path.read_bytes())
        except OSError:
            pass  # fallback manifest is best-effort; the primary path is intact
    payload = json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
    _atomic_write_bytes(path, payload.encode("utf-8"))
    return path


def _parse_manifest(path: Path) -> ServiceManifest:
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"{path}: corrupt service manifest: {exc}") from exc
    if not isinstance(record, dict):
        raise SnapshotError(f"{path}: corrupt service manifest: not a JSON object")
    return ServiceManifest.from_dict(record, path)


def read_manifest(directory: str | Path) -> ServiceManifest:
    """Read and validate the manifest of a checkpoint directory."""
    path = manifest_path(directory)
    if not path.exists():
        raise SnapshotError(
            f"{Path(directory)} holds no service checkpoint "
            f"(missing {MANIFEST_NAME})"
        )
    return _parse_manifest(path)


def read_previous_manifest(directory: str | Path) -> ServiceManifest | None:
    """The manifest the last checkpoint replaced, or ``None`` if absent/corrupt."""
    try:
        return _parse_manifest(previous_manifest_path(directory))
    except (OSError, SnapshotError):
        return None


@dataclass
class Generation:
    """One checkpoint generation read back: the manifest and what it names."""

    manifest: ServiceManifest
    #: Verified to exist; each shard loads its own file where it runs.
    shard_paths: list[Path]
    #: Payload of the ingest snapshot (``None`` = the manifest names none).
    ingest: Any = None
    #: Payload of the flight-recorder snapshot (``None`` = not recorded, not
    #: wanted, or its file is gone).
    recorder: Any = None


def read_generation(
    directory: Path, manifest: ServiceManifest, *, want_recorder: bool
) -> Generation:
    """Check the snapshot files ``manifest`` names; load the service-side ones."""

    def named(what: str, name: str) -> Path:
        path = directory / name
        if not path.exists():
            raise SnapshotError(
                f"{manifest_path(directory)} names a missing {what} "
                f"snapshot {name} (incomplete checkpoint directory?)"
            )
        return path

    if len(manifest.shard_files) != manifest.n_shards:
        raise SnapshotError(
            f"{manifest_path(directory)}: manifest names "
            f"{len(manifest.shard_files)} shard files for "
            f"{manifest.n_shards} shards"
        )
    generation = Generation(
        manifest, [named("shard", name) for name in manifest.shard_files]
    )
    if manifest.ingest is not None:
        _, generation.ingest = read_snapshot(
            named("ingest", manifest.ingest["snapshot_file"]),
            expected_kind=INGEST_SNAPSHOT_KIND,
        )
    if want_recorder and manifest.obs is not None:
        obs_path = directory / manifest.obs["snapshot_file"]
        if obs_path.exists():
            # A missing recorder snapshot is tolerated (unlike shard or
            # ingest snapshots): tracing history is observability, not
            # correctness state.
            _, generation.recorder = read_snapshot(
                obs_path, expected_kind=OBS_SNAPSHOT_KIND
            )
    return generation


def next_generation(directory: str | Path) -> int:
    """The generation number the next checkpoint in ``directory`` should use."""
    if not has_checkpoint(directory):
        return 1
    return read_manifest(directory).generation + 1


#: One structured warning per process for failed prunes — the counter keeps
#: climbing, the log does not.
_prune_warned = False


def prune_generations(directory: str | Path, keep_generation: int) -> int:
    """Remove shard/ingest/obs snapshots from superseded generations.

    The newest generation *and* the one before it are kept — the previous
    generation backs ``MANIFEST.prev.json``, the fallback restore target
    when the newest generation's files were torn by a crash.  Deletion
    failures are counted (and warned about once per process, structured)
    rather than swallowed, so a filling shared checkpoint directory is
    visible in stats before it fills the disk.  Returns the number of
    failed deletes.
    """
    global _prune_warned
    keep_suffixes = {f".g{keep_generation:06d}.ckpt"}
    if keep_generation > 1:
        keep_suffixes.add(f".g{keep_generation - 1:06d}.ckpt")
    directory = Path(directory)
    failed = 0
    first_error: OSError | None = None
    for pattern in ("shard-*.ckpt", "ingest.*.ckpt", "obs.*.ckpt"):
        for path in directory.glob(pattern):
            if not any(path.name.endswith(suffix) for suffix in keep_suffixes):
                try:
                    path.unlink()
                except OSError as exc:
                    failed += 1
                    if first_error is None:
                        first_error = exc
    if failed and not _prune_warned:
        _prune_warned = True
        logger.warning(
            "checkpoint prune left %d stale snapshot file(s) in %s: %s "
            "(counted as prune_errors in stats; the manifest never names "
            "stale files, but the directory will keep growing)",
            failed,
            directory,
            first_error,
            extra={
                "event": "checkpoint_prune_errors",
                "directory": str(directory),
                "failed": failed,
            },
        )
    return failed
