"""Versioned, schema-tagged snapshot files for durable monitor/service state.

A snapshot file is the unit of durability of the checkpoint subsystem: one
file holds the complete live state of a :class:`~repro.core.monitor.
SurgeMonitor` (window deques, per-detector incremental state — cell records,
lazy bound heaps, memoised candidates, top-k dirty flags — and the objects
counter) or of one service shard (every query pipeline it hosts, plus the
routing counters), together with enough header metadata to decide *whether*
the payload can be read at all before touching it.

File format (``snapshot/v5``)
-----------------------------
::

    REPRO-SNAPSHOT\\n                 16-byte ASCII magic line
    {"schema": "snapshot/v5", ...}\\n one JSON header line (UTF-8)
    <pickle bytes>                    the payload

The header carries ``schema`` (the codec version), ``kind`` (what the
payload is: ``"monitor"``, ``"service-shard"``, ...), a free-form
``meta`` mapping (chunk offsets, stream time, generation numbers), and a
``crc32`` / ``payload_bytes`` pair over the pickle bytes.  The header is
parsed and validated *before* the payload is unpickled, so a snapshot
written by another codec version fails with a clear
:class:`SnapshotSchemaError` instead of a confusing unpickling crash, and
a truncated or bit-rotted payload fails the checksum with a clear
:class:`SnapshotError` instead of unpickling garbage (unpickling corrupt
bytes can execute arbitrary reduce hooks — the checksum runs first, and a
header without one is refused).

The version names the pickled layout of the state classes as well as the
file framing: ``snapshot/v1`` to ``v4`` files hold detector, pipeline,
ingest-tier and cell layouts this build no longer reads (``v4`` kept each
GAP-SURGE grid's scores in a heap), so they are refused by version rather
than patched up while unpickling.

Writes are atomic: the file is assembled under a temporary name in the same
directory, flushed and fsynced, then moved into place with :func:`os.replace`
— a crash mid-write can never leave a truncated snapshot under the final
name, so recovery can always trust any snapshot a manifest points at.

The payload codec is :mod:`pickle`: every piece of detector state is plain
Python data (deques, dicts, dataclasses, heap lists), and pickling round-trips
floats, container ordering and object identity-sharing exactly — which is
what makes restore-then-resume *bit-identical* to an uninterrupted run.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import zlib
from pathlib import Path
from typing import Any, Mapping

#: Magic first line of every snapshot file.
SNAPSHOT_MAGIC = b"REPRO-SNAPSHOT\n"

#: The codec version this build reads and writes.
SNAPSHOT_SCHEMA = "snapshot/v5"


class SnapshotError(RuntimeError):
    """A snapshot file could not be written or read."""


class SnapshotSchemaError(SnapshotError):
    """A snapshot (or WAL / manifest) carries a schema this build cannot read."""


def check_schema(found: Any, expected: str, path: str | Path, what: str) -> None:
    """Raise :class:`SnapshotSchemaError` unless ``found == expected``.

    Shared by the snapshot codec, the WAL and the service manifest so every
    durable file fails version drift with the same clear message shape.
    """
    if found != expected:
        raise SnapshotSchemaError(
            f"{path}: {what} has schema {found!r}, but this build only reads "
            f"{expected!r}; the file was written by an incompatible version — "
            f"re-create the checkpoint with this version (or read the file "
            f"with the version that wrote it)"
        )


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically and durably.

    A fsynced same-directory temp file replaces ``path``; the directory is
    fsynced last, so the rename itself survives a power loss.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def write_snapshot(
    path: str | Path,
    kind: str,
    payload: Any,
    meta: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Serialise ``payload`` to ``path`` as a ``snapshot/v5`` file.

    Returns the header that was written.  The write is atomic; on any
    failure the previous file at ``path`` (if one existed) is untouched.
    """
    try:
        payload_bytes = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # pickling failure: unserialisable state
        raise SnapshotError(f"cannot snapshot {kind!r} state to {path}: {exc}") from exc
    header = {
        "schema": SNAPSHOT_SCHEMA,
        "kind": kind,
        "meta": dict(meta) if meta else {},
        # Integrity check of the payload, verified before unpickling on read.
        "crc32": zlib.crc32(payload_bytes),
        "payload_bytes": len(payload_bytes),
    }
    buffer = io.BytesIO()
    buffer.write(SNAPSHOT_MAGIC)
    buffer.write(json.dumps(header, sort_keys=True).encode("utf-8"))
    buffer.write(b"\n")
    buffer.write(payload_bytes)
    _atomic_write_bytes(Path(path), buffer.getvalue())
    return header


def read_snapshot_header(path: str | Path) -> dict[str, Any]:
    """Read and validate only the header of a snapshot file.

    Cheap (no payload unpickling); used to probe checkpoint directories and
    to produce clear errors for files from other codec versions.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotError(
                f"{path} is not a repro snapshot file (bad magic "
                f"{magic[:16]!r}; expected {SNAPSHOT_MAGIC!r})"
            )
        header_line = handle.readline()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path}: corrupt snapshot header: {exc}") from exc
    if not isinstance(header, dict):
        raise SnapshotError(f"{path}: corrupt snapshot header: not a JSON object")
    check_schema(header.get("schema"), SNAPSHOT_SCHEMA, path, "snapshot file")
    return header


def read_snapshot(
    path: str | Path, expected_kind: str | None = None
) -> tuple[dict[str, Any], Any]:
    """Read a snapshot file; returns ``(header, payload)``.

    The header is validated (magic, schema version, optionally ``kind``)
    before the payload is unpickled.
    """
    header = read_snapshot_header(path)
    if expected_kind is not None and header.get("kind") != expected_kind:
        raise SnapshotError(
            f"{path} holds a {header.get('kind')!r} snapshot, not the "
            f"expected {expected_kind!r}"
        )
    with open(path, "rb") as handle:
        handle.read(len(SNAPSHOT_MAGIC))
        handle.readline()
        payload_bytes = handle.read()
    # Verified *before* unpickling: corrupt pickle bytes can execute
    # arbitrary reduce hooks, so garbage must never reach the codec.
    expected_crc = header.get("crc32")
    expected_size = header.get("payload_bytes")
    if not isinstance(expected_crc, int) or not isinstance(expected_size, int):
        raise SnapshotError(
            f"{path}: corrupt snapshot header: no crc32 / payload_bytes to "
            f"verify the payload against"
        )
    if len(payload_bytes) != expected_size:
        raise SnapshotError(
            f"{path}: corrupt snapshot payload: {len(payload_bytes)} bytes "
            f"on disk, header records {expected_size} (truncated or "
            f"overwritten file)"
        )
    found_crc = zlib.crc32(payload_bytes)
    if found_crc != expected_crc:
        raise SnapshotError(
            f"{path}: corrupt snapshot payload: CRC32 mismatch "
            f"(found {found_crc:#010x}, header records "
            f"{expected_crc:#010x}) — the file was truncated or bit-rotted"
        )
    try:
        payload = pickle.loads(payload_bytes)
    except Exception as exc:
        raise SnapshotError(f"{path}: corrupt snapshot payload: {exc}") from exc
    return header, payload
