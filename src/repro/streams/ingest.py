"""The ingest tier: screen → reorder → cut → backpressure, as one object.

The paper's detectors are specified over one timestamp-ordered stream of
well-formed objects.  :class:`IngestTier` is the single place that turns
whatever actually arrives into that stream, cut into the chunks the shards
consume: :func:`~repro.streams.watermark.classify_bad_record` screens out
malformed records; a :class:`~repro.streams.watermark.WatermarkReorderBuffer`
absorbs disorder up to ``max_lateness`` (without one, order is checked on
the spot); the ordered output is handed out in full ``chunk_size`` chunks, so
chunk boundaries are those of the pre-sorted stream whatever batches the
arrivals came in (boundaries are score-visible at the 1e-15 level, so
re-sorting *within* chunks would not be enough); and an optional in-flight
budget force-releases the oldest held-back arrivals when a flash crowd piles
up inside one lateness window.  **Strict mode** (no lateness, no quarantine
target) is the same object with no buffer, whose screen *refuses* —
:class:`ValueError` for a malformed record,
:class:`~repro.streams.windows.OutOfOrderError` for a backwards timestamp —
instead of absorbing.

Records go in one at a time (:meth:`IngestTier.push`); chunks come out one
at a time (:meth:`IngestTier.pop_chunk`), each leaving the tier only at the
moment its consumer dispatches it — so a checkpoint taken at any point finds
every undelivered object still inside.  The tier is plain picklable state
and travels whole in the service's ingest snapshot.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.streams.objects import SpatialObject
from repro.streams.watermark import (
    IngestStats,
    WatermarkReorderBuffer,
    classify_bad_record,
)
from repro.streams.windows import OutOfOrderError

logger = logging.getLogger(__name__)


class IngestTier:
    """Everything between the raw arrivals and the timestamp-ordered chunks.

    The parameters are :class:`~repro.service.SurgeService`'s of the same
    names, documented there and validated by the service's
    :class:`~repro.service.replay.ReplaySettings`; ``tracer`` receives the
    ``ingest.reorder`` / ``ingest.quarantine`` spans.  Callback, directory,
    tracer and chunk size are configuration, not state: dropped on pickling,
    put back by :meth:`reattach`.
    """

    def __init__(
        self,
        max_lateness: float = 0.0,
        *,
        on_bad_record: Callable[[Any, str], None] | None = None,
        quarantine_dir: str | Path | None = None,
        max_inflight_chunks: int | None = None,
        tracer: Any = None,
    ) -> None:
        max_lateness = float(max_lateness)
        self.max_lateness = max_lateness
        self.max_inflight_chunks = max_inflight_chunks
        self.on_bad_record = on_bad_record
        self.quarantine_dir = (
            Path(quarantine_dir) if quarantine_dir is not None else None
        )
        self.tracer = tracer
        #: Whether the screen refuses instead of absorbing.  Part of the
        #: pickled state: it decides how a resumed run finds its place in
        #: the raw stream (see :meth:`unconsumed`).
        self.strict = (
            max_lateness == 0 and on_bad_record is None and quarantine_dir is None
        )
        #: The one live counter set of the tier; the reorder buffer and the
        #: quarantine spill increment it directly.
        self.stats = IngestStats()
        self._reorder = (
            WatermarkReorderBuffer(max_lateness, self.stats)
            if max_lateness > 0
            else None
        )
        #: Ordered (released or order-checked) but not yet handed out.
        self._pending: list[SpatialObject] = []
        #: Raw records pushed so far — the replay offset of a screened or
        #: re-sorted stream, whose chunks no longer map 1:1 onto raw records.
        self.raw_consumed = 0
        #: Size of the chunks being cut — also the unit queue depth is
        #: measured in; ``None`` until a consumer sets it.  Configuration
        #: like the callback: a service records it in its manifest's
        #: ``replay`` section, not in the pickle.
        self.chunk_size: int | None = None
        self._spill_warned = False

    def __getstate__(self) -> dict:
        # The spill warning is once per process.
        state = self.__dict__.copy()
        state.update(
            on_bad_record=None,
            quarantine_dir=None,
            tracer=None,
            chunk_size=None,
            _spill_warned=False,
        )
        return state

    def reattach(self, configured: "IngestTier") -> "IngestTier":
        """Adopt ``configured``'s unpickled configuration; returns ``self``."""
        self.on_bad_record = configured.on_bad_record
        self.quarantine_dir = configured.quarantine_dir
        self.tracer = configured.tracer
        self.chunk_size = configured.chunk_size
        return self

    def set_chunk_size(self, chunk_size: int) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = chunk_size

    def push(self, record: Any, clock: float) -> bool:
        """Accept one raw record; return whether a full chunk is ready.

        ``clock`` is the consumer's last-accepted stream time — the order
        floor of a lateness-0 tier while nothing is pending.
        """
        self.raw_consumed += 1
        reason = classify_bad_record(record)
        if reason is not None:
            self._refuse(record, reason)
            return False
        pending = self._pending
        reorder = self._reorder
        chunk_size = self.chunk_size
        held = 0
        if reorder is None:
            # Lateness 0: ordering stays strict, and the violation surfaces
            # here (fail-fast) rather than at the next chunk boundary.
            last = pending[-1].timestamp if pending else clock
            if record.timestamp < last:
                raise OutOfOrderError(
                    f"out-of-order arrival: object id={record.object_id} has "
                    f"timestamp t={record.timestamp}, which is earlier than "
                    f"the last-accepted stream time t={last} (strict mode: "
                    f"set max_lateness > 0 to absorb bounded disorder)",
                    object_id=record.object_id,
                    timestamp=record.timestamp,
                    last_time=last,
                )
            pending.append(record)
        else:
            tracer = self.tracer
            traced = tracer is not None and tracer.enabled
            started = time.perf_counter() if traced else 0.0
            pending.extend(reorder.push(record))
            if traced:
                tracer.record(
                    "ingest.reorder", started, time.perf_counter(), lane="ingest"
                )
            if self.max_inflight_chunks is not None and chunk_size is not None:
                self._relieve(reorder, chunk_size)
            held = len(reorder)
        # Full chunks are as good as dispatched (the consumer pulls them
        # before the next push): only the partial chunk counts as buffered.
        # Without a chunk size nothing is cut yet, and all of it is.
        ordered = len(pending)
        held += ordered % chunk_size if chunk_size is not None else ordered
        if held > self.stats.peak_buffered:
            self.stats.peak_buffered = held
        return chunk_size is not None and ordered >= chunk_size

    def _relieve(self, reorder: WatermarkReorderBuffer, chunk_size: int) -> None:
        """Backpressure valve: keep partial chunk + reorder heap in budget.

        The reorder heap is the only place raw arrivals can pile up without
        bound (a flash crowd inside one lateness window).  Over budget, the
        oldest held-back arrivals are released early — still in sorted
        order — so the buffered total never exceeds the budget after any
        record (the transient above it is the one record just pushed).
        """
        pending = self._pending
        budget = self.max_inflight_chunks * chunk_size
        while len(reorder) > 0:
            partial = len(pending) % chunk_size
            excess = partial + len(reorder) - budget
            if excess <= 0:
                break
            # Release enough to cover the excess AND complete a full chunk —
            # a release that leaves the partial chunk short hands out
            # nothing and the total would stay over budget.
            pending.extend(reorder.force_release(max(excess, chunk_size - partial)))

    def _refuse(self, record: Any, reason: str) -> None:
        """Raise (strict) or quarantine: count, spill, call back."""
        if self.strict:
            raise ValueError(
                f"malformed record in strict mode ({reason}); enable "
                f"the quarantine screen (max_lateness, on_bad_record "
                f"or quarantine_dir) to absorb bad records"
            )
        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        started = time.perf_counter() if traced else 0.0
        self.stats.quarantined += 1
        if self.quarantine_dir is not None:
            self._spill(record, reason)
        if self.on_bad_record is not None:
            self.on_bad_record(record, reason)
        if traced:
            tracer.record(
                "ingest.quarantine",
                started,
                time.perf_counter(),
                lane="ingest",
                meta={"reason": reason},
            )

    def _spill(self, record: Any, reason: str) -> None:
        payload = asdict(record) if isinstance(record, SpatialObject) else repr(record)
        line = json.dumps(
            {"reason": reason, "record": payload}, default=repr, sort_keys=True
        )
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            with open(
                self.quarantine_dir / "quarantine.jsonl", "a", encoding="utf-8"
            ) as handle:
                handle.write(line + "\n")
        except OSError as exc:
            # The spill is observability, not state: an unwritable or full
            # directory must not kill ingestion mid-chunk.  The failure is
            # counted and warned about exactly once.
            self.stats.spill_errors += 1
            if not self._spill_warned:
                self._spill_warned = True
                logger.warning(
                    "quarantine spill to %s failed (%s); quarantined "
                    "records are still counted and skipped, but will not "
                    "be written out (warning once)",
                    self.quarantine_dir,
                    exc,
                    extra={
                        "quarantine_dir": str(self.quarantine_dir),
                        "spill_errors": self.stats.spill_errors,
                    },
                )

    def unconsumed(
        self,
        stream: Iterable[Any],
        chunk_size: int,
        start_offset: int,
        chunk_offset: int,
    ) -> Iterator[Any]:
        """``stream`` past the prefix this tier (or its consumer) already took.

        The resume primitive: ``stream`` is the whole raw stream from its
        start, about to be cut into ``chunk_size`` chunks; ``start_offset``
        is the number of chunks the caller wants skipped and
        ``chunk_offset`` the number its consumer has applied.
        A strict stream's chunks map 1:1 onto raw records, so its prefix is
        ``start_offset`` chunks plus whatever is pending here — which keeps
        a consumer that was fed bare chunks resumable.  A screened or
        re-sorted stream's prefix is ``raw_consumed``: the surviving effects
        of those records (applied chunks, held-back buffer contents, pending
        list, counters) all live in the restored state.
        """
        self.set_chunk_size(chunk_size)
        if start_offset < 0:
            raise ValueError(f"start_offset must be non-negative, got {start_offset}")
        if self.strict:
            prefix = start_offset * chunk_size + len(self._pending)
        elif start_offset != chunk_offset:
            raise ValueError(
                f"tolerant-mode resume replays raw records, not chunks: pass "
                f"start_offset=service.chunk_offset "
                f"(={chunk_offset}), got {start_offset}"
            )
        else:
            prefix = self.raw_consumed
        iterator = iter(stream)
        skipped = sum(1 for _ in islice(iterator, prefix))
        if skipped < prefix and not self.strict:
            # A strict stream may legitimately end inside the skipped prefix
            # (its last chunk was short); a raw-record offset cannot.
            raise ValueError(
                f"resume stream is shorter than the checkpoint's "
                f"raw-record offset: consumed {prefix} "
                f"records before the crash, replay provided {skipped} "
                f"(different stream?)"
            )
        return iterator

    def pop_chunk(self, final: bool = False) -> list[SpatialObject] | None:
        """Hand out the next chunk, or ``None`` when none is ready.

        Only full chunks are ready unless ``final`` (end of stream): then
        every held-back arrival is released, in order, and the remainder
        goes out as one short chunk.
        """
        pending = self._pending
        if final and self._reorder is not None:
            pending.extend(self._reorder.flush())
        chunk_size = self.chunk_size
        if not pending:
            return None
        if not final and (chunk_size is None or len(pending) < chunk_size):
            return None
        chunk = pending[:chunk_size]
        del pending[:chunk_size]
        return chunk

    def __len__(self) -> int:
        """Arrivals inside the tier: reorder heap plus pending list."""
        held = len(self._reorder) if self._reorder is not None else 0
        return held + len(self._pending)

    def depths(self) -> dict[str, Any]:
        """Instantaneous hold state for the slow-chunk detector."""
        depths: dict[str, Any] = {"pending_objects": len(self._pending)}
        if self._reorder is not None:
            depths["reorder"] = self._reorder.depths()
        return depths
