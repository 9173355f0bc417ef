"""Watermark-based bounded-disorder ingestion: buffer, re-sort, count, drop.

The paper's model assumes a perfectly ordered stream, and the detectors'
incremental state genuinely requires it — :class:`~repro.streams.windows.
SlidingWindowPair` raises :class:`~repro.streams.windows.OutOfOrderError`
on a backwards timestamp because accepting it would silently corrupt every
downstream window and cell record.  Real traffic is not so polite: events
are delayed, batched, retried and replayed, so arrivals are *late* by
bounded amounts almost all the time and by unbounded amounts occasionally.

:class:`WatermarkReorderBuffer` is the standard streaming answer (low
watermarks in the Millwheel/Beam/Flink sense) specialised to this
reproduction's bit-identity bar:

* arrivals are buffered and re-sorted within a configurable ``max_lateness``
  (stream seconds);
* the **watermark** trails the maximum observed timestamp by
  ``max_lateness`` and only ever advances; everything strictly behind it is
  released in ``(timestamp, object_id)`` order, so the emitted stream is
  always non-decreasing;
* an arrival already strictly behind the watermark cannot be emitted
  without breaking the order of what was already released, so it is
  **counted and dropped** (``late_dropped``) — graceful degradation instead
  of a crash, with the loss observable;
* **provable exactness inside the bound**: if every arrival's displacement
  is within ``max_lateness`` (formally: no object arrives after an object
  whose timestamp exceeds its own by more than ``max_lateness``), then no
  arrival is ever behind the watermark, nothing is dropped, and the emitted
  sequence is *exactly* ``sorted(arrivals, key=(timestamp, object_id))`` —
  so every downstream detector result is bit-identical to running over the
  pre-sorted stream.  ``tests/test_service_robustness.py`` locks this with a
  Hypothesis property across detectors, plans and executors.

The buffer is plain picklable Python state (a heap plus counters), which is
what lets :class:`~repro.streams.ingest.IngestTier` — its one user — carry
the held-back events in checkpoint snapshots: SIGKILL-and-resume under
disorder replays the raw stream from the recorded offset into the restored
buffer and stays exactly-once (``scripts/chaos_smoke.py``).

:class:`IngestStats` is the observable surface of the whole ingest tier
(reordering, drops, duplicates, quarantined poison records, subscriber
faults), exported through :class:`~repro.service.bus.ServiceStats`.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Any

from repro.obs.counters import counter, gauge
from repro.streams.objects import SpatialObject

__all__ = [
    "IngestStats",
    "WatermarkReorderBuffer",
    "classify_bad_record",
]


@dataclass
class IngestStats:
    """Counters of everything the disorder-tolerant ingestion tier absorbed."""

    reordered: int = counter(
        "Arrivals behind the maximum timestamp already observed, re-sorted "
        "inside the reorder buffer."
    )
    late_dropped: int = counter(
        "Arrivals already strictly behind the watermark (displaced by more "
        "than max_lateness), counted and discarded so released order holds."
    )
    duplicates_seen: int = counter(
        "Arrivals whose object id was already seen within the reorder "
        "horizon; still processed as distinct arrivals (no dedup)."
    )
    quarantined: int = counter(
        "Malformed or poison records screened out before any window."
    )
    subscriber_errors: int = counter(
        "Exceptions raised by result-bus subscriber callbacks and isolated "
        "by the bus."
    )
    force_released: int = counter(
        "Held-back arrivals released before the watermark reached them by "
        "the in-flight-chunk budget (max_inflight_chunks)."
    )
    spill_errors: int = counter(
        "Quarantine spill writes that failed; the records were still counted "
        "and skipped."
    )
    peak_buffered: int = gauge(
        "Peak objects buffered ahead of the shards (reorder heap + pending); "
        "at most max_inflight_chunks * chunk_size when that budget is set."
    )


def classify_bad_record(record: Any) -> str | None:
    """Why ``record`` must not reach a sliding window (``None`` = it may).

    The screen admits exactly the records the rest of the pipeline is
    specified over: a :class:`~repro.streams.objects.SpatialObject` with
    finite coordinates, timestamp and weight, and (when present) a
    ``keywords`` attribute the keyword router can iterate.  Anything else —
    a raw dict from a decoder, a NaN timestamp from a corrupt row, a
    ``keywords: 7`` — would either crash deep inside a detector or, worse,
    silently poison window arithmetic (NaN never compares, so a NaN
    timestamp defeats every cutoff test).
    """
    if not isinstance(record, SpatialObject):
        return f"not a SpatialObject (got {type(record).__name__})"
    try:
        if not math.isfinite(record.timestamp):
            return f"non-finite timestamp {record.timestamp!r}"
        if not math.isfinite(record.x) or not math.isfinite(record.y):
            return f"non-finite location ({record.x!r}, {record.y!r})"
        if not math.isfinite(record.weight):
            return f"non-finite weight {record.weight!r}"
    except TypeError:
        return "non-numeric coordinates, timestamp or weight"
    if record.weight < 0:
        return f"negative weight {record.weight!r}"
    attributes = record.attributes
    if attributes:
        # Exact builtin types first: the ABC checks cost ~10x as much and
        # this runs once per arrival.
        if type(attributes) is not dict and not isinstance(attributes, Mapping):
            return f"attributes is not a mapping (got {type(attributes).__name__})"
        keywords = attributes.get("keywords")
        if keywords is not None and not isinstance(keywords, str):
            if type(keywords) not in (tuple, list) and not isinstance(
                keywords, Iterable
            ):
                return (
                    f"keywords attribute is not a string or iterable "
                    f"(got {type(keywords).__name__})"
                )
            try:
                if any(not isinstance(keyword, str) for keyword in keywords):
                    return "keywords attribute contains non-string entries"
            except TypeError:  # pragma: no cover - exotic iterables
                return "keywords attribute is not iterable"
    return None


class WatermarkReorderBuffer:
    """Re-sorts bounded-disorder arrivals behind an advancing watermark.

    Parameters
    ----------
    max_lateness:
        How far (in stream seconds) an arrival's timestamp may trail the
        maximum timestamp observed so far and still be re-sorted into place.
        Must be positive — ``max_lateness == 0`` *is* the strict mode, in
        which the caller skips the buffer entirely and out-of-order input
        fails fast with :class:`~repro.streams.windows.OutOfOrderError`.
    stats:
        The :class:`IngestStats` the buffer counts into — the owning tier
        passes its own, so there is one live counter set.

    Contract
    --------
    * :meth:`push` returns the arrivals released by this push, in
      ``(timestamp, object_id)`` order; concatenating all released lists
      (plus a final :meth:`flush`) yields a globally non-decreasing stream.
    * Only objects with ``timestamp < watermark`` are released, and only
      objects with ``timestamp < watermark`` are refused — so an input
      stream whose disorder stays within ``max_lateness`` loses nothing and
      comes out exactly sorted (see the module docstring for the argument).
    * The buffer is plain picklable state; a pickled copy resumes the
      arrival sequence with identical releases, drops and counters, which is
      what makes held-back events checkpointable.
    """

    def __init__(self, max_lateness: float, stats: IngestStats | None = None) -> None:
        max_lateness = float(max_lateness)
        if not math.isfinite(max_lateness) or max_lateness <= 0:
            raise ValueError(
                f"max_lateness must be a positive number of stream seconds, "
                f"got {max_lateness!r} (lateness 0 is strict mode: skip the "
                f"buffer and let out-of-order input fail fast)"
            )
        self.max_lateness = max_lateness
        #: Held-back arrivals as a heap of ``(timestamp, object_id, seq, obj)``
        #: — ``seq`` makes ties total so heap order is deterministic and
        #: release order is stable for exact-duplicate arrivals.
        self._heap: list[tuple[float, int, int, SpatialObject]] = []
        self._seq = 0
        self._max_timestamp = float("-inf")
        #: Object ids observed within the reorder horizon: id → latest
        #: timestamp, pruned as the watermark passes them.  Bounds memory to
        #: the ids alive inside one lateness window while still catching the
        #: duplicates that can actually interleave with reordering.
        self._recent_ids: dict[int, float] = {}
        #: Order floor raised by :meth:`force_release`: arrivals behind it
        #: would trail an already force-released object, so they are refused
        #: even when the watermark alone would still admit them.
        self._floor = float("-inf")
        self.stats = stats if stats is not None else IngestStats()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> float:
        """Completeness frontier: everything before it has been released.

        ``-inf`` until the first arrival.  The watermark trails the maximum
        observed timestamp by ``max_lateness`` and never retreats.
        """
        return self._max_timestamp - self.max_lateness

    def __len__(self) -> int:
        """Number of held-back arrivals."""
        return len(self._heap)

    def push(self, obj: SpatialObject) -> list[SpatialObject]:
        """Accept one arrival; return the objects it released, oldest first.

        A straggler already strictly behind the watermark is counted in
        ``late_dropped`` and discarded (releasing it would break the order
        of the already-released prefix).  Everything else is buffered, the
        watermark advances to ``obj.timestamp - max_lateness`` if that is
        ahead of it, and every held-back object strictly behind the new
        watermark comes out in ``(timestamp, object_id)`` order.
        """
        timestamp = obj.timestamp
        if timestamp < self._max_timestamp:
            self.stats.reordered += 1
            if timestamp < self.watermark or timestamp < self._floor:
                # Behind the watermark, or behind the order floor a
                # force-release raised: emitting it would break the order
                # of the already-released prefix either way.
                self.stats.late_dropped += 1
                return []
        object_id = obj.object_id
        known = self._recent_ids.get(object_id)
        if known is not None:
            self.stats.duplicates_seen += 1
            if timestamp > known:
                self._recent_ids[object_id] = timestamp
        else:
            self._recent_ids[object_id] = timestamp
        heapq.heappush(self._heap, (timestamp, object_id, self._seq, obj))
        self._seq += 1
        if timestamp > self._max_timestamp:
            self._max_timestamp = timestamp
            return self._release(self.watermark)
        return []

    def flush(self) -> list[SpatialObject]:
        """Release every held-back arrival (end of stream), oldest first.

        The watermark itself does not move: a subsequent arrival within the
        lateness bound of the maximum observed timestamp would still be
        accepted — but anything it releases now trails an already-flushed
        object, so flushing mid-stream forfeits the sorted-output guarantee.
        Callers flush exactly once, after the last arrival.
        """
        return self._release(float("inf"))

    def force_release(self, count: int) -> list[SpatialObject]:
        """Release the ``count`` oldest held-back arrivals *now*, in order.

        The backpressure valve: when the in-flight budget is exceeded the
        service trades a slice of the reorder horizon for a memory bound.
        Released objects still come out in ``(timestamp, object_id)``
        order, and the order floor rises to the last released timestamp so
        a later straggler behind it is dropped (counted in
        ``late_dropped``) instead of breaking the sorted-output guarantee.
        A disorder-free stream is unaffected: early release only changes
        outcomes for stragglers that would have landed behind the floor.
        """
        released = self._release(float("inf"), count)
        if released:
            self.stats.force_released += len(released)
            if released[-1].timestamp > self._floor:
                self._floor = released[-1].timestamp
        return released

    def _release(
        self, frontier: float, limit: float = float("inf")
    ) -> list[SpatialObject]:
        released: list[SpatialObject] = []
        heap = self._heap
        while heap and heap[0][0] < frontier and len(released) < limit:
            timestamp, object_id, _, obj = heapq.heappop(heap)
            released.append(obj)
            # Prune the duplicate horizon: once the watermark passed this
            # timestamp, a same-id arrival could not legally recur anyway.
            known = self._recent_ids.get(object_id)
            if known is not None and known <= timestamp:
                del self._recent_ids[object_id]
        return released

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def depths(self) -> dict[str, float | int]:
        """Instantaneous hold state, cheap enough for per-chunk sampling.

        The slow-chunk detector captures this alongside the span tree: a
        chunk that stalled because the reorder buffer was holding thousands
        of arrivals looks very different from one that stalled in a sweep.
        """
        heap = self._heap
        return {
            "held_back": len(heap),
            "watermark": self.watermark,
            "oldest_held": heap[0][0] if heap else None,
            "recent_ids": len(self._recent_ids),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WatermarkReorderBuffer(max_lateness={self.max_lateness}, "
            f"pending={len(self._heap)}, watermark={self.watermark})"
        )
