"""The two consecutive sliding windows and their event stream.

Section III of the paper defines, at stream time ``t`` and for a window
length ``|W|``:

* the current window  ``Wc = (t - |W|,  t]``
* the past window     ``Wp = (t - 2|W|, t - |W|]``

:class:`SlidingWindowPair` ingests spatial objects in timestamp order and
emits the ``NEW`` / ``GROWN`` / ``EXPIRED`` events that the detectors consume
(Section IV-C).  Ingestion comes in two flavours:

* :meth:`SlidingWindowPair.observe` — one object at a time, returning the
  events it triggers in timeline order (the paper's per-event model);
* :meth:`SlidingWindowPair.observe_batch` — a whole timestamp-ordered chunk
  at once, returning an :class:`~repro.streams.objects.EventBatch` whose
  events are grouped by kind.  The batch path computes the window cutoffs
  once per chunk and drains the deques in bulk, so the per-object
  bookkeeping cost is amortised over the chunk; detectors exploit it through
  :meth:`repro.core.base.BurstyRegionDetector.apply_events`.

It also exposes the exact contents of both windows at any point in time via
:class:`WindowState`, which the brute-force ground-truth algorithms and the
approximation-ratio harness rely on.  Snapshots are materialised lazily: the
tuple copies are built on the first :meth:`SlidingWindowPair.state` read
after a mutation and cached until the next mutation, so harnesses probing
the state on every object no longer pay an O(n) rebuild per probe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.streams.objects import EventBatch, EventKind, SpatialObject, WindowEvent


class OutOfOrderError(ValueError):
    """An arrival (or clock advance) would move stream time backwards.

    Subclasses :class:`ValueError` so historical ``except ValueError``
    callers keep working, while the service's strict mode and the
    quarantine path can catch it precisely — and act on the attributes —
    without string matching.

    Attributes
    ----------
    object_id:
        Id of the offending object, or ``None`` for a bare
        :meth:`SlidingWindowPair.advance_time` call.
    timestamp:
        The offending (earlier) timestamp.
    last_time:
        The last-accepted stream time it fell behind.
    """

    def __init__(
        self,
        message: str,
        *,
        object_id: int | None = None,
        timestamp: float,
        last_time: float,
    ) -> None:
        super().__init__(message)
        self.object_id = object_id
        self.timestamp = timestamp
        self.last_time = last_time


@dataclass(frozen=True, slots=True)
class WindowState:
    """An immutable snapshot of the two sliding windows.

    ``current`` and ``past`` hold the objects whose creation times fall in
    ``Wc`` and ``Wp`` respectively, ordered by creation time; ``time`` is the
    stream time of the snapshot and ``window_length`` is ``|W|``.
    """

    time: float
    window_length: float
    current: tuple[SpatialObject, ...]
    past: tuple[SpatialObject, ...]

    @property
    def total_objects(self) -> int:
        """Number of objects alive in either window."""
        return len(self.current) + len(self.past)


class SlidingWindowPair:
    """Maintains ``Wc`` and ``Wp`` and converts arrivals into window events.

    Parameters
    ----------
    window_length:
        Length ``|W|`` shared by the current and past windows (the paper's
        default setting; different lengths are supported through
        ``past_window_length``).
    past_window_length:
        Optional distinct length for the past window.

    Notes
    -----
    Objects must be observed in non-decreasing timestamp order; the class
    raises :class:`OutOfOrderError` (a :class:`ValueError`) otherwise,
    because out-of-order arrivals would silently corrupt every detector's
    incremental state.  Callers that tolerate bounded disorder re-sort ahead
    of the windows with :class:`repro.streams.watermark.WatermarkReorderBuffer`.
    """

    def __init__(self, window_length: float, past_window_length: float | None = None) -> None:
        if window_length <= 0:
            raise ValueError("window_length must be positive")
        if past_window_length is not None and past_window_length <= 0:
            raise ValueError("past_window_length must be positive")
        self.window_length = float(window_length)
        self.past_window_length = float(
            past_window_length if past_window_length is not None else window_length
        )
        self._current: deque[SpatialObject] = deque()
        self._past: deque[SpatialObject] = deque()
        self._time = float("-inf")
        self._expired_seen = False
        self._state_cache: WindowState | None = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def observe(self, obj: SpatialObject) -> list[WindowEvent]:
        """Ingest one spatial object and return the resulting window events.

        The returned list contains the ``GROWN`` and ``EXPIRED`` events caused
        by advancing the stream time to ``obj.timestamp`` (oldest first),
        followed by the ``NEW`` event for ``obj`` itself.
        """
        if obj.timestamp < self._time:
            raise OutOfOrderError(
                f"out-of-order arrival: object id={obj.object_id} has "
                f"timestamp t={obj.timestamp}, which is earlier than the "
                f"last-accepted stream time t={self._time} (arrivals must "
                f"be in non-decreasing timestamp order)",
                object_id=obj.object_id,
                timestamp=obj.timestamp,
                last_time=self._time,
            )
        events = self.advance_time(obj.timestamp)
        self._current.append(obj)
        self._state_cache = None
        events.append(WindowEvent(kind=EventKind.NEW, obj=obj, time=obj.timestamp))
        return events

    def observe_batch(self, objects: Iterable[SpatialObject]) -> EventBatch:
        """Ingest a timestamp-ordered chunk and return its events as a batch.

        Equivalent to calling :meth:`observe` for every object, except that

        * the window cutoffs are computed once (at the chunk's final
          timestamp) and both deques are drained in one bulk pass, instead of
          re-scanning the deque heads per object;
        * all ``GROWN`` / ``EXPIRED`` events are stamped with the batch end
          time rather than the individual arrival that triggered them;
        * the events come back grouped by kind in an
          :class:`~repro.streams.objects.EventBatch` (whose ``events`` tuple
          preserves a lifecycle-safe order for per-event appliers).

        The final window contents, the emitted event kinds per object, and
        their per-object ordering are identical to the per-object path.
        """
        objs = objects if isinstance(objects, Sequence) else list(objects)
        if not objs:
            return EventBatch(time=self._time, events=(), new=(), grown=(), expired=())
        previous = self._time
        for index, obj in enumerate(objs):
            if obj.timestamp < previous:
                raise OutOfOrderError(
                    f"out-of-order arrival in batch: object id={obj.object_id} "
                    f"(chunk position {index}) has timestamp t={obj.timestamp}, "
                    f"which is earlier than the last-accepted stream time "
                    f"t={previous} (arrivals must be in non-decreasing "
                    f"timestamp order)",
                    object_id=obj.object_id,
                    timestamp=obj.timestamp,
                    last_time=previous,
                )
            previous = obj.timestamp

        end_time = objs[-1].timestamp
        current_cutoff = end_time - self.window_length
        # Summing the lengths before subtracting matches the paper's
        # ``t - 2|W|`` boundary bit for bit (see advance_time).
        past_cutoff = end_time - (self.window_length + self.past_window_length)

        # Pre-existing objects: advancing the clock to the end of the chunk
        # is exactly one bulk drain of both deques (and shares advance_time's
        # cutoff arithmetic instead of duplicating it).  The grouped views
        # are then filled alongside the lifecycle-safe event list.
        events = self.advance_time(end_time)
        new_events: list[WindowEvent] = []
        grown_events: list[WindowEvent] = []
        expired_events: list[WindowEvent] = []
        for event in events:
            if event.kind is EventKind.GROWN:
                grown_events.append(event)
            else:
                expired_events.append(event)

        # Arrivals, classified directly against the end-of-chunk cutoffs.  An
        # arrival that is already out of the current window by the end of the
        # chunk emits its whole lifecycle here, in order.
        current = self._current
        past = self._past
        for obj in objs:
            event = WindowEvent(kind=EventKind.NEW, obj=obj, time=obj.timestamp)
            events.append(event)
            new_events.append(event)
            if obj.timestamp > current_cutoff:
                current.append(obj)
                continue
            event = WindowEvent(kind=EventKind.GROWN, obj=obj, time=end_time)
            events.append(event)
            grown_events.append(event)
            if obj.timestamp <= past_cutoff:
                self._expired_seen = True
                event = WindowEvent(kind=EventKind.EXPIRED, obj=obj, time=end_time)
                events.append(event)
                expired_events.append(event)
            else:
                past.append(obj)

        self._state_cache = None
        return EventBatch(
            time=end_time,
            events=tuple(events),
            new=tuple(new_events),
            grown=tuple(grown_events),
            expired=tuple(expired_events),
        )

    def advance_time(self, time: float) -> list[WindowEvent]:
        """Advance the stream clock to ``time`` without inserting an object.

        Returns the ``GROWN`` and ``EXPIRED`` events triggered by the advance
        (oldest first).  Useful to flush the windows at the end of a stream or
        to evaluate the detector state at an arbitrary instant.
        """
        if time < self._time:
            raise OutOfOrderError(
                f"cannot move stream time backwards: requested t={time} is "
                f"earlier than the last-accepted stream time t={self._time}",
                timestamp=time,
                last_time=self._time,
            )
        self._time = time
        self._state_cache = None
        events: list[WindowEvent] = []
        current_cutoff = time - self.window_length
        # Summing the lengths before subtracting matches the paper's
        # ``t - 2|W|`` boundary bit for bit (subtracting twice rounds
        # differently and can mis-expire an object sitting exactly on it).
        past_cutoff = time - (self.window_length + self.past_window_length)

        # Objects falling out of the past window expire first (they are the
        # oldest), then objects falling out of the current window grow into
        # the past window.  Processing in this order keeps both deques sorted.
        while self._past and self._past[0].timestamp <= past_cutoff:
            expired = self._past.popleft()
            self._expired_seen = True
            events.append(WindowEvent(kind=EventKind.EXPIRED, obj=expired, time=time))

        while self._current and self._current[0].timestamp <= current_cutoff:
            grown = self._current.popleft()
            if grown.timestamp <= past_cutoff:
                # The clock jumped by more than a full window: the object
                # skips the past window entirely.  Emit both transitions so
                # detectors see a consistent lifecycle.
                self._expired_seen = True
                events.append(WindowEvent(kind=EventKind.GROWN, obj=grown, time=time))
                events.append(WindowEvent(kind=EventKind.EXPIRED, obj=grown, time=time))
            else:
                self._past.append(grown)
                events.append(WindowEvent(kind=EventKind.GROWN, obj=grown, time=time))
        return events

    def observe_many(self, objects: Iterable[SpatialObject]) -> Iterator[WindowEvent]:
        """Ingest a whole stream, yielding events in order."""
        for obj in objects:
            yield from self.observe(obj)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        """The current stream time (arrival time of the latest object)."""
        return self._time

    @property
    def current_window(self) -> Sequence[SpatialObject]:
        """Objects currently in ``Wc`` (oldest first)."""
        return self.state().current

    @property
    def past_window(self) -> Sequence[SpatialObject]:
        """Objects currently in ``Wp`` (oldest first)."""
        return self.state().past

    def state(self) -> WindowState:
        """An immutable snapshot of both windows.

        The snapshot is materialised lazily and cached: repeated reads
        between mutations return the same :class:`WindowState` object, so a
        harness probing the state after every object pays the O(n) tuple
        construction only when something actually changed.
        """
        cached = self._state_cache
        if cached is None:
            cached = WindowState(
                time=self._time,
                window_length=self.window_length,
                current=tuple(self._current),
                past=tuple(self._past),
            )
            self._state_cache = cached
        return cached

    def is_stable(self) -> bool:
        """Whether the system has reached the paper's "stable" regime.

        The experimental protocol of Section VII starts measuring only once
        at least one object has expired from the past window, i.e. the
        stream has been running for longer than ``|Wc| + |Wp|``.
        """
        return self._expired_seen

    def __len__(self) -> int:
        """Total number of objects alive in either window."""
        return len(self._current) + len(self._past)
