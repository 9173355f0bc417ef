"""The user-facing facade: feed a raw object stream, read bursty regions.

:class:`SurgeMonitor` wires together the sliding-window pair (which turns
arriving spatial objects into window events) and any detector, so that a
caller only has to push objects::

    query = SurgeQuery(rect_width=0.01, rect_height=0.01, window_length=3600)
    monitor = SurgeMonitor(query, algorithm="ccs")
    for obj in stream:
        result = monitor.push(obj)
        if result is not None:
            print(result.region, result.score)

High-rate streams should prefer :meth:`SurgeMonitor.push_many`, which feeds
whole timestamp-ordered chunks through the batched event path
(:meth:`SlidingWindowPair.observe_batch` →
:meth:`BurstyRegionDetector.apply_events`): window maintenance, cell-bound
invalidation and result recomputation are then amortised over each chunk
instead of paid per window event (see ``benchmarks/bench_ingest.py`` for the
measured objects/sec difference).

:func:`make_detector` is the name-based factory used by the monitor, the
evaluation harness and the benchmarks; it covers the exact detector, the two
approximations, all baselines and the top-k extensions.
"""

from __future__ import annotations

from time import perf_counter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.core.base import BurstyRegionDetector, RegionResult
from repro.core.query import SurgeQuery
from repro.obs.tracer import current as _current_tracer
from repro.streams.objects import EventBatch, SpatialObject, WindowEvent
from repro.streams.windows import SlidingWindowPair, WindowState

#: ``kind`` tag of monitor snapshot files (see :mod:`repro.state.snapshot`).
MONITOR_SNAPSHOT_KIND = "monitor"

#: Names accepted by :func:`make_detector`, mapping to the paper's algorithm
#: acronyms: exact Cell-CSPOT (``ccs``), static-bound-only variant (``bccs``),
#: no-bound cell baseline (``base``), adapted continuous-MaxRS baseline
#: (``ag2``), full-sweep naive baseline (``naive``), grid approximation
#: (``gaps``), multi-grid approximation (``mgaps``), and their top-k
#: extensions (``kccs``, ``kgaps``, ``kmgaps``).
DETECTOR_NAMES = (
    "ccs",
    "bccs",
    "base",
    "ag2",
    "naive",
    "gaps",
    "mgaps",
    "kccs",
    "kgaps",
    "kmgaps",
)

#: Detectors whose inner search runs through the SL-CSPOT sweep kernel and
#: therefore accept a ``backend`` option (the grid approximations never sweep).
SWEEP_BACKED_DETECTORS = frozenset({"ccs", "bccs", "base", "ag2", "naive", "kccs"})


def make_detector(
    name: str, query: SurgeQuery, backend: str | None = None, **options
) -> BurstyRegionDetector:
    """Instantiate a detector by its paper acronym.

    Parameters
    ----------
    name:
        One of :data:`DETECTOR_NAMES` (case-insensitive).
    query:
        The SURGE query the detector will answer.
    backend:
        SL-CSPOT sweep backend (``"auto"``, ``"python"``, ``"numpy"``) for
        the detectors in :data:`SWEEP_BACKED_DETECTORS`; silently ignored by
        the grid approximations, which perform no sweep.
    options:
        Extra keyword arguments forwarded to the detector constructor (e.g.
        ``cell_scale`` for ``ag2``).
    """
    # Imported lazily to keep the factory free of import cycles and to avoid
    # paying for the top-k machinery when it is not used.
    from repro.baselines.ag2 import AG2Detector
    from repro.baselines.base_cell import BaseCellDetector
    from repro.baselines.bccs import StaticBoundCellCSPOT
    from repro.baselines.naive import NaiveSweepDetector
    from repro.core.cell_cspot import CellCSPOT
    from repro.core.gap import GapSurge
    from repro.core.mgap import MGapSurge
    from repro.topk.kccs import CellCSPOTTopK
    from repro.topk.kgap import GapSurgeTopK
    from repro.topk.kmgap import MGapSurgeTopK

    factories: dict[str, Callable[..., BurstyRegionDetector]] = {
        "ccs": CellCSPOT,
        "bccs": StaticBoundCellCSPOT,
        "base": BaseCellDetector,
        "ag2": AG2Detector,
        "naive": NaiveSweepDetector,
        "gaps": GapSurge,
        "mgaps": MGapSurge,
        "kccs": CellCSPOTTopK,
        "kgaps": GapSurgeTopK,
        "kmgaps": MGapSurgeTopK,
    }
    key = name.lower()
    if key not in factories:
        raise ValueError(
            f"unknown detector {name!r}; expected one of {', '.join(DETECTOR_NAMES)}"
        )
    if backend is not None and key in SWEEP_BACKED_DETECTORS:
        options["backend"] = backend
    return factories[key](query, **options)


class SurgeMonitor:
    """Continuous monitor combining the sliding windows with a detector."""

    def __init__(
        self,
        query: SurgeQuery,
        algorithm: str | BurstyRegionDetector = "ccs",
        **options,
    ) -> None:
        self.query = query
        if isinstance(algorithm, BurstyRegionDetector):
            self.detector = algorithm
        else:
            self.detector = make_detector(algorithm, query, **options)
        self.windows = SlidingWindowPair(
            window_length=query.current_length,
            past_window_length=query.past_length,
        )
        self._objects_seen = 0

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------
    def push(self, obj: SpatialObject) -> RegionResult | None:
        """Ingest one spatial object and return the current bursty region.

        This is the per-event path: every window event is processed
        individually and the result is re-established after each one.
        """
        for event in self.windows.observe(obj):
            self.detector.process(event)
        self._objects_seen += 1
        return self.detector.result()

    def push_many(self, objs: Iterable[SpatialObject]) -> RegionResult | None:
        """Ingest a batch of spatial objects and return the final bursty region.

        This is the batched ingestion path: the window pair converts the
        whole chunk into one grouped
        :class:`~repro.streams.objects.EventBatch`
        (:meth:`SlidingWindowPair.observe_batch`), the detector applies it
        through :meth:`BurstyRegionDetector.apply_events` (bulk cell/bound
        maintenance where the detector supports it), and the result is read
        once at the end — so result maintenance is amortised over the chunk
        instead of paid per event.  The returned result matches pushing the
        objects one at a time, up to floating-point associativity.

        The two halves are exposed separately as :meth:`ingest_batch` (the
        window half) and :meth:`apply_batch` (the detector half) so that the
        multi-query service's shared execution plan can run the window half
        once per *group* of queries and fan the resulting batch out to each
        member detector.
        """
        return self.apply_batch(self.ingest_batch(objs))

    def ingest_batch(self, objs: Iterable[SpatialObject]) -> "EventBatch":
        """The window half of :meth:`push_many`: objects → one event batch.

        Advances the sliding-window pair over the whole timestamp-ordered
        chunk and returns the grouped
        :class:`~repro.streams.objects.EventBatch` without touching the
        detector.  Callers that share one window pair across several
        detectors (see :mod:`repro.service.shards`) call this once and then
        :meth:`apply_batch` per detector.
        """
        tracer = _current_tracer()
        if tracer is None or not tracer.enabled:
            return self.windows.observe_batch(objs)
        started = perf_counter()
        batch = self.windows.observe_batch(objs)
        tracer.record("window.observe", started, perf_counter())
        return batch

    def apply_batch(self, batch: "EventBatch") -> RegionResult | None:
        """The detector half of :meth:`push_many`: event batch → result.

        Applies an :class:`~repro.streams.objects.EventBatch` (produced by
        :meth:`ingest_batch` — possibly of a *shared* window pair) to this
        monitor's detector, accounts the arrivals, and settles the result
        once.
        """
        tracer = _current_tracer()
        if tracer is None or not tracer.enabled:
            self.detector.apply_events(batch)
            self._objects_seen += batch.arrivals
            return self.detector.result()
        started = perf_counter()
        self.detector.apply_events(batch)
        self._objects_seen += batch.arrivals
        result = self.detector.result()
        tracer.record("settle", started, perf_counter())
        return result

    def push_events(self, events: Iterable[WindowEvent]) -> RegionResult | None:
        """Feed pre-computed window events directly (advanced use)."""
        for event in events:
            self.detector.process(event)
        return self.detector.result()

    def advance_time(self, time: float) -> RegionResult | None:
        """Advance the stream clock without a new arrival and return the result."""
        for event in self.windows.advance_time(time):
            self.detector.process(event)
        return self.detector.result()

    def run(
        self, stream: Iterable[SpatialObject], chunk_size: int | None = None
    ) -> Iterator[RegionResult | None]:
        """Push a whole stream, yielding the current result as it goes.

        With ``chunk_size=None`` (default) every object takes the per-event
        path and one result is yielded per object.  With a positive
        ``chunk_size`` the stream rides the batched :meth:`push_many` path in
        chunks of that many objects and one result is yielded per chunk —
        the fast way to replay a recorded stream when per-object results are
        not needed (see ``benchmarks/bench_ingest.py`` for the throughput
        difference).
        """
        if chunk_size is None:
            for obj in stream:
                yield self.push(obj)
            return
        from repro.streams.sources import iter_chunks

        for chunk in iter_chunks(stream, chunk_size):
            yield self.push_many(chunk)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> RegionResult | None:
        """The current bursty region."""
        return self.detector.result()

    def top_k(self, k: int | None = None) -> list[RegionResult]:
        """The current top-k bursty regions (best first)."""
        return self.detector.top_k(k)

    def window_state(self) -> WindowState:
        """Snapshot of the two sliding windows (used for ground-truth checks)."""
        return self.windows.state()

    @property
    def objects_seen(self) -> int:
        """Number of spatial objects pushed so far."""
        return self._objects_seen

    # ------------------------------------------------------------------
    # Durability (see repro.state)
    # ------------------------------------------------------------------
    def save(self, path: str | Path, meta: Mapping[str, Any] | None = None) -> dict:
        """Snapshot this monitor's complete live state to ``path``.

        The snapshot (``snapshot/v3``, kind ``"monitor"``) covers the
        sliding-window deques, the detector's full incremental state (cell
        rows, lazy bound heaps, memoised candidates, top-k dirty flags,
        operation counters) and the objects counter; :meth:`load` restores a
        monitor that continues the stream *bit-identically* to this one.
        The write is atomic; ``meta`` adds caller metadata (e.g. a chunk
        offset) to the snapshot header.  Returns the written header.
        """
        from repro.state.snapshot import write_snapshot

        header_meta = {
            "algorithm": self.detector.name,
            "objects_seen": self._objects_seen,
        }
        if meta:
            header_meta.update(meta)
        return write_snapshot(path, MONITOR_SNAPSHOT_KIND, self, meta=header_meta)

    @classmethod
    def load(cls, path: str | Path) -> "SurgeMonitor":
        """Restore a monitor saved with :meth:`save`.

        Raises :class:`repro.state.SnapshotSchemaError` for snapshots written
        by an incompatible codec version, and
        :class:`repro.state.SnapshotError` for corrupt or non-monitor files.
        """
        from repro.state.snapshot import SnapshotError, read_snapshot

        _, monitor = read_snapshot(path, expected_kind=MONITOR_SNAPSHOT_KIND)
        if not isinstance(monitor, cls):
            raise SnapshotError(
                f"{path}: monitor snapshot payload is a "
                f"{type(monitor).__name__}, not a {cls.__name__}"
            )
        return monitor

    @property
    def is_stable(self) -> bool:
        """Whether the warm-up period of the paper's protocol has passed."""
        return self.windows.is_stable()
