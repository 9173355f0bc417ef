"""Detector interface shared by every SURGE algorithm.

Every algorithm in the paper — the exact Cell-CSPOT, the GAP/MGAP
approximations, the Base / B-CCS / aG2 baselines, and the top-k extensions —
consumes the same input (a stream of ``NEW`` / ``GROWN`` / ``EXPIRED`` window
events) and produces the same output (the position of one or more bursty
regions with their burst scores).  :class:`BurstyRegionDetector` captures
that contract so that the evaluation harness, the monitor facade and the
benchmarks can treat all algorithms uniformly.

:class:`DetectorStats` collects the operation counters that the paper's
evaluation reports (most importantly the fraction of events that trigger a
cell search, Table II).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from typing import Iterable

from repro.core.query import SurgeQuery
from repro.geometry.primitives import Point, Rect, region_covering_point
from repro.obs.counters import counter, declared
from repro.streams.objects import EventBatch, WindowEvent


@dataclass(frozen=True, slots=True)
class RegionResult:
    """One reported bursty region.

    ``point`` is the bursty point of the CSPOT formulation (the top-right
    corner of ``region``) when the detector works on the reduced problem;
    grid-based detectors report the cell centre-top-right equivalently.
    ``fc`` / ``fp`` are the window scores at the reported position.
    """

    region: Rect
    score: float
    point: Point
    fc: float = 0.0
    fp: float = 0.0

    @staticmethod
    def from_point(
        point: Point, score: float, query: SurgeQuery, fc: float = 0.0, fp: float = 0.0
    ) -> "RegionResult":
        """Build a result from a bursty point using the Theorem 1 mapping.

        The region edges come from :func:`~repro.geometry.primitives.
        region_covering_point`, so the closed region contains exactly the
        objects whose rectangle objects cover ``point`` — including objects
        sitting on an edge tie that the naive ``point - extent`` inverse
        mapping would round out of the region.
        """
        region = region_covering_point(point, query.rect_width, query.rect_height)
        return RegionResult(region=region, score=score, point=point, fc=fc, fp=fp)

    @staticmethod
    def from_region(
        region: Rect, score: float, fc: float = 0.0, fp: float = 0.0
    ) -> "RegionResult":
        """Build a result directly from a region (grid-based detectors)."""
        return RegionResult(
            region=region, score=score, point=region.top_right, fc=fc, fp=fp
        )


@dataclass
class DetectorStats:
    """Operation counters accumulated while a detector processes a stream."""

    events_processed: int = counter(
        "Window events handed to BurstyRegionDetector.process."
    )
    events_skipped: int = counter(
        "Events whose object fell outside the preferred area and were skipped."
    )
    events_triggering_search: int = counter(
        "Events that triggered at least one cell search (the Table II metric)."
    )
    cells_searched: int = counter(
        "Individual cell searches (SL-CSPOT invocations on a cell)."
    )
    sweepline_calls: int = counter(
        "Stand-alone sweep-line invocations (snapshot searches)."
    )
    rectangles_swept: int = counter(
        "Rectangles examined inside cell searches (a proxy for |c_max|)."
    )

    def merge(self, other: "DetectorStats") -> "DetectorStats":
        """Element-wise sum of two counter sets (useful for multi-grid detectors)."""
        theirs = declared(other)
        return DetectorStats(
            **{name: mine + theirs[name] for name, mine in declared(self).items()}
        )

    @property
    def search_trigger_ratio(self) -> float:
        """Fraction of processed events that triggered a search (Table II)."""
        if self.events_processed == 0:
            return 0.0
        return self.events_triggering_search / self.events_processed


class BurstyRegionDetector(abc.ABC):
    """Abstract base class of all continuous bursty-region detectors."""

    #: Short name used by the factory and in benchmark output.
    name: str = "detector"
    #: Whether the detector reports the exact optimum (used by the harness
    #: when choosing a ground-truth reference).
    exact: bool = False

    def __init__(self, query: SurgeQuery) -> None:
        self.query = query
        self.stats = DetectorStats()

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def process(self, event: WindowEvent) -> None:
        """Apply one window event to the detector state."""

    def process_all(self, events) -> None:
        """Apply a sequence of window events in order."""
        for event in events:
            self.process(event)

    def apply_events(self, batch: "EventBatch | Iterable[WindowEvent]") -> None:
        """Apply a whole event batch at once (the batched ingestion path).

        ``batch`` is an :class:`~repro.streams.objects.EventBatch` of kind
        runs or any :class:`WindowEvent` iterable; overrides read both as
        runs (:func:`~repro.streams.objects.runs_of`), one kind per run.
        This default loops :meth:`process` in lifecycle-safe order.  Every
        shipped detector overrides it to update its per-cell records for the
        whole batch first and re-establish the reported result (bounds,
        heaps, candidate searches) once per batch instead of once per event.

        The reported result after the batch matches the per-event path up to
        floating-point associativity (scores may differ in the last bits
        because bulk maintenance sums contributions in a different order);
        the grid approximations keep the per-event arithmetic and order, so
        theirs is bit-identical to looping :meth:`process` over the batch.
        """
        for event in batch:
            self.process(event)

    # ------------------------------------------------------------------
    # Result interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def result(self) -> RegionResult | None:
        """The current bursty region, or ``None`` when no object is alive."""

    def top_k(self, k: int | None = None) -> list[RegionResult]:
        """The current top-k bursty regions (best first).

        The default implementation returns the single best region; top-k
        detectors override it.
        """
        single = self.result()
        return [single] if single is not None else []

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def current_score(self) -> float:
        """The burst score of the current result (``0`` when there is none)."""
        result = self.result()
        return result.score if result is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(query={self.query!r})"
