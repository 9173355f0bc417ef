"""GAP-SURGE: the grid-based approximate detector (Algorithm 3).

A grid of cells of exactly the query size is imposed over the space; every
cell is a candidate region.  Each arriving / ageing / expiring spatial object
updates the ``(fc, fp)`` accumulator of the single cell containing its
location, and the cell with the maximum burst score is continuously reported.

The returned region is always a grid cell, so its burst score is at least
``(1 - α) / 4`` of the optimum (Theorem 3), and processing an event costs
``O(log n)`` — the heap update.

The same class also serves the top-k extension GAP-kSURGE (Algorithm 6): the
cell heap directly yields the k cells with the highest burst scores.
"""

from __future__ import annotations

from math import floor
from typing import Iterable

from repro.core.base import BurstyRegionDetector, RegionResult
from repro.core.burst import WindowAccumulator, burst_score
from repro.core.query import SurgeQuery
from repro.geometry.grids import CellIndex, GridSpec
from repro.geometry.heaps import LazyMaxHeap
from repro.streams.objects import EventBatch, EventKind, WindowEvent


class GapSurge(BurstyRegionDetector):
    """Grid-based approximate detector (paper's ``GAPS``)."""

    name = "gaps"
    exact = False

    def __init__(self, query: SurgeQuery, grid: GridSpec | None = None) -> None:
        super().__init__(query)
        self.grid = grid if grid is not None else query.base_grid()
        self.cells: dict[CellIndex, WindowAccumulator] = {}
        self._score_heap: LazyMaxHeap[CellIndex] = LazyMaxHeap()

    # ------------------------------------------------------------------
    # Event processing (Algorithm 3)
    # ------------------------------------------------------------------
    def process(self, event: WindowEvent) -> None:
        self.stats.events_processed += 1
        obj = event.obj
        if not self.query.accepts(obj.x, obj.y):
            self.stats.events_skipped += 1
            return

        key = self.grid.cell_of(obj.x, obj.y)
        accumulator = self.cells.get(key)
        if accumulator is None:
            if event.kind is not EventKind.NEW:
                # GROWN / EXPIRED for an object never seen as NEW (e.g. the
                # detector was attached mid-stream): nothing to undo.
                return
            accumulator = WindowAccumulator()
            self.cells[key] = accumulator

        if event.kind is EventKind.NEW:
            accumulator.apply_new(obj.weight, self.query.current_length)
        elif event.kind is EventKind.GROWN:
            accumulator.apply_grown(
                obj.weight, self.query.current_length, self.query.past_length
            )
        else:
            accumulator.apply_expired(obj.weight, self.query.past_length)

        if accumulator.is_empty:
            del self.cells[key]
            self._score_heap.remove(key)
        else:
            self._score_heap.push(key, accumulator.score(self.query.alpha))

    def apply_events(self, batch: "EventBatch | Iterable[WindowEvent]") -> None:
        """Apply a whole event batch, refreshing the score heap once at the end.

        Every event updates its cell's accumulator in the batch's
        lifecycle-safe order with the arithmetic of :meth:`process` (the
        query/grid constants hoisted and ``cell_of`` / the accumulator
        updates inlined), so every cell's ``(fc, fp, counts)`` is
        bit-identical to looping :meth:`process` over the same events.  Only
        the heap maintenance is amortised: each touched cell is removed (if
        the batch emptied it) or re-scored exactly once per batch.  Which of
        two *equal-score* cells is reported may differ from that loop (heap
        insertion order).
        """
        query = self.query
        accepts = None if query.area is None else query.accepts
        current_length = query.current_length
        past_length = query.past_length
        grid = self.grid
        origin_x, origin_y = grid.origin_x, grid.origin_y
        cell_width, cell_height = grid.cell_width, grid.cell_height
        cells = self.cells
        new, grown = EventKind.NEW, EventKind.GROWN
        processed = skipped = 0
        dirty: set[CellIndex] = set()
        for event in batch:
            processed += 1
            obj = event.obj
            x = obj.x
            y = obj.y
            if accepts is not None and not accepts(x, y):
                skipped += 1
                continue
            key = (
                floor((x - origin_x) / cell_width),
                floor((y - origin_y) / cell_height),
            )
            kind = event.kind
            accumulator = cells.get(key)
            if accumulator is None:
                if kind is not new:
                    continue  # never-seen object, empty cell: nothing to undo
                accumulator = cells[key] = WindowAccumulator()
            if kind is new:
                accumulator.fc += obj.weight / current_length
                accumulator.count_current += 1
            elif kind is grown:
                accumulator.fc -= obj.weight / current_length
                accumulator.fp += obj.weight / past_length
                accumulator.count_current -= 1
                accumulator.count_past += 1
            else:
                accumulator.fp -= obj.weight / past_length
                accumulator.count_past -= 1
            if accumulator.count_current == 0 and accumulator.count_past == 0:
                # Dropped in event order, like ``process``: a later NEW into
                # this cell must restart from a zero accumulator.
                del cells[key]
            dirty.add(key)
        self.stats.events_processed += processed
        self.stats.events_skipped += skipped

        heap = self._score_heap
        alpha = query.alpha
        rescored = []
        for key in dirty:
            accumulator = cells.get(key)
            if accumulator is None:
                heap.remove(key)
            else:
                rescored.append(
                    (key, burst_score(accumulator.fc, accumulator.fp, alpha))
                )
        heap.push_all(rescored)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> RegionResult | None:
        top = self._score_heap.peek()
        if top is None:
            return None
        key, score = top
        return self._cell_result(key, score)

    def top_k(self, k: int | None = None) -> list[RegionResult]:
        """The k cells with the highest burst scores (GAP-kSURGE)."""
        if k is None:
            k = self.query.k
        return [self._cell_result(key, score) for key, score in self._score_heap.top_n(k)]

    def _cell_result(self, key: CellIndex, score: float) -> RegionResult:
        accumulator = self.cells[key]
        return RegionResult.from_region(
            self.grid.cell_rect(key),
            score,
            fc=accumulator.fc,
            fp=accumulator.fp,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def live_cell_count(self) -> int:
        """Number of non-empty cells currently materialised."""
        return len(self.cells)
