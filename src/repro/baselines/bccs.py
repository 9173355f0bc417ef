"""``B-CCS``: Cell-CSPOT restricted to the static upper bound.

This baseline isolates the contribution of the dynamic upper bound and the
Lemma 4 candidate maintenance: cells are still ranked by an upper bound, but
only the static one (Definition 7), and a cell's memoised candidate is
discarded as soon as the cell is touched by an event.  Because the static
bound ignores the past window entirely it is loose — especially with weights
drawn from ``[1, 100]`` — so far more cells have to be re-searched than with
the full Cell-CSPOT machinery (Table II of the paper), which is what the
Table II / Figure 5 benchmarks measure.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.base import BurstyRegionDetector, RegionResult
from repro.core.cell_index import UniformGridIndex
from repro.core.cells import CandidatePoint, CellState
from repro.core.query import SurgeQuery
from repro.core.sweep_backends import SweepBackend, resolve_backend
from repro.core.sweepline import sweep_bursty_point
from repro.geometry.grids import CellIndex, GridSpec
from repro.geometry.heaps import LazyMaxHeap
from repro.streams.objects import EventBatch, EventKind, RectangleObject, WindowEvent

#: Slack used when comparing a static bound against the incumbent score, so
#: floating-point drift never prunes the true optimum.
_BOUND_TOLERANCE = 1e-9


class StaticBoundCellCSPOT(BurstyRegionDetector):
    """Exact cell-based detector using only the static upper bound (paper's ``B-CCS``)."""

    name = "bccs"
    exact = True

    def __init__(
        self,
        query: SurgeQuery,
        grid: GridSpec | None = None,
        backend: str | SweepBackend | None = None,
    ) -> None:
        super().__init__(query)
        self.grid = grid if grid is not None else query.base_grid()
        self.cell_index = UniformGridIndex(self.grid)
        self.sweep_backend = resolve_backend(backend)
        self.cells: dict[CellIndex, CellState] = {}
        #: Cells ranked by their static upper bound.
        self._bound_heap: LazyMaxHeap[CellIndex] = LazyMaxHeap()
        #: Cells with a memoised (valid) candidate, ranked by its score.
        self._score_heap: LazyMaxHeap[CellIndex] = LazyMaxHeap()

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def process(self, event: WindowEvent) -> None:
        self.stats.events_processed += 1
        obj = event.obj
        if not self.query.accepts(obj.x, obj.y):
            self.stats.events_skipped += 1
            return
        rect = obj.to_rectangle(self.query.rect_width, self.query.rect_height)
        searches_before = self.stats.cells_searched

        for key in self.cell_index.cells_overlapping(
            rect.x, rect.y, rect.x + rect.width, rect.y + rect.height
        ):
            cell = self._update_cell(key, rect, event.kind)
            if cell is not None:
                self._bound_heap.push(key, cell.static_bound)

        self._settle()
        if self.stats.cells_searched > searches_before:
            self.stats.events_triggering_search += 1

    def apply_events(self, batch: "EventBatch | Iterable[WindowEvent]") -> None:
        """Apply a whole event batch, settling the pruned search once at the end.

        Touched cells are invalidated once per dirty cell (invalidation is
        idempotent, so only the first touch matters), their static bounds go
        into the heap in one ``push_all``, and the bound-ordered search loop
        runs a single time after the last event.
        """
        searches_before = self.stats.cells_searched
        cells = self.cells
        dirty = self._apply_batch_records(
            batch, cells, self._overlapping_cells, self._update_cell
        )
        self._bound_heap.push_all(
            (key, cells[key].static_bound) for key in dirty if key in cells
        )
        self._settle()
        if self.stats.cells_searched > searches_before:
            self.stats.events_triggering_search += 1

    def _update_cell(
        self, key: CellIndex, rect: RectangleObject, kind: EventKind
    ) -> CellState | None:
        """Update one cell's records; returns the surviving (dirty) cell."""
        cell = self.cells.get(key)
        if kind is EventKind.NEW:
            if cell is None:
                cell = CellState(bounds=self.grid.cell_rect(key))
                self.cells[key] = cell
            cell.add_new(rect, self.query.current_length)
        elif kind is EventKind.GROWN:
            if cell is None:
                return None
            cell.mark_grown(rect, self.query.current_length)
        else:  # EXPIRED
            if cell is None:
                return None
            cell.remove_expired(rect, self.query.past_length, self.query.alpha)
            if cell.is_empty:
                del self.cells[key]
                self._bound_heap.remove(key)
                self._score_heap.remove(key)
                return None
        # Without Lemma 4 bookkeeping any touched cell must be re-searched.
        cell.invalidate_candidate()
        self._score_heap.remove(key)
        return cell

    # ------------------------------------------------------------------
    # Pruned search loop
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Search cells in descending static-bound order until none can win."""
        popped: list[tuple[CellIndex, float]] = []
        while True:
            top = self._bound_heap.peek()
            if top is None:
                break
            incumbent = self._score_heap.peek()
            key, bound = top
            if incumbent is not None and bound <= incumbent[1] + _BOUND_TOLERANCE:
                break
            self._bound_heap.pop()
            popped.append((key, bound))
            cell = self.cells.get(key)
            if cell is None:
                continue
            if not cell.has_valid_candidate():
                self._search_cell(key, cell)
        for key, bound in popped:
            if key in self.cells:
                self._bound_heap.push(key, bound)

    def _search_cell(self, key: CellIndex, cell: CellState) -> None:
        self.stats.cells_searched += 1
        outcome = sweep_bursty_point(
            cell.labeled_rects(),
            alpha=self.query.alpha,
            current_length=self.query.current_length,
            past_length=self.query.past_length,
            backend=self.sweep_backend,
        )
        if outcome is None:  # pragma: no cover - records always intersect the cell
            cell.candidate = None
            return
        self.stats.rectangles_swept += outcome.rectangles_swept
        cell.candidate = CandidatePoint(
            point=outcome.point,
            score=outcome.score,
            fc=outcome.fc,
            fp=outcome.fp,
            valid=True,
        )
        self._score_heap.push(key, outcome.score)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> RegionResult | None:
        top = self._score_heap.peek()
        if top is None:
            return None
        key, _ = top
        candidate = self.cells[key].candidate
        if candidate is None or not candidate.valid:  # pragma: no cover - defensive
            return None
        return RegionResult.from_point(
            candidate.point,
            candidate.score,
            self.query,
            fc=candidate.fc,
            fp=candidate.fp,
        )
