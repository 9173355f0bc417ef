"""``Base``: the cell-based baseline without any upper-bound pruning.

Appendix J of the paper describes it as: divide the space into cells and,
whenever an event happens, search every cell that overlaps with the event's
rectangle object.  The per-cell best points are memoised so that unaffected
cells keep their previous answer, and the global answer is the best memoised
point.  The only thing missing compared to Cell-CSPOT is the pruning — every
affected cell is swept on every event — which is exactly what makes it an
order of magnitude slower (Figure 5).
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


class BaseCellDetector(BurstyRegionDetector):
    """Exact cell-based detector that searches every affected cell (paper's ``Base``)."""

    name = "base"
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
        searched = False

        for key in self.cell_index.cells_overlapping(
            rect.x, rect.y, rect.x + rect.width, rect.y + rect.height
        ):
            cell = self._update_cell(key, rect, event.kind)
            if cell is None:
                continue
            self._search_cell(key, cell)
            searched = True

        if searched:
            self.stats.events_triggering_search += 1

    def apply_events(self, batch: "EventBatch | Iterable[WindowEvent]") -> None:
        """Apply a whole event batch, sweeping each affected cell only once.

        The per-event path re-sweeps a cell for *every* event that touches
        it; the batch path updates all cell records first and then sweeps
        each distinct dirty cell a single time over its final record set,
        which is where the Base baseline's batched speedup comes from.
        """
        cells = self.cells
        dirty = self._apply_batch_records(
            batch, cells, self._overlapping_cells, self._update_cell
        )
        searched = False
        for key in dirty:
            cell = cells.get(key)
            if cell is not None:
                self._search_cell(key, cell)
                searched = True
        if searched:
            # With batching, this counts result settlements that searched at
            # least one cell (one per batch), not per-event triggers.
            self.stats.events_triggering_search += 1

    def _update_cell(
        self, key: CellIndex, rect: RectangleObject, kind: EventKind
    ) -> CellState | None:
        """Update one cell's records; returns the surviving cell to re-sweep."""
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
                self._score_heap.remove(key)
                return None
        return cell

    def _search_cell(self, key: CellIndex, cell: CellState) -> None:
        """Unconditionally sweep one cell and memoise its best point."""
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
            self._score_heap.remove(key)
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
        if candidate is None:  # pragma: no cover - defensive
            return None
        return RegionResult.from_point(
            candidate.point,
            candidate.score,
            self.query,
            fc=candidate.fc,
            fp=candidate.fp,
        )
