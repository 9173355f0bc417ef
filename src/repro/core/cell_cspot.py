"""Cell-CSPOT: the exact continuous bursty-region detector (Algorithm 2).

The detector reduces SURGE to CSPOT (Theorem 1): every arriving spatial
object becomes an ``a × b`` rectangle object anchored at the object, and the
bursty point — a point covered by the rectangle set with the maximum burst
score — is the top-right corner of the reported bursty region.

A grid of ``a × b`` cells is laid over the space so a rectangle object
overlaps at most four cells (Lemma 1).  Each cell carries the rectangle
objects overlapping it, a static and a dynamic burst-score upper bound
(Lemmas 2–3) and the memoised candidate point of its last search, kept valid
across events through Lemma 4.  Cells are ranked by ``U(c) = min(Us, Ud)``;
after every event the detector walks cells in descending bound order and
re-runs the SL-CSPOT sweep only on cells whose candidate is no longer known
to be the cell maximum (the *lazy update* strategy of Section IV-C).

The correctness of the early termination relies on an invariant maintained
here: whenever a cell's candidate is valid, its dynamic bound equals the
candidate's score (the Equation 3 adjustments and the Lemma 4 adjustments
move in lock-step), so the top of the bound heap having a valid candidate
implies no other cell can contain a better point.
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


class CellCSPOT(BurstyRegionDetector):
    """Exact continuous detector with lazy cell updates (paper's ``CCS``)."""

    name = "ccs"
    exact = True

    def __init__(
        self,
        query: SurgeQuery,
        grid: GridSpec | None = None,
        candidate_reuse: bool = True,
        backend: str | SweepBackend | None = None,
    ) -> None:
        """Create the detector.

        ``candidate_reuse`` controls the Lemma 4 candidate maintenance; it is
        on by default and exists so the ablation benchmark can quantify how
        much of the pruning comes from candidate reuse versus the bounds.
        Disabling it never changes the reported result, only the work done.
        ``backend`` selects the SL-CSPOT sweep kernel (see
        :mod:`repro.core.sweep_backends`).
        """
        super().__init__(query)
        self.grid = grid if grid is not None else query.base_grid()
        self.cell_index = UniformGridIndex(self.grid)
        self.sweep_backend = resolve_backend(backend)
        self.candidate_reuse = candidate_reuse
        self.cells: dict[CellIndex, CellState] = {}
        self._bound_heap: LazyMaxHeap[CellIndex] = LazyMaxHeap()
        self._result: RegionResult | None = None

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def process(self, event: WindowEvent) -> None:
        """Apply one window event and re-establish the current bursty point."""
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
                self._bound_heap.push(key, cell.upper_bound)

        self._refresh_result()
        if self.stats.cells_searched > searches_before:
            self.stats.events_triggering_search += 1

    def apply_events(self, batch: "EventBatch | Iterable[WindowEvent]") -> None:
        """Apply a whole event batch, settling the result once at the end.

        Cell records and candidates are updated per event (in the batch's
        lifecycle-safe order, so the Lemma 4 adjustments see exactly the
        per-event sequence), but the expensive maintenance is amortised over
        the batch: every touched cell's upper bound goes into the heap once
        via :meth:`LazyMaxHeap.push_all` instead of once per event, and the
        lazy search loop (Algorithm 2, lines 4-9) runs a single time after
        the last event instead of after each one.
        """
        searches_before = self.stats.cells_searched
        cells = self.cells
        dirty = self._apply_batch_records(
            batch, cells, self._overlapping_cells, self._update_cell
        )
        self._bound_heap.push_all(
            (key, cells[key].upper_bound) for key in dirty if key in cells
        )
        self._refresh_result()
        if self.stats.cells_searched > searches_before:
            self.stats.events_triggering_search += 1

    def _update_cell(
        self, key: CellIndex, rect: RectangleObject, kind: EventKind
    ) -> CellState | None:
        """Update one affected cell's records, bounds and candidate.

        Returns the surviving cell (whose heap priority the caller must
        refresh) or ``None`` when the event emptied and removed the cell.
        """
        cell = self.cells.get(key)
        if kind is EventKind.NEW:
            if cell is None:
                cell = CellState(bounds=self.grid.cell_rect(key))
                self.cells[key] = cell
            cell.add_new(rect, self.query.current_length)
            if self.candidate_reuse:
                cell.update_candidate_for_new(
                    rect, self.query.current_length, self.query.alpha
                )
            else:
                cell.invalidate_candidate()
        elif kind is EventKind.GROWN:
            if cell is None:
                return None
            cell.mark_grown(rect, self.query.current_length)
            if self.candidate_reuse:
                cell.update_candidate_for_grown(rect)
            else:
                cell.invalidate_candidate()
        else:  # EXPIRED
            if cell is None:
                return None
            cell.remove_expired(rect, self.query.past_length, self.query.alpha)
            if self.candidate_reuse:
                cell.update_candidate_for_expired(
                    rect, self.query.past_length, self.query.alpha
                )
            else:
                cell.invalidate_candidate()
            if cell.is_empty:
                del self.cells[key]
                self._bound_heap.remove(key)
                return None
        return cell

    # ------------------------------------------------------------------
    # Lazy search loop (Algorithm 2, lines 4-9)
    # ------------------------------------------------------------------
    def _refresh_result(self) -> None:
        while True:
            top = self._bound_heap.peek()
            if top is None:
                self._result = None
                return
            key, _ = top
            cell = self.cells[key]
            if cell.has_valid_candidate():
                candidate = cell.candidate
                assert candidate is not None
                self._result = RegionResult.from_point(
                    candidate.point,
                    candidate.score,
                    self.query,
                    fc=candidate.fc,
                    fp=candidate.fp,
                )
                return
            self._search_cell(key, cell)

    def _search_cell(self, key: CellIndex, cell: CellState) -> None:
        """Run SL-CSPOT inside one cell and memoise the result (lines 6-7)."""
        self.stats.cells_searched += 1
        outcome = sweep_bursty_point(
            cell.labeled_rects(),
            alpha=self.query.alpha,
            current_length=self.query.current_length,
            past_length=self.query.past_length,
            backend=self.sweep_backend,
        )
        if outcome is None:
            # No rectangle intersects the cell (cannot normally happen because
            # records are added only for overlapping cells); treat as empty.
            cell.candidate = CandidatePoint(
                point=cell.bounds.top_right, score=0.0, fc=0.0, fp=0.0, valid=True
            )
            cell.dynamic_bound = 0.0
        else:
            self.stats.rectangles_swept += outcome.rectangles_swept
            cell.candidate = CandidatePoint(
                point=outcome.point,
                score=outcome.score,
                fc=outcome.fc,
                fp=outcome.fp,
                valid=True,
            )
            cell.dynamic_bound = outcome.score
        self._bound_heap.push(key, cell.upper_bound)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> RegionResult | None:
        """The current bursty region (top-right corner at the bursty point)."""
        return self._result

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and benchmarks
    # ------------------------------------------------------------------
    @property
    def live_cell_count(self) -> int:
        """Number of non-empty cells currently materialised."""
        return len(self.cells)

    @property
    def live_rectangle_count(self) -> int:
        """Total number of (cell, rectangle) incidences currently stored."""
        return sum(len(cell) for cell in self.cells.values())
