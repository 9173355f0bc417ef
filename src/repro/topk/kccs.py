"""CCS-kSURGE: the exact top-k extension of Cell-CSPOT (Algorithm 4).

Definition 9 of the paper defines the top-k bursty regions greedily: the i-th
region maximises the burst score computed over the objects **not** covered by
the first ``i - 1`` regions.  Through the Theorem 1 reduction this becomes k
chained CSPOT problems: the i-th bursty point is searched over the rectangle
objects that do not cover any of the first ``i - 1`` bursty points (the
paper's *rectangle levels*).

Implementation notes
--------------------
The paper shares work across the k CSPOT problems with per-level upper bounds
and candidate points.  This implementation keeps the same two sharing ideas
in a slightly more conservative form that favours clear correctness:

* the cell grid and its rectangle lists are shared by all levels, and the
  *full* static bound of a cell (over all rectangles, Lemma 2) is used to
  prune the search of every level — excluding rectangles can only lower the
  current-window mass of a point, so the bound stays valid for every level;
* per ``(cell, level)`` the result of the last sweep is memoised together
  with the cell version and the exact set of excluded rectangles it was
  computed under; the memo is reused whenever neither has changed, which is
  the common case when the top-k points are stable across events.

Additionally, the k chained CSPOT problems are **amortized across events**:
processing an event only updates cell state and marks the result list dirty,
and the greedy top-k recomputation runs lazily when ``result()`` /
``top_k()`` is read.  Batch ingestion (``SurgeMonitor.push_many`` or
``process_all`` followed by one read) therefore pays for a single
recomputation per batch instead of one per window event.

The reported regions are exact with respect to Definition 9 (the test suite
checks them against a greedy brute force); the pruning is merely less tight
than the paper's most aggressive bookkeeping, which only affects constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.base import BurstyRegionDetector, RegionResult
from repro.core.cell_index import UniformGridIndex
from repro.core.cells import CandidatePoint
from repro.core.query import SurgeQuery
from repro.core.sweep_backends import SweepBackend, resolve_backend
from repro.core.sweepline import LabeledRect, sweep_bursty_point
from repro.geometry.grids import CellIndex, GridSpec
from repro.geometry.heaps import LazyMaxHeap
from repro.geometry.primitives import Rect
from repro.streams.objects import EventBatch, EventKind, RectangleObject, WindowEvent

#: Slack protecting the bound-vs-incumbent pruning from floating-point drift.
_BOUND_TOLERANCE = 1e-9


@dataclass
class _TopKRecord:
    """A rectangle object stored in a cell (shared by all k levels)."""

    rect: RectangleObject
    in_current: bool


@dataclass
class _LevelMemo:
    """Memoised sweep result for one (cell, level) pair."""

    version: int
    excluded: frozenset[int]
    candidate: CandidatePoint | None


@dataclass
class _TopKCell:
    """Per-cell state shared by the k chained CSPOT problems."""

    bounds: Rect
    records: dict[int, _TopKRecord] = field(default_factory=dict)
    static_bound: float = 0.0
    #: Monotone counter bumped whenever the rectangle set or a label changes.
    version: int = 0
    #: level index -> memoised sweep result.
    memos: dict[int, _LevelMemo] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not self.records


class CellCSPOTTopK(BurstyRegionDetector):
    """Exact continuous top-k detector (paper's ``kCCS``)."""

    name = "kccs"
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
        self.cells: dict[CellIndex, _TopKCell] = {}
        self._bound_heap: LazyMaxHeap[CellIndex] = LazyMaxHeap()
        self._results: list[RegionResult] = []
        #: Whether cell state changed since ``_results`` was last computed.
        self._dirty = False

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def process(self, event: WindowEvent) -> None:
        self.apply_events((event,))

    def apply_events(self, batch: "EventBatch | Iterable[WindowEvent]") -> None:
        """Apply a whole event batch with one bulk bound-heap refresh.

        The greedy recomputation is already lazy (it runs on the next result
        read), so batching here only has to make the state updates cheap:
        per-cell records are updated in the batch's lifecycle-safe order and
        every dirty cell's static bound enters the heap once via
        :meth:`LazyMaxHeap.push_all` instead of once per event.
        """
        processed_before = self.stats.events_processed
        skipped_before = self.stats.events_skipped
        cells = self.cells
        dirty = self._apply_batch_records(batch)
        self._bound_heap.push_all(
            (key, cells[key].static_bound) for key in dirty if key in cells
        )
        accepted = (self.stats.events_processed - processed_before) - (
            self.stats.events_skipped - skipped_before
        )
        if accepted > 0:
            self._dirty = True

    def _update_cell(
        self, key: CellIndex, rect: RectangleObject, kind: EventKind
    ) -> _TopKCell | None:
        """Update one cell's records; returns the surviving (dirty) cell."""
        cell = self.cells.get(key)
        if kind is EventKind.NEW:
            if cell is None:
                cell = _TopKCell(bounds=self.grid.cell_rect(key))
                self.cells[key] = cell
            cell.records[rect.object_id] = _TopKRecord(rect=rect, in_current=True)
            cell.static_bound += rect.weight / self.query.current_length
        elif kind is EventKind.GROWN:
            if cell is None:
                return None
            record = cell.records.get(rect.object_id)
            if record is None:
                return None
            record.in_current = False
            cell.static_bound -= rect.weight / self.query.current_length
        else:  # EXPIRED
            if cell is None:
                return None
            if cell.records.pop(rect.object_id, None) is None:
                return None
            if cell.is_empty:
                del self.cells[key]
                self._bound_heap.remove(key)
                return None
        cell.version += 1
        return cell

    # ------------------------------------------------------------------
    # Greedy top-k computation (the k chained CSPOT problems)
    # ------------------------------------------------------------------
    def _ensure_results(self) -> None:
        """Recompute the memoised top-k list if events arrived since last read.

        Note on stats: with lazy recomputation, ``events_triggering_search``
        counts *result reads* that performed at least one cell search, so
        ``search_trigger_ratio`` depends on the read cadence and is not
        comparable to the eager detectors' per-event ratio (Table II only
        reports that metric for ccs/bccs, which are unaffected).
        """
        if not self._dirty:
            return
        searches_before = self.stats.cells_searched
        self._results = self._compute_top_k()
        self._dirty = False
        if self.stats.cells_searched > searches_before:
            self.stats.events_triggering_search += 1

    def _compute_top_k(self) -> list[RegionResult]:
        excluded: set[int] = set()
        results: list[RegionResult] = []
        for level in range(self.query.k):
            best = self._best_point_excluding(level, excluded)
            if best is None or (best.fc <= 0.0 and best.fp <= 0.0):
                break
            results.append(
                RegionResult.from_point(
                    best.point, best.score, self.query, fc=best.fc, fp=best.fp
                )
            )
            excluded |= self._rectangles_covering(best.point)
        return results

    def _best_point_excluding(
        self, level: int, excluded: set[int]
    ) -> CandidatePoint | None:
        """The bursty point over rectangles not in ``excluded`` (level-i CSPOT)."""
        best: CandidatePoint | None = None
        popped: list[tuple[CellIndex, float]] = []
        while True:
            top = self._bound_heap.peek()
            if top is None:
                break
            key, bound = top
            if best is not None and bound <= best.score + _BOUND_TOLERANCE:
                break
            self._bound_heap.pop()
            popped.append((key, bound))
            cell = self.cells.get(key)
            if cell is None:
                continue
            candidate = self._cell_candidate(key, cell, level, excluded)
            if candidate is not None and (best is None or candidate.score > best.score):
                best = candidate
        for key, bound in popped:
            if key in self.cells:
                self._bound_heap.push(key, bound)
        return best

    def _cell_candidate(
        self, key: CellIndex, cell: _TopKCell, level: int, excluded: set[int]
    ) -> CandidatePoint | None:
        """Best point of one cell for one level, reusing the memo when possible."""
        local_excluded = frozenset(excluded & cell.records.keys())
        memo = cell.memos.get(level)
        if (
            memo is not None
            and memo.version == cell.version
            and memo.excluded == local_excluded
        ):
            return memo.candidate

        self.stats.cells_searched += 1
        labeled = [
            LabeledRect(
                record.rect.x,
                record.rect.y,
                record.rect.x + record.rect.width,
                record.rect.y + record.rect.height,
                record.rect.weight,
                record.in_current,
            )
            for object_id, record in cell.records.items()
            if object_id not in local_excluded
        ]
        candidate: CandidatePoint | None = None
        if labeled:
            outcome = sweep_bursty_point(
                labeled,
                alpha=self.query.alpha,
                current_length=self.query.current_length,
                past_length=self.query.past_length,
                bounds=cell.bounds,
                backend=self.sweep_backend,
            )
            if outcome is not None:
                self.stats.rectangles_swept += outcome.rectangles_swept
                candidate = CandidatePoint(
                    point=outcome.point,
                    score=outcome.score,
                    fc=outcome.fc,
                    fp=outcome.fp,
                    valid=True,
                )
        cell.memos[level] = _LevelMemo(
            version=cell.version, excluded=local_excluded, candidate=candidate
        )
        return candidate

    def _rectangles_covering(self, point) -> set[int]:
        """Ids of all live rectangle objects covering ``point``."""
        key = self.grid.cell_of(point.x, point.y)
        covering: set[int] = set()
        # Any rectangle covering the point overlaps every cell containing it,
        # so scanning the cell addressed by the point is sufficient; we also
        # scan neighbouring cells when the point lies exactly on a grid line.
        candidates = {key}
        cell_rect = self.grid.cell_rect(key)
        on_left_edge = point.x == cell_rect.min_x
        on_bottom_edge = point.y == cell_rect.min_y
        if on_left_edge:
            candidates.add((key[0] - 1, key[1]))
        if on_bottom_edge:
            candidates.add((key[0], key[1] - 1))
        if on_left_edge and on_bottom_edge:
            candidates.add((key[0] - 1, key[1] - 1))
        for cell_key in candidates:
            cell = self.cells.get(cell_key)
            if cell is None:
                continue
            for object_id, record in cell.records.items():
                if record.rect.covers(point.x, point.y):
                    covering.add(object_id)
        return covering

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> RegionResult | None:
        self._ensure_results()
        return self._results[0] if self._results else None

    def top_k(self, k: int | None = None) -> list[RegionResult]:
        self._ensure_results()
        if k is None or k >= len(self._results):
            return list(self._results)
        return self._results[:k]
