"""Per-cell state and the shared record loop of the cell-based exact detectors.

Each grid cell (of exactly the query-rectangle size, Definition 6) tracks

* the rectangle objects overlapping it, as *columns*: one row per rectangle
  in arrival order — its extent clipped to the cell (once, when it arrives),
  its weight, its window label and its object id — so a search hands the
  sweep kernel the arrays themselves instead of rebuilding them from
  per-rectangle objects,
* the static upper bound ``Us`` (Definition 7 / Lemma 2),
* the dynamic upper bound ``Ud`` (Equation 3 / Lemma 3) per sub-cell of a
  K × K raster: a search sets every entry to the exact cell maximum, a NEW or
  EXPIRED event adds its gain to the entries its clipped row reaches.  So
  ``S_now(p) ≤ S_search(p) + Σ gains of the events covering p ≤ entry(sub-cell
  of p)``, and the largest entry rises by a batch's heaviest overlap, not its sum,
* and the candidate point of the last per-cell search together with its window
  scores and a validity flag maintained through Lemma 4.

The combined upper bound is ``U(c) = min(Us, Ud)`` (Definition 8), ``Ud`` the
largest sub-cell entry; the detector ranks cells by it in a lazy max-heap.

:class:`CellSweepDetector` is what the four detectors built on these cells
(``ccs``, ``bccs``, ``base``, ``kccs``) share: the live-cell dict, the loop
that applies a batch of window events to the cells' rows, and the per-cell
sweep.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Collection, Iterable

from repro.core.base import BurstyRegionDetector, RegionResult
from repro.core.burst import burst_score
from repro.core.cell_index import UniformGridIndex
from repro.core.query import SurgeQuery
from repro.core.sweep_backends import SweepBackend, resolve_backend
from repro.core.sweep_backends.types import RectColumns
from repro.core.sweepline import sweep_bursty_point
from repro.geometry.grids import CellIndex, GridSpec
from repro.geometry.heaps import LazyMaxHeap
from repro.geometry.primitives import Point, Rect
from repro.streams.objects import EventBatch, EventKind, RectangleObject, WindowEvent

_INF = float("inf")

#: Sub-cells per cell side for the dynamic bound (K).  Cell searches in 300
#: ``exact_uniform`` chunks (seed 7) at K = 1 / 2 / 3 / 4 / 6 / 8: 5,449 / 4,501 /
#: 4,193 / 4,038 / 3,909 / 3,846; a sweep of the events (K → ∞) 3,628, at a loss.
SUB_CELLS = 4
_EDGES = range(SUB_CELLS + 1)
#: ``_SUB_SPANS[r0][r1][c0][c1]``: the row-major entries of sub-rows r0..r1 ×
#: sub-columns c0..c1; index K (the cell's far edge) counts as K - 1.
_SUB_SPANS = [[[[
    tuple(sorted({min(r, SUB_CELLS - 1) * SUB_CELLS + min(c, SUB_CELLS - 1)
                  for r in range(r0, r1 + 1) for c in range(c0, c1 + 1)}))
    for c1 in _EDGES] for c0 in _EDGES] for r1 in _EDGES] for r0 in _EDGES]


@dataclass
class CandidatePoint:
    """The memoised result of the last search of a cell."""

    point: Point
    score: float
    fc: float
    fp: float
    valid: bool = True


@dataclass
class CellState:
    """Mutable state of one grid cell of the Cell-CSPOT detector.

    ``add`` / ``grow`` / ``expire`` take a rectangle object's fields as
    scalars (the record loop computes them once per event and builds no
    object); ``add_new`` / ``mark_grown`` unpack one, for building a cell by
    hand.
    """

    bounds: Rect
    #: Object id of every row, in arrival order (parallel to ``rects``).
    ids: list[int] = field(default_factory=list)
    #: The rows' extents clipped to the cell, weights and window labels.
    rects: RectColumns = field(default_factory=RectColumns)
    static_bound: float = 0.0
    #: ``Ud`` of each sub-cell, row-major; empty until the cell's first search.
    sub_bounds: list[float] = field(default_factory=list)
    candidate: CandidatePoint | None = None
    #: Number of leading rows labelled past.  Windows are FIFO, so this is
    #: the row a GROWN event concerns (and row 0 the one that expires); both
    #: are verified against ``ids`` and searched for when they do not match.
    grown: int = 0
    #: Rows whose clipped extent is empty by a rounding error.
    degenerate: int = 0

    # ------------------------------------------------------------------
    # Rectangle bookkeeping
    # ------------------------------------------------------------------
    def add(
        self, object_id: int, x: float, y: float, max_x: float, max_y: float,
        weight: float, gain: float,
    ) -> None:
        """A new rectangle object (current window) starts overlapping the cell.

        ``[x, max_x] × [y, max_y]`` is the rectangle, ``gain`` its
        ``weight / |Wc|``.  The row keeps it clipped to the cell (inside the
        cell both cover the same points), so a sweep needs no clipping pass.
        """
        bounds = self.bounds
        min_x = max(x, bounds.min_x)
        min_y = max(y, bounds.min_y)
        max_x = min(max_x, bounds.max_x)
        max_y = min(max_y, bounds.max_y)
        if min_x > max_x or min_y > max_y:
            self.degenerate += 1
        elif self.sub_bounds:
            self._raise_sub_bounds(min_x, min_y, max_x, max_y, gain)
        rects = self.rects
        self.ids.append(object_id)
        rects.min_x.append(min_x)
        rects.min_y.append(min_y)
        rects.max_x.append(max_x)
        rects.max_y.append(max_y)
        rects.weight.append(weight)
        rects.in_current.append(1)
        self.static_bound += gain

    def grow(self, object_id: int, gain: float) -> bool:
        """A rectangle object moves from the current to the past window.

        ``gain`` is its ``weight / |Wc|``.  Returns whether the cell holds
        the object (a transition of an object it never saw is a no-op).
        """
        ids = self.ids
        row = self.grown
        if row >= len(ids) or ids[row] != object_id:
            row = self._find(object_id)
            if row < 0:
                return False
        self.rects.in_current[row] = 0
        self._skip_grown()
        self.static_bound -= gain
        # Equation 3: a grown event never increases any score, Ud is unchanged.
        return True

    def expire(self, object_id: int, bound_gain: float) -> bool:
        """A rectangle object leaves the past window and the cell.

        ``bound_gain`` is Equation 3's ``α · weight / |Wp|``.  Returns whether
        the cell held the object.
        """
        ids = self.ids
        row = 0
        if not ids or ids[0] != object_id:
            row = self._find(object_id)
            if row < 0:
                return False
        rects = self.rects
        if self.sub_bounds or self.degenerate:
            clip = rects.min_x[row], rects.min_y[row], rects.max_x[row], rects.max_y[row]
            if clip[0] > clip[2] or clip[1] > clip[3]:
                self.degenerate -= 1
            elif self.sub_bounds:
                self._raise_sub_bounds(*clip, bound_gain)
        del ids[row]
        del rects.min_x[row]
        del rects.min_y[row]
        del rects.max_x[row]
        del rects.max_y[row]
        del rects.weight[row]
        del rects.in_current[row]
        if row < self.grown:
            self.grown -= 1
        else:
            self._skip_grown()
        return True

    def _raise_sub_bounds(
        self, min_x: float, min_y: float, max_x: float, max_y: float, gain: float
    ) -> None:
        """Equation 3 on the sub-cells that a non-empty clipped row reaches."""
        bounds = self.bounds
        x0, y0 = bounds.min_x, bounds.min_y
        per_x = SUB_CELLS / (bounds.max_x - x0)
        per_y = SUB_CELLS / (bounds.max_y - y0)
        sub_bounds = self.sub_bounds
        # int() is monotone: the span holds the sub-cell of every point the row covers.
        for entry in _SUB_SPANS[int((min_y - y0) * per_y)][int((max_y - y0) * per_y)][
            int((min_x - x0) * per_x)
        ][int((max_x - x0) * per_x)]:
            sub_bounds[entry] += gain

    def _find(self, object_id: int) -> int:
        """Row of ``object_id`` when it is not where FIFO windows put it, or -1."""
        try:
            return self.ids.index(object_id)
        except ValueError:
            return -1

    def _skip_grown(self) -> None:
        """Re-establish ``grown`` as the number of leading past rows."""
        in_current = self.rects.in_current
        row = self.grown
        rows = len(in_current)
        while row < rows and not in_current[row]:
            row += 1
        self.grown = row

    def add_new(self, rect: RectangleObject, current_length: float) -> None:
        """:meth:`add` for a rectangle object."""
        self.add(
            rect.object_id, rect.x, rect.y, rect.x + rect.width,
            rect.y + rect.height, rect.weight, rect.weight / current_length,
        )

    def mark_grown(self, rect: RectangleObject, current_length: float) -> bool:
        """:meth:`grow` for a rectangle object."""
        return self.grow(rect.object_id, rect.weight / current_length)

    # ------------------------------------------------------------------
    # Candidate maintenance (Lemma 4)
    # ------------------------------------------------------------------
    def raise_candidate(
        self, x: float, y: float, max_x: float, max_y: float,
        fc_gain: float, fp_loss: float, alpha: float,
    ) -> None:
        """Adjust or invalidate the candidate after a NEW or EXPIRED event.

        The event's rectangle ``[x, max_x] × [y, max_y]`` adds ``fc_gain`` to
        the current-window score (NEW) or takes ``fp_loss`` off the
        past-window score (EXPIRED) of the points it covers.  The candidate
        stays the cell maximum only if it is one of them and gains in full.
        """
        candidate = self.candidate
        if candidate is None or not candidate.valid:
            return
        point = candidate.point
        if (
            x <= point.x <= max_x
            and y <= point.y <= max_y
            and candidate.fc - candidate.fp > 0.0
        ):
            candidate.fc += fc_gain
            candidate.fp -= fp_loss
            candidate.score = burst_score(candidate.fc, candidate.fp, alpha)
        else:
            candidate.valid = False

    def lower_candidate(self, x: float, y: float, max_x: float, max_y: float) -> None:
        """Invalidate the candidate if a GROWN event's rectangle covers it.

        Otherwise it is untouched and remains the cell maximum (a grown
        event can only lower scores of points inside the rectangle).
        """
        candidate = self.candidate
        if candidate is not None and candidate.valid:
            point = candidate.point
            if x <= point.x <= max_x and y <= point.y <= max_y:
                candidate.valid = False

    def invalidate_candidate(self) -> None:
        """Force the candidate to be recomputed on the next visit."""
        if self.candidate is not None:
            self.candidate.valid = False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def labeled_rects(self, excluded: Collection[int] = ()) -> RectColumns:
        """The cell's rectangles, clipped and labelled, ready to be swept.

        The cell's own columns (to read, not to keep or change) — or a copy
        without the rows of the object ids in ``excluded`` (a top-k level)
        and, while the cell holds a rectangle that touches its grid line by
        address but misses it by an ulp in coordinates, without those rows:
        they cover no point of the cell.
        """
        if not excluded and not self.degenerate:
            return self.rects
        rects = self.rects
        rows = zip(
            rects.min_x, rects.min_y, rects.max_x, rects.max_y,
            rects.weight, rects.in_current,
        )
        if excluded:
            rows = (
                row for object_id, row in zip(self.ids, rows)
                if object_id not in excluded
            )
        if self.degenerate:
            rows = (row for row in rows if row[0] <= row[2] and row[1] <= row[3])
        return RectColumns(rows=rows)

    @property
    def dynamic_bound(self) -> float:
        """``Ud(c)``: the largest sub-cell bound, infinite before the first search."""
        return max(self.sub_bounds, default=_INF)

    @dynamic_bound.setter
    def dynamic_bound(self, cell_maximum: float) -> None:
        """The cell was searched: its exact maximum bounds every sub-cell."""
        self.sub_bounds = [cell_maximum] * (SUB_CELLS * SUB_CELLS)

    @property
    def upper_bound(self) -> float:
        """``U(c) = min(Us(c), Ud(c))`` (Definition 8)."""
        return min(self.static_bound, self.dynamic_bound)

    def has_valid_candidate(self) -> bool:
        """Whether the memoised candidate is guaranteed to be the cell maximum."""
        return self.candidate is not None and self.candidate.valid

    def __len__(self) -> int:
        return len(self.ids)


class CellSweepDetector(BurstyRegionDetector):
    """Common part of the exact detectors that sweep query-sized cells.

    Subclasses decide which cells to search and how to rank them
    (:meth:`_settle`, :meth:`_forget_cell`); this class owns the cells,
    keeps their rows in step with the window events and runs the per-cell
    SL-CSPOT search.  A single event is a batch of one.
    """

    #: Whether candidates are carried across events through Lemma 4.  When
    #: not, the subclass re-searches (or invalidates) every touched cell.
    candidate_reuse = False

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

    def process(self, event: WindowEvent) -> None:
        """Apply one window event and re-establish the current bursty point."""
        self.apply_events((event,))

    def apply_events(self, batch: "EventBatch | Iterable[WindowEvent]") -> None:
        """Apply a whole event batch, settling the result once at the end.

        Cell rows (and, with ``candidate_reuse``, candidates) are updated per
        event; the expensive maintenance — heap refreshes and cell searches,
        :meth:`_settle` — runs a single time after the last event.
        ``events_triggering_search`` therefore counts settlements that
        searched at least one cell: per event when fed events one by one,
        per batch otherwise.
        """
        searches_before = self.stats.cells_searched
        self._settle(self._apply_records(batch))
        if self.stats.cells_searched > searches_before:
            self.stats.events_triggering_search += 1

    def _apply_records(
        self, batch: "EventBatch | Iterable[WindowEvent]"
    ) -> set[CellIndex]:
        """Apply every event of ``batch`` to the rows of the cells it overlaps.

        Events are taken in the batch's lifecycle-safe order, so the Lemma 4
        adjustments see exactly the per-event sequence.  Returns the *dirty*
        cells: those still alive whose rows changed.  A cell emptied by an
        event is deleted, reported to :meth:`_forget_cell` and no longer
        dirty; a transition of an object a cell never saw (a detector
        attached mid-stream) changes nothing and dirties nothing.
        """
        query = self.query
        accepts = query.accepts
        rect_width = query.rect_width
        rect_height = query.rect_height
        current_length = query.current_length
        past_length = query.past_length
        alpha = query.alpha
        cells = self.cells
        cells_overlapping = self.cell_index.cells_overlapping
        cell_rect = self.grid.cell_rect
        forget_cell = self._forget_cell
        reuse = self.candidate_reuse
        new, grown = EventKind.NEW, EventKind.GROWN
        dirty: set[CellIndex] = set()
        processed = skipped = 0
        for event in batch:
            processed += 1
            obj = event.obj
            x = obj.x
            y = obj.y
            if not accepts(x, y):
                skipped += 1
                continue
            # The rectangle object of Theorem 1, as scalars.
            max_x = x + rect_width
            max_y = y + rect_height
            weight = obj.weight
            object_id = obj.object_id
            kind = event.kind
            keys = cells_overlapping(x, y, max_x, max_y)
            if kind is new:
                gain = weight / current_length
                for key in keys:
                    cell = cells.get(key)
                    if cell is None:
                        cell = cells[key] = CellState(cell_rect(key))
                    cell.add(object_id, x, y, max_x, max_y, weight, gain)
                    if reuse:
                        cell.raise_candidate(x, y, max_x, max_y, gain, 0.0, alpha)
                    dirty.add(key)
            elif kind is grown:
                gain = weight / current_length
                for key in keys:
                    cell = cells.get(key)
                    if cell is not None and cell.grow(object_id, gain):
                        if reuse:
                            cell.lower_candidate(x, y, max_x, max_y)
                        dirty.add(key)
            else:  # EXPIRED
                loss = weight / past_length
                bound_gain = alpha * weight / past_length
                for key in keys:
                    cell = cells.get(key)
                    if cell is None or not cell.expire(object_id, bound_gain):
                        continue
                    if cell.ids:
                        if reuse:
                            cell.raise_candidate(x, y, max_x, max_y, 0.0, loss, alpha)
                        dirty.add(key)
                    else:
                        del cells[key]
                        forget_cell(key)
                        dirty.discard(key)
        self.stats.events_processed += processed
        self.stats.events_skipped += skipped
        return dirty

    @abc.abstractmethod
    def _forget_cell(self, key: CellIndex) -> None:
        """Drop a cell that just became empty from the subclass's rankings."""

    @abc.abstractmethod
    def _settle(self, dirty: set[CellIndex]) -> None:
        """Re-rank the dirty cells and re-establish the reported result."""

    def _search_cell(self, cell: CellState) -> float:
        """Run SL-CSPOT inside one cell, memoise its best point, return its score."""
        query = self.query
        stats = self.stats
        stats.cells_searched += 1
        outcome = sweep_bursty_point(
            cell.labeled_rects(),
            alpha=query.alpha,
            current_length=query.current_length,
            past_length=query.past_length,
            backend=self.sweep_backend,
        )
        if outcome is None:
            # Every row misses the cell by a rounding error: nothing scores.
            cell.candidate = CandidatePoint(cell.bounds.top_right, 0.0, 0.0, 0.0)
            return 0.0
        stats.rectangles_swept += outcome.rectangles_swept
        cell.candidate = CandidatePoint(
            outcome.point, outcome.score, outcome.fc, outcome.fp
        )
        return outcome.score

    def _region(self, candidate: CandidatePoint) -> RegionResult:
        """The bursty region whose top-right corner is the candidate point."""
        return RegionResult.from_point(
            candidate.point, candidate.score, self.query,
            fc=candidate.fc, fp=candidate.fp,
        )

    def _best_region(self, score_heap: LazyMaxHeap[CellIndex]) -> RegionResult | None:
        """The region of the best memoised candidate in a heap of cell scores."""
        top = score_heap.peek()
        if top is None:
            return None
        return self._region(self.cells[top[0]].candidate)

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
