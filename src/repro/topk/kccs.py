"""CCS-kSURGE: the exact top-k extension of Cell-CSPOT (Algorithm 4).

Definition 9 of the paper defines the top-k bursty regions greedily: the i-th
region maximises the burst score computed over the objects **not** covered by
the first ``i - 1`` regions.  Through the Theorem 1 reduction this becomes k
chained CSPOT problems: the i-th bursty point is searched over the rectangle
objects that do not cover any of the first ``i - 1`` bursty points (the
paper's *rectangle levels*).

Implementation notes
--------------------
The k problems run over the cells Cell-CSPOT uses:
:class:`~repro.core.cells.CellSweepDetector` owns them — one
:class:`~repro.core.cells.CellState` per non-empty cell, its rectangles
clipped once at arrival and kept as the columns the sweep kernels read — and
keeps them in step with the window events.  This class adds what is top-k:

* every level ranks the cells by their *full* static bound (over all
  rectangles, Lemma 2) and stops at the first cell whose bound cannot beat
  the incumbent.  Excluding rectangles can only lower the current-window
  mass of a point, so the bound is valid for every level — but it is not
  Algorithm 4's per-level dynamic bound, which would prune levels ≥ 1
  harder; that remains open (ROADMAP item 6);
* level 0, and any level at which none of a cell's rectangles is excluded,
  sweeps the cell's own columns; otherwise the excluded rows are filtered
  out by object id first (:meth:`CellState.labeled_rects`);
* a level's point is excluded from the cell it was swept out of: there it
  lies inside the bounds its rows were clipped to, so the rectangles it was
  scored on are exactly the rows covering it, and no later level can report
  it again;
* per ``(cell, level)`` the last sweep's result is memoised with the set of
  the cell's rectangles it excluded.  An event that changes a cell drops its
  memos, so a memo that exists is current and is reused whenever the
  exclusions match — the common case while the top-k points are stable.

The k chained problems are **amortized across events**: processing events
only updates cell state and marks the result list dirty, and the greedy
recomputation runs lazily when ``result()`` / ``top_k()`` is read.  Batch
ingestion (``SurgeMonitor.push_many`` or ``process_all`` followed by one
read) therefore pays for a single recomputation per batch instead of one per
window event.

The reported regions are exact with respect to Definition 9 (the test suite
checks them against a greedy brute force).
"""

from __future__ import annotations

from itertools import product

from repro.core.base import RegionResult
from repro.core.cells import CandidatePoint, CellSweepDetector
from repro.core.query import SurgeQuery
from repro.core.sweep_backends import SweepBackend
from repro.core.sweepline import sweep_bursty_point
from repro.geometry.grids import CellIndex, GridSpec
from repro.geometry.heaps import LazyMaxHeap
from repro.geometry.primitives import Point

#: Slack protecting the bound-vs-incumbent pruning from floating-point drift.
_BOUND_TOLERANCE = 1e-9


class CellCSPOTTopK(CellSweepDetector):
    """Exact continuous top-k detector (paper's ``kCCS``)."""

    name = "kccs"
    exact = True

    def __init__(
        self,
        query: SurgeQuery,
        grid: GridSpec | None = None,
        backend: str | SweepBackend | None = None,
    ) -> None:
        super().__init__(query, grid, backend)
        #: Cells ranked by their static upper bound.
        self._bound_heap: LazyMaxHeap[CellIndex] = LazyMaxHeap()
        #: cell -> level -> (the cell's excluded ids, best point) of the last
        #: sweep; a cell's entry is dropped whenever its rows change.
        self._memos: dict[
            CellIndex, dict[int, tuple[frozenset[int], CandidatePoint | None]]
        ] = {}
        #: The top-k list, or ``None`` when cells changed since it was computed.
        self._results: list[RegionResult] | None = None

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def _settle(self, dirty: set[CellIndex]) -> None:
        """Re-rank the dirty cells and drop what was memoised about them.

        No cell is searched here: the greedy recomputation is lazy (it runs
        on the next result read), so a batch costs one ``push_all`` of the
        dirty cells' static bounds.
        """
        if not dirty:
            return
        cells = self.cells
        memos = self._memos
        for key in dirty:
            memos.pop(key, None)
        self._bound_heap.push_all((key, cells[key].static_bound) for key in dirty)
        self._results = None

    def _forget_cell(self, key: CellIndex) -> None:
        self._bound_heap.remove(key)
        self._memos.pop(key, None)
        self._results = None

    # ------------------------------------------------------------------
    # Greedy top-k computation (the k chained CSPOT problems)
    # ------------------------------------------------------------------
    def _current_top_k(self) -> list[RegionResult]:
        """The top-k list, recomputed if cells changed since the last read.

        Note on stats: with lazy recomputation, ``events_triggering_search``
        counts *result reads* that performed at least one cell search, so
        ``search_trigger_ratio`` depends on the read cadence and is not
        comparable to the eager detectors' per-event ratio (Table II only
        reports that metric for ccs/bccs, which are unaffected).
        """
        if self._results is None:
            searches_before = self.stats.cells_searched
            self._results = self._compute_top_k()
            if self.stats.cells_searched > searches_before:
                self.stats.events_triggering_search += 1
        return self._results

    def _compute_top_k(self) -> list[RegionResult]:
        excluded: set[int] = set()
        results: list[RegionResult] = []
        for level in range(self.query.k):
            key, best = self._best_point_excluding(level, excluded)
            if best is None or (best.fc <= 0.0 and best.fp <= 0.0):
                break
            results.append(self._region(best))
            excluded |= self._rectangles_covering(key, best.point)
        return results

    def _best_point_excluding(
        self, level: int, excluded: set[int]
    ) -> tuple[CellIndex | None, CandidatePoint | None]:
        """The level-i bursty point (``excluded`` left out) and the cell it is in."""
        best: CandidatePoint | None = None
        best_key: CellIndex | None = None
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
            candidate = self._cell_candidate(key, level, excluded)
            if candidate is not None and (best is None or candidate.score > best.score):
                best = candidate
                best_key = key
        for key, bound in popped:
            self._bound_heap.push(key, bound)
        return best_key, best

    def _cell_candidate(
        self, key: CellIndex, level: int, excluded: set[int]
    ) -> CandidatePoint | None:
        """Best point of one cell for one level, reusing the memo when possible."""
        cell = self.cells[key]
        local_excluded = frozenset(excluded.intersection(cell.ids) if excluded else ())
        memos = self._memos.setdefault(key, {})
        memo = memos.get(level)
        if memo is not None and memo[0] == local_excluded:
            return memo[1]

        query = self.query
        stats = self.stats
        stats.cells_searched += 1
        outcome = sweep_bursty_point(
            cell.labeled_rects(local_excluded),
            alpha=query.alpha,
            current_length=query.current_length,
            past_length=query.past_length,
            backend=self.sweep_backend,
        )
        candidate: CandidatePoint | None = None
        if outcome is not None:
            stats.rectangles_swept += outcome.rectangles_swept
            candidate = CandidatePoint(
                outcome.point, outcome.score, outcome.fc, outcome.fp
            )
        memos[level] = (local_excluded, candidate)
        return candidate

    def _rectangles_covering(self, key: CellIndex, point: Point) -> set[int]:
        """Ids of the live rectangles covering ``point``, swept out of cell ``key``.

        The point is a corner of rows clipped to that cell, so it lies in the
        cell's closed bounds, where a clipped row covers exactly the points
        its rectangle does: scanning the cell finds every rectangle the
        point was scored on, whatever cell the point's coordinates address
        (``floor(v / w)`` and ``i * w`` can disagree by an ulp).  A rectangle
        that only touches the cell covers the point when it lies on that
        edge of the cell, so the neighbours across the edges the point is on
        are scanned too.
        """
        x = point.x
        y = point.y
        ix, iy = key
        bounds = self.cells[key].bounds
        columns = [ix]
        if x == bounds.min_x:
            columns.append(ix - 1)
        if x == bounds.max_x:
            columns.append(ix + 1)
        rows = [iy]
        if y == bounds.min_y:
            rows.append(iy - 1)
        if y == bounds.max_y:
            rows.append(iy + 1)
        covering: set[int] = set()
        for cell_key in product(columns, rows):
            cell = self.cells.get(cell_key)
            if cell is None:
                continue
            rects = cell.rects
            covering.update(
                object_id
                for object_id, min_x, min_y, max_x, max_y in zip(
                    cell.ids, rects.min_x, rects.min_y, rects.max_x, rects.max_y
                )
                if min_x <= x <= max_x and min_y <= y <= max_y
            )
        return covering

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> RegionResult | None:
        results = self._current_top_k()
        return results[0] if results else None

    def top_k(self, k: int | None = None) -> list[RegionResult]:
        return self._current_top_k()[:k]

