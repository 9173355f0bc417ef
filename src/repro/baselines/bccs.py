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

from repro.core.base import RegionResult
from repro.core.cells import CellSweepDetector
from repro.core.query import SurgeQuery
from repro.core.sweep_backends import SweepBackend
from repro.geometry.grids import CellIndex, GridSpec
from repro.geometry.heaps import LazyMaxHeap

#: Slack used when comparing a static bound against the incumbent score, so
#: floating-point drift never prunes the true optimum.
_BOUND_TOLERANCE = 1e-9


class StaticBoundCellCSPOT(CellSweepDetector):
    """Exact cell-based detector using only the static upper bound (paper's ``B-CCS``)."""

    name = "bccs"
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
        #: Cells with a memoised (valid) candidate, ranked by its score.
        self._score_heap: LazyMaxHeap[CellIndex] = LazyMaxHeap()

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def _settle(self, dirty: set[CellIndex]) -> None:
        """Search cells in descending static-bound order until none can win.

        Without Lemma 4 bookkeeping any touched cell must be re-searched, so
        every dirty cell's candidate is discarded (once, however many events
        touched it) and the static bounds go into the heap in one
        ``push_all`` before the bound-ordered search loop runs.
        """
        cells = self.cells
        for key in dirty:
            cells[key].invalidate_candidate()
            self._score_heap.remove(key)
        self._bound_heap.push_all((key, cells[key].static_bound) for key in dirty)
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
            cell = cells.get(key)
            if cell is None:
                continue
            if not cell.has_valid_candidate():
                self._score_heap.push(key, self._search_cell(cell))
        for key, bound in popped:
            if key in cells:
                self._bound_heap.push(key, bound)

    def _forget_cell(self, key: CellIndex) -> None:
        self._bound_heap.remove(key)
        self._score_heap.remove(key)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> RegionResult | None:
        return self._best_region(self._score_heap)
