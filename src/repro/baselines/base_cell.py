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

from repro.core.base import RegionResult
from repro.core.cells import CellSweepDetector
from repro.core.query import SurgeQuery
from repro.core.sweep_backends import SweepBackend
from repro.geometry.grids import CellIndex, GridSpec
from repro.geometry.heaps import LazyMaxHeap


class BaseCellDetector(CellSweepDetector):
    """Exact cell-based detector that searches every affected cell (paper's ``Base``)."""

    name = "base"
    exact = True

    def __init__(
        self,
        query: SurgeQuery,
        grid: GridSpec | None = None,
        backend: str | SweepBackend | None = None,
    ) -> None:
        super().__init__(query, grid, backend)
        self._score_heap: LazyMaxHeap[CellIndex] = LazyMaxHeap()

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def _settle(self, dirty: set[CellIndex]) -> None:
        """Sweep every dirty cell, once.

        Fed one event at a time, every event re-sweeps the cells it touches;
        a batch updates all cell rows first and then sweeps each distinct
        dirty cell a single time over its final rows, which is where the
        Base baseline's batched speedup comes from.
        """
        for key in dirty:
            self._score_heap.push(key, self._search_cell(self.cells[key]))

    def _forget_cell(self, key: CellIndex) -> None:
        self._score_heap.remove(key)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> RegionResult | None:
        return self._best_region(self._score_heap)
