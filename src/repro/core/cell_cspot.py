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
candidate's score.  ``Ud`` is the largest of the cell's sub-cell bounds
(:mod:`repro.core.cells`); every NEW and EXPIRED event since the search covers
a valid candidate, so the candidate's sub-cell has received each Equation 3
gain in lock-step with the Lemma 4 adjustments and no sub-cell has received
more.  The top of the bound heap having a valid candidate therefore implies
no other cell can contain a better point.
"""

from __future__ import annotations

from repro.core.base import RegionResult
from repro.core.cells import CellSweepDetector
from repro.core.query import SurgeQuery
from repro.core.sweep_backends import SweepBackend
from repro.geometry.grids import CellIndex, GridSpec
from repro.geometry.heaps import LazyMaxHeap


class CellCSPOT(CellSweepDetector):
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
        super().__init__(query, grid, backend)
        self.candidate_reuse = candidate_reuse
        self._bound_heap: LazyMaxHeap[CellIndex] = LazyMaxHeap()
        self._result: RegionResult | None = None

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def _settle(self, dirty: set[CellIndex]) -> None:
        """Refresh the dirty cells' bounds and run the lazy search loop once.

        Every touched cell's upper bound goes into the heap once via
        :meth:`LazyMaxHeap.push_all` instead of once per event, and the lazy
        search loop (Algorithm 2, lines 4-9) runs a single time per batch.
        """
        cells = self.cells
        if not self.candidate_reuse:
            for key in dirty:
                cells[key].invalidate_candidate()
        self._bound_heap.push_all((key, cells[key].upper_bound) for key in dirty)
        self._refresh_result()

    def _forget_cell(self, key: CellIndex) -> None:
        self._bound_heap.remove(key)

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
                self._result = self._region(cell.candidate)
                return
            # Search the cell and re-rank it by its now exact bound (lines 6-7).
            cell.dynamic_bound = self._search_cell(cell)
            self._bound_heap.push(key, cell.upper_bound)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> RegionResult | None:
        """The current bursty region (top-right corner at the bursty point)."""
        return self._result
