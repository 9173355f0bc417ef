"""GAP-SURGE: the grid-based approximate detector (Algorithm 3).

A grid of cells of exactly the query size is imposed over the space; every
cell is a candidate region.  Each arriving / ageing / expiring spatial object
updates the ``(fc, fp)`` accumulator of the single cell containing its
location, and the cell with the maximum burst score is continuously reported.

The returned region is always a grid cell, so its burst score is at least
``(1 - α) / 4`` of the optimum (Theorem 3).  Every live cell's score sits in a
plain table beside a cached best ``(key, score)``: an event costs amortised
``O(1)``, plus one ``O(n)`` rescan of the table at the next read after the
best cell's score falls or the cell empties.  Ties go to the smallest cell key,
so the reported cell depends only on the cells' state.

The same class also serves the top-k extension GAP-kSURGE (Algorithm 6): the
score table directly yields the k cells with the highest burst scores.
"""

from __future__ import annotations

from heapq import nsmallest
from math import floor
from typing import Iterable, Sequence

from repro.core.base import BurstyRegionDetector, DetectorStats, RegionResult
from repro.core.burst import WindowAccumulator, burst_score
from repro.core.query import SurgeQuery
from repro.geometry.grids import CellIndex, GridSpec
from repro.streams.objects import EventBatch, EventKind, EventRun, WindowEvent, runs_of


def accepted_runs(
    runs: Sequence[EventRun], query: SurgeQuery, stats: DetectorStats
) -> Sequence[EventRun]:
    """The runs inside the query's preferred area; the rest count as skipped."""
    if query.area is None:
        return runs
    kept: list[EventRun] = []
    for kind, objs in runs:
        inside = [obj for obj in objs if query.accepts(obj.x, obj.y)]
        stats.events_processed += len(objs) - len(inside)
        stats.events_skipped += len(objs) - len(inside)
        if inside:
            kept.append((kind, inside))
    return kept


class GapSurge(BurstyRegionDetector):
    """Grid-based approximate detector (paper's ``GAPS``)."""

    name = "gaps"
    exact = False

    def __init__(self, query: SurgeQuery, grid: GridSpec | None = None) -> None:
        super().__init__(query)
        self.grid = grid if grid is not None else query.base_grid()
        self.cells: dict[CellIndex, WindowAccumulator] = {}
        #: Every live cell's burst score, and the best ``(key, score)`` of
        #: the table — ``None`` when stale (rebuilt by the next read).
        self._scores: dict[CellIndex, float] = {}
        self._top: tuple[CellIndex, float] | None = None

    # ------------------------------------------------------------------
    # Event processing (Algorithm 3)
    # ------------------------------------------------------------------
    def process(self, event: WindowEvent) -> None:
        """Apply one window event: a batch of one."""
        self.apply_events((event,))

    def apply_events(self, batch: "EventBatch | Iterable[WindowEvent]") -> None:
        """Apply a whole event batch, re-scoring each touched cell once.

        Every cell's ``(fc, fp, counts)`` is bit-identical to looping
        :meth:`process` over the same events: the accumulator arithmetic and
        order are the same, and the reported cell depends only on that state.
        """
        self._apply_runs(accepted_runs(runs_of(batch), self.query, self.stats))

    def _apply_runs(self, runs: Sequence[EventRun]) -> None:
        """Apply kind runs of accepted objects: one tight loop per kind.

        Only an ``EXPIRED`` can empty a cell (``NEW`` / ``GROWN`` add a
        count), which is then dropped at once, so a later ``NEW`` opens it
        afresh.  A ``GROWN`` / ``EXPIRED`` into an absent cell (an object
        never seen as ``NEW``) has nothing to undo.
        """
        query = self.query
        current_length = query.current_length
        past_length = query.past_length
        grid = self.grid  # ``cell_of``, inlined below
        x0, y0, width, height = (
            grid.origin_x, grid.origin_y, grid.cell_width, grid.cell_height
        )
        cells = self.cells
        processed = 0
        dirty: set[CellIndex] = set()
        for kind, objs in runs:
            processed += len(objs)
            if kind is EventKind.NEW:
                for obj in objs:
                    key = (floor((obj.x - x0) / width), floor((obj.y - y0) / height))
                    accumulator = cells.get(key)
                    if accumulator is None:
                        accumulator = cells[key] = WindowAccumulator()
                    accumulator.fc += obj.weight / current_length
                    accumulator.count_current += 1
                    dirty.add(key)
            elif kind is EventKind.GROWN:
                for obj in objs:
                    key = (floor((obj.x - x0) / width), floor((obj.y - y0) / height))
                    accumulator = cells.get(key)
                    if accumulator is None:
                        continue
                    accumulator.fc -= obj.weight / current_length
                    accumulator.fp += obj.weight / past_length
                    accumulator.count_current -= 1
                    accumulator.count_past += 1
                    dirty.add(key)
            else:
                for obj in objs:
                    key = (floor((obj.x - x0) / width), floor((obj.y - y0) / height))
                    accumulator = cells.get(key)
                    if accumulator is None:
                        continue
                    accumulator.fp -= obj.weight / past_length
                    accumulator.count_past -= 1
                    if accumulator.count_current == 0 and accumulator.count_past == 0:
                        del cells[key]
                    dirty.add(key)
        self.stats.events_processed += processed

        # Re-score the touched cells and keep ``_top`` the table's best under
        # (score descending, key ascending): a better score takes it, and
        # the top cell falling or emptying leaves it stale.
        scores = self._scores
        top = self._top
        alpha = query.alpha
        for key in dirty:
            accumulator = cells.get(key)
            if accumulator is None:
                scores.pop(key, None)
                if top is not None and key == top[0]:
                    top = None
                continue
            score = burst_score(accumulator.fc, accumulator.fp, alpha)
            scores[key] = score
            if top is not None:
                top_key, top_score = top
                if score > top_score or (score == top_score and key < top_key):
                    top = (key, score)
                elif key == top_key and score < top_score:
                    top = None
        self._top = top

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _best(self) -> tuple[CellIndex, float] | None:
        """The best ``(key, score)``: the maximum score, then the smallest key."""
        if self._top is None and self._scores:
            scores = self._scores
            best = max(scores.values())
            tied = [key for key, score in scores.items() if score == best]
            self._top = (min(tied), best)
        return self._top

    def top_score(self) -> float | None:
        """The highest cell burst score, or ``None`` when no cell is live."""
        top = self._best()
        return None if top is None else top[1]

    def result(self) -> RegionResult | None:
        top = self._best()
        return None if top is None else self._cell_result(*top)

    def top_k(self, k: int | None = None) -> list[RegionResult]:
        """The k cells with the highest burst scores (GAP-kSURGE), ranked
        like :meth:`result`: score descending, then cell key ascending."""
        if k is None:
            k = self.query.k
        ranked = nsmallest(
            k, self._scores.items(), key=lambda item: (-item[1], item[0])
        )
        return [self._cell_result(key, score) for key, score in ranked]

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
