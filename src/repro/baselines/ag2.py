"""``aG2``: the adapted continuous-MaxRS baseline (Appendix J of the paper).

Amagata & Hara's aG2 algorithm monitors the MaxRS region over a spatial
stream using a coarse grid (cell size independent of — and in the
experiments ten times larger than — the query rectangle), a per-cell *overlap
graph* whose nodes are the rectangle objects mapped to the cell and whose
edges connect overlapping rectangles, per-rectangle upper bounds derived from
the graph neighbourhood, and a branch-and-bound search that only sweeps a
rectangle's neighbourhood when its bound beats the incumbent.

As in the paper, the algorithm cannot be used verbatim for SURGE, so the
adaptation keeps the grid, the overlap graph and the branch-and-bound
skeleton, and swaps the inner search for SL-CSPOT so the burst score (not the
plain weight sum) is maximised.  The expensive parts the paper calls out are
faithfully reproduced: maintaining the overlap graph costs ``O(n_cell)`` per
event and ``O(n_cell²)`` space in dense cells, which is why aG2 trails
Cell-CSPOT in Figure 5 and exhausts memory for the largest windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.base import BurstyRegionDetector, RegionResult
from repro.core.cells import CandidatePoint
from repro.core.query import SurgeQuery
from repro.core.sweep_backends import SweepBackend, resolve_backend
from repro.core.sweepline import LabeledRect, sweep_bursty_point
from repro.geometry.grids import CellIndex, GridSpec
from repro.geometry.heaps import LazyMaxHeap
from repro.geometry.primitives import Rect
from repro.streams.objects import EventBatch, EventKind, RectangleObject, WindowEvent

#: Default ratio between the aG2 grid cell and the query rectangle
#: (the paper's experiments use cells of size ``10 q``).
DEFAULT_CELL_SCALE = 10.0


@dataclass
class _GraphRecord:
    """One rectangle object stored in an aG2 cell."""

    rect: RectangleObject
    in_current: bool


@dataclass
class _GraphCell:
    """State of one coarse aG2 cell: rectangle list + overlap graph."""

    bounds: Rect
    records: dict[int, _GraphRecord] = field(default_factory=dict)
    #: Overlap graph: object id -> ids of overlapping rectangles in the cell.
    adjacency: dict[int, set[int]] = field(default_factory=dict)
    static_bound: float = 0.0
    best: CandidatePoint | None = None
    clean: bool = False

    @property
    def is_empty(self) -> bool:
        return not self.records

    @property
    def edge_count(self) -> int:
        """Number of (directed) overlap-graph edges currently stored."""
        return sum(len(neighbours) for neighbours in self.adjacency.values())


class AG2Detector(BurstyRegionDetector):
    """Adapted aG2 baseline (exact, but with coarse cells and an overlap graph)."""

    name = "ag2"
    exact = True

    def __init__(
        self,
        query: SurgeQuery,
        cell_scale: float = DEFAULT_CELL_SCALE,
        backend: str | SweepBackend | None = None,
    ) -> None:
        super().__init__(query)
        if cell_scale < 1.0:
            raise ValueError("cell_scale must be at least 1")
        self.cell_scale = cell_scale
        self.sweep_backend = resolve_backend(backend)
        base = query.base_grid()
        self.grid = GridSpec(
            cell_width=base.cell_width * cell_scale,
            cell_height=base.cell_height * cell_scale,
            origin_x=base.origin_x,
            origin_y=base.origin_y,
        )
        self.cells: dict[CellIndex, _GraphCell] = {}
        self._bound_heap: LazyMaxHeap[CellIndex] = LazyMaxHeap()
        self._result: RegionResult | None = None

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def process(self, event: WindowEvent) -> None:
        self.apply_events((event,))

    def apply_events(self, batch: "EventBatch | Iterable[WindowEvent]") -> None:
        """Apply a whole event batch, re-running branch-and-bound once.

        Overlap-graph maintenance stays per event (it is keyed by object
        id), but every touched cell's bound enters the heap once and the
        branch-and-bound result refresh runs a single time per batch.
        """
        searches_before = self.stats.cells_searched
        cells = self.cells
        dirty = self._apply_records(batch)
        self._bound_heap.push_all(
            (key, cells[key].static_bound) for key in dirty if key in cells
        )
        self._refresh_result()
        if self.stats.cells_searched > searches_before:
            self.stats.events_triggering_search += 1

    def _apply_records(
        self, batch: "EventBatch | Iterable[WindowEvent]"
    ) -> set[CellIndex]:
        """Apply every event of ``batch``, in its lifecycle-safe order, to the
        overlap graphs it touches; returns the cells whose bound changed.

        ``None`` from :meth:`_update_cell` means "the event emptied and removed
        the cell" or "the event was a no-op" (a transition of an object this
        detector never saw); only the former cancels dirtiness accumulated
        earlier in the batch, so the cell dict decides.
        """
        stats = self.stats
        query = self.query
        cells = self.cells
        cells_overlapping = self.grid.cells_overlapping
        update_cell = self._update_cell
        dirty: set[CellIndex] = set()
        for event in batch:
            stats.events_processed += 1
            obj = event.obj
            if not query.accepts(obj.x, obj.y):
                stats.events_skipped += 1
                continue
            rect = obj.to_rectangle(query.rect_width, query.rect_height)
            for key in cells_overlapping(rect.rect):
                if update_cell(key, rect, event.kind) is not None:
                    dirty.add(key)
                elif key not in cells:
                    dirty.discard(key)
        return dirty

    def _update_cell(
        self, key: CellIndex, rect: RectangleObject, kind: EventKind
    ) -> _GraphCell | None:
        """Update one cell's overlap graph; returns the surviving (dirty) cell."""
        cell = self.cells.get(key)
        if kind is EventKind.NEW:
            if cell is None:
                cell = _GraphCell(bounds=self.grid.cell_rect(key))
                self.cells[key] = cell
            self._insert_rectangle(cell, rect)
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
            self._remove_rectangle(cell, rect.object_id)
            if cell.is_empty:
                del self.cells[key]
                self._bound_heap.remove(key)
                return None
        cell.clean = False
        return cell

    def _insert_rectangle(self, cell: _GraphCell, rect: RectangleObject) -> None:
        """Add a node to the overlap graph, connecting it to overlapping rectangles."""
        geometry = rect.rect
        neighbours: set[int] = set()
        for other_id, other in cell.records.items():
            if geometry.intersects(other.rect.rect):
                neighbours.add(other_id)
                cell.adjacency[other_id].add(rect.object_id)
        cell.records[rect.object_id] = _GraphRecord(rect=rect, in_current=True)
        cell.adjacency[rect.object_id] = neighbours
        cell.static_bound += rect.weight / self.query.current_length

    def _remove_rectangle(self, cell: _GraphCell, object_id: int) -> None:
        """Remove a node and its edges from the overlap graph."""
        if cell.records.pop(object_id, None) is None:
            return
        for neighbour in cell.adjacency.pop(object_id, set()):
            cell.adjacency.get(neighbour, set()).discard(object_id)

    # ------------------------------------------------------------------
    # Branch-and-bound search
    # ------------------------------------------------------------------
    def _refresh_result(self) -> None:
        while True:
            top = self._bound_heap.peek()
            if top is None:
                self._result = None
                return
            key, _ = top
            cell = self.cells[key]
            if cell.clean and cell.best is not None:
                best = cell.best
                self._result = RegionResult.from_point(
                    best.point, best.score, self.query, fc=best.fc, fp=best.fp
                )
                return
            self._search_cell(key, cell)

    def _search_cell(self, key: CellIndex, cell: _GraphCell) -> None:
        """Branch-and-bound over the rectangles mapped to one coarse cell."""
        self.stats.cells_searched += 1
        current_length = self.query.current_length
        past_length = self.query.past_length

        # Per-rectangle upper bound: every point inside rectangle ``g`` can only
        # be covered by ``g`` and its overlap-graph neighbours, so the sum of
        # their current-window contributions bounds the burst score.
        bounds_by_rect: list[tuple[float, int]] = []
        for object_id, record in cell.records.items():
            bound = record.rect.weight / current_length if record.in_current else 0.0
            for neighbour in cell.adjacency.get(object_id, ()):  # pragma: no branch
                other = cell.records[neighbour]
                if other.in_current:
                    bound += other.rect.weight / current_length
            bounds_by_rect.append((bound, object_id))
        bounds_by_rect.sort(reverse=True)

        best: CandidatePoint | None = None
        for bound, object_id in bounds_by_rect:
            if best is not None and bound <= best.score:
                break
            record = cell.records[object_id]
            neighbourhood_ids = cell.adjacency.get(object_id, set()) | {object_id}
            labeled = [
                LabeledRect(
                    cell.records[rid].rect.x,
                    cell.records[rid].rect.y,
                    cell.records[rid].rect.x + cell.records[rid].rect.width,
                    cell.records[rid].rect.y + cell.records[rid].rect.height,
                    cell.records[rid].rect.weight,
                    cell.records[rid].in_current,
                )
                for rid in neighbourhood_ids
            ]
            search_bounds = record.rect.rect.intersection(cell.bounds)
            if search_bounds is None:
                continue
            outcome = sweep_bursty_point(
                labeled,
                alpha=self.query.alpha,
                current_length=current_length,
                past_length=past_length,
                bounds=search_bounds,
                backend=self.sweep_backend,
            )
            if outcome is None:
                continue
            self.stats.rectangles_swept += outcome.rectangles_swept
            if best is None or outcome.score > best.score:
                best = CandidatePoint(
                    point=outcome.point,
                    score=outcome.score,
                    fc=outcome.fc,
                    fp=outcome.fp,
                    valid=True,
                )

        if best is None:
            # Only past-window rectangles intersect the cell: every point inside
            # it scores zero.
            best = CandidatePoint(
                point=cell.bounds.top_right, score=0.0, fc=0.0, fp=0.0, valid=True
            )
        cell.best = best
        cell.clean = True
        self._bound_heap.push(key, best.score)

    # ------------------------------------------------------------------
    # Results / introspection
    # ------------------------------------------------------------------
    def result(self) -> RegionResult | None:
        return self._result

    @property
    def total_graph_edges(self) -> int:
        """Total number of overlap-graph edges across all cells (space proxy)."""
        return sum(cell.edge_count for cell in self.cells.values())
