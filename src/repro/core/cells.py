"""Per-cell state for the exact Cell-CSPOT detector.

Each grid cell (of exactly the query-rectangle size, Definition 6) tracks

* the rectangle objects overlapping it — each already clipped to the cell,
  once, when it arrives — with their window label,
* the static upper bound ``Us`` (Definition 7 / Lemma 2),
* the dynamic upper bound ``Ud`` (Equation 3 / Lemma 3), and
* the candidate point of the last per-cell search together with its window
  scores and a validity flag maintained through Lemma 4.

The combined upper bound is ``U(c) = min(Us, Ud)`` (Definition 8); the
detector ranks cells by it in a lazy max-heap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.burst import burst_score
from repro.geometry.primitives import Point, Rect
from repro.streams.objects import RectangleObject


@dataclass
class CandidatePoint:
    """The memoised result of the last search of a cell."""

    point: Point
    score: float
    fc: float
    fp: float
    valid: bool = True


@dataclass(slots=True)
class CellRecord:
    """A rectangle object stored in a cell, with its current window label.

    The coordinates are the rectangle *clipped to the cell*, computed once by
    :meth:`CellState.add_new`: inside the cell the clipped and the unclipped
    rectangle cover the same points, so a sweep over the records needs no
    clipping pass.  The field names are those of
    :class:`~repro.core.sweep_backends.types.LabeledRect`, which lets a sweep
    kernel read a record directly.  ``rect`` is the unclipped original.
    """

    rect: RectangleObject
    min_x: float
    min_y: float
    max_x: float
    max_y: float
    weight: float
    in_current: bool = True


@dataclass
class CellState:
    """Mutable state of one grid cell of the Cell-CSPOT detector."""

    bounds: Rect
    records: dict[int, CellRecord] = field(default_factory=dict)
    static_bound: float = 0.0
    dynamic_bound: float = float("inf")
    candidate: CandidatePoint | None = None

    # ------------------------------------------------------------------
    # Rectangle bookkeeping
    # ------------------------------------------------------------------
    def add_new(self, rect: RectangleObject, current_length: float) -> None:
        """A new rectangle object (current window) starts overlapping the cell."""
        bounds = self.bounds
        self.records[rect.object_id] = CellRecord(
            rect,
            max(rect.x, bounds.min_x),
            max(rect.y, bounds.min_y),
            min(rect.x + rect.width, bounds.max_x),
            min(rect.y + rect.height, bounds.max_y),
            rect.weight,
        )
        self.static_bound += rect.weight / current_length
        if self.dynamic_bound != float("inf"):
            self.dynamic_bound += rect.weight / current_length

    def mark_grown(self, rect: RectangleObject, current_length: float) -> None:
        """A rectangle object moves from the current to the past window."""
        record = self.records.get(rect.object_id)
        if record is None:
            return
        record.in_current = False
        self.static_bound -= rect.weight / current_length
        # Equation 3: a grown event never increases any score, Ud is unchanged.

    def remove_expired(self, rect: RectangleObject, past_length: float, alpha: float) -> None:
        """A rectangle object leaves the past window and the cell."""
        if self.records.pop(rect.object_id, None) is None:
            return
        if self.dynamic_bound != float("inf"):
            self.dynamic_bound += alpha * rect.weight / past_length

    # ------------------------------------------------------------------
    # Candidate maintenance (Lemma 4)
    # ------------------------------------------------------------------
    def update_candidate_for_new(
        self, rect: RectangleObject, current_length: float, alpha: float
    ) -> None:
        """Adjust or invalidate the candidate after a NEW event on this cell."""
        candidate = self.candidate
        if candidate is None or not candidate.valid:
            if candidate is not None:
                candidate.valid = False
            return
        if rect.covers_point(candidate.point) and candidate.fc - candidate.fp > 0.0:
            candidate.fc += rect.weight / current_length
            candidate.score = burst_score(candidate.fc, candidate.fp, alpha)
        else:
            candidate.valid = False

    def update_candidate_for_grown(self, rect: RectangleObject) -> None:
        """Adjust or invalidate the candidate after a GROWN event on this cell."""
        candidate = self.candidate
        if candidate is None or not candidate.valid:
            return
        if rect.covers_point(candidate.point):
            candidate.valid = False
        # Otherwise the candidate is untouched and remains the cell maximum
        # (a grown event can only lower scores of points inside the rectangle).

    def update_candidate_for_expired(
        self, rect: RectangleObject, past_length: float, alpha: float
    ) -> None:
        """Adjust or invalidate the candidate after an EXPIRED event on this cell."""
        candidate = self.candidate
        if candidate is None or not candidate.valid:
            return
        if rect.covers_point(candidate.point) and candidate.fc - candidate.fp > 0.0:
            candidate.fp -= rect.weight / past_length
            candidate.score = burst_score(candidate.fc, candidate.fp, alpha)
        else:
            candidate.valid = False

    def invalidate_candidate(self) -> None:
        """Force the candidate to be recomputed on the next visit."""
        if self.candidate is not None:
            self.candidate.valid = False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def labeled_rects(self) -> list[CellRecord]:
        """The cell's rectangles, clipped and labelled, ready to be swept.

        A rectangle whose cell address and clipped extent disagree by a
        rounding error (it touches the cell's grid line by address, misses it
        by an ulp in coordinates) covers no point of the cell and is left out.
        """
        return [
            record
            for record in self.records.values()
            if record.min_x <= record.max_x and record.min_y <= record.max_y
        ]

    @property
    def upper_bound(self) -> float:
        """``U(c) = min(Us(c), Ud(c))`` (Definition 8)."""
        return min(self.static_bound, self.dynamic_bound)

    @property
    def is_empty(self) -> bool:
        """Whether no rectangle object overlaps the cell any more."""
        return not self.records

    def has_valid_candidate(self) -> bool:
        """Whether the memoised candidate is guaranteed to be the cell maximum."""
        return self.candidate is not None and self.candidate.valid

    def __len__(self) -> int:
        return len(self.records)
