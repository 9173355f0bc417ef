"""Shared value types of the sweep-line backends.

:class:`RectColumns` and :class:`SweepResult` are the input and output of
every SL-CSPOT kernel; :class:`LabeledRect` is one rectangle of a snapshot
handed over as a sequence, which :func:`as_columns` converts once.  They
live here — rather than in :mod:`repro.core.sweepline` — so the backend
implementations can import them without creating a cycle with the facade
module, which re-exports the two record names for backwards compatibility.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Union

from repro.geometry.primitives import Point, Rect


@dataclass(frozen=True, slots=True)
class LabeledRect:
    """A rectangle object together with its window label.

    ``in_current`` is ``True`` for rectangles whose originating object lies
    in the current window ``Wc`` and ``False`` for the past window ``Wp``.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float
    weight: float
    in_current: bool

    @staticmethod
    def from_rect(rect: Rect, weight: float, in_current: bool) -> "LabeledRect":
        """Build a labelled rectangle from a geometric rectangle."""
        return LabeledRect(
            rect.min_x, rect.min_y, rect.max_x, rect.max_y, weight, in_current
        )


@dataclass(frozen=True, slots=True)
class SweepResult:
    """The outcome of one SL-CSPOT invocation."""

    point: Point
    score: float
    fc: float
    fp: float
    rectangles_swept: int = 0


_FIELDS = attrgetter("min_x", "min_y", "max_x", "max_y", "weight", "in_current")


class RectColumns:
    """A rectangle snapshot as six parallel columns: what a kernel sweeps.

    ``min_x`` / ``min_y`` / ``max_x`` / ``max_y`` / ``weight`` are
    ``array('d')`` and ``in_current`` is ``array('b')`` (1 = current window),
    so the numpy kernel reads them through ``np.frombuffer`` without a copy
    and the python kernel as plain sequences.  A cell of the exact detectors
    keeps its rectangles in this form; every other caller's sequence of
    records goes through :func:`as_columns`.  Iterating yields the rows back
    as :class:`LabeledRect`.
    """

    __slots__ = ("min_x", "min_y", "max_x", "max_y", "weight", "in_current")

    def __init__(self, rects: Iterable[LabeledRect] = (), rows=None) -> None:
        """``rows`` replaces ``rects`` by ready 6-tuples in column order."""
        if rows is None and not rects:
            # The columns of a new cell: nothing to flatten and slice.
            self.min_x = array("d")
            self.min_y = array("d")
            self.max_x = array("d")
            self.max_y = array("d")
            self.weight = array("d")
            self.in_current = array("b")
            return
        rows = map(_FIELDS, rects) if rows is None else rows
        flat = array("d", chain.from_iterable(rows))
        self.min_x, self.min_y, self.max_x, self.max_y, self.weight = (
            flat[field::6] for field in range(5)
        )
        self.in_current = array("b", map(int, flat[5::6]))

    def __len__(self) -> int:
        return len(self.weight)

    def __iter__(self) -> Iterator[LabeledRect]:
        return map(
            LabeledRect, self.min_x, self.min_y, self.max_x, self.max_y,
            self.weight, map(bool, self.in_current),
        )


#: What a kernel's ``sweep`` (and the facade) accepts.
RectSnapshot = Union[RectColumns, Iterable[LabeledRect]]


def as_columns(rects: RectSnapshot) -> RectColumns:
    """``rects`` itself when already columnar, else converted (one pass)."""
    return rects if isinstance(rects, RectColumns) else RectColumns(rects)


def clip_rects(rects: Iterable[LabeledRect], bounds: Rect) -> RectColumns:
    """Clip rectangles to ``bounds``, dropping the ones that miss it entirely."""
    def clipped():
        for rect in rects:
            min_x = max(rect.min_x, bounds.min_x)
            min_y = max(rect.min_y, bounds.min_y)
            max_x = min(rect.max_x, bounds.max_x)
            max_y = min(rect.max_y, bounds.max_y)
            if min_x <= max_x and min_y <= max_y:
                yield min_x, min_y, max_x, max_y, rect.weight, rect.in_current

    return RectColumns(rows=clipped())
