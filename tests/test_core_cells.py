"""Unit tests for the per-cell state of Cell-CSPOT (columns, bounds, Lemma 4)."""

import pytest

from repro.core.cells import SUB_CELLS, CandidatePoint, CellState
from repro.core.query import SurgeQuery
from repro.core.sweep_backends import RectColumns
from repro.core.sweepline import LabeledRect, sweep_bursty_point
from repro.geometry.primitives import Point, Rect
from repro.streams.objects import RectangleObject


def rect_obj(x, y, width=1.0, height=1.0, weight=1.0, object_id=0):
    return RectangleObject(
        x=x, y=y, width=width, height=height, timestamp=0.0, weight=weight, object_id=object_id
    )


def rows(cell):
    """The cell's rows as ``(object id, LabeledRect)`` pairs, in row order."""
    assert len(cell.ids) == len(cell.rects) == len(cell)
    return list(zip(cell.ids, cell.rects))


@pytest.fixture
def cell():
    return CellState(bounds=Rect(0.0, 0.0, 1.0, 1.0))


class TestBoundMaintenance:
    def test_new_rectangle_raises_static_bound(self, cell):
        cell.add_new(rect_obj(0.5, 0.5, weight=4.0, object_id=1), current_length=2.0)
        assert cell.static_bound == pytest.approx(2.0)
        assert cell.dynamic_bound == float("inf")
        assert cell.upper_bound == pytest.approx(2.0)
        assert len(cell) == 1

    def test_dynamic_bound_updated_once_finite(self, cell):
        cell.add_new(rect_obj(0.5, 0.5, weight=4.0, object_id=1), current_length=2.0)
        cell.dynamic_bound = 1.0  # as if the cell had been searched
        cell.add_new(rect_obj(0.6, 0.6, weight=2.0, object_id=2), current_length=2.0)
        # Equation 3, NEW case: Ud increases by w/|Wc|.
        assert cell.dynamic_bound == pytest.approx(2.0)

    def test_grown_lowers_static_but_not_dynamic(self, cell):
        rect = rect_obj(0.5, 0.5, weight=4.0, object_id=1)
        cell.add_new(rect, current_length=2.0)
        cell.dynamic_bound = 2.0
        assert cell.mark_grown(rect, current_length=2.0)
        assert cell.static_bound == pytest.approx(0.0)
        assert cell.dynamic_bound == pytest.approx(2.0)
        assert [r.in_current for _, r in rows(cell)] == [False]

    def test_expired_raises_dynamic_by_alpha_fraction(self, cell):
        rect = rect_obj(0.5, 0.5, weight=4.0, object_id=1)
        cell.add_new(rect, current_length=2.0)
        cell.mark_grown(rect, current_length=2.0)
        cell.dynamic_bound = 1.0
        assert cell.expire(1, 0.5 * 4.0 / 2.0)
        # Equation 3, EXPIRED case: Ud increases by alpha * w/|Wp|.
        assert cell.dynamic_bound == pytest.approx(2.0)
        assert len(cell) == 0 and rows(cell) == []

    def test_grown_and_expired_of_unknown_rectangle_are_noops(self, cell):
        assert not cell.mark_grown(rect_obj(0.5, 0.5, object_id=99), current_length=1.0)
        assert not cell.expire(99, 0.5)
        assert len(cell) == 0
        assert cell.static_bound == pytest.approx(0.0)
        # ... and next to rows the cell does hold.
        cell.add_new(rect_obj(0.5, 0.5, weight=3.0, object_id=1), current_length=1.0)
        cell.dynamic_bound = 3.0
        before = (rows(cell), cell.static_bound, cell.dynamic_bound, cell.grown)
        assert not cell.mark_grown(rect_obj(0.5, 0.5, object_id=99), current_length=1.0)
        assert not cell.expire(99, 0.5)
        assert (rows(cell), cell.static_bound, cell.dynamic_bound, cell.grown) == before

    def test_upper_bound_is_min_of_both(self, cell):
        cell.static_bound = 5.0
        cell.dynamic_bound = 3.0
        assert cell.upper_bound == 3.0
        cell.dynamic_bound = 10.0
        assert cell.upper_bound == 5.0


class TestSubCellBounds:
    """Equation 3 per sub-cell: a row raises exactly the entries its clip reaches.

    The unit cell is cut into 4 x 4 sub-cells of side 0.25, entry ``4 * r + c``
    for sub-row ``r`` (y) and sub-column ``c`` (x).
    """

    @staticmethod
    def raised(cell, searched=1.0):
        """Row-major indices of the entries above the searched value."""
        assert SUB_CELLS == 4 and len(cell.sub_bounds) == 16
        return [i for i, bound in enumerate(cell.sub_bounds) if bound != searched]

    def test_unsearched_cell_keeps_no_entries(self, cell):
        cell.add_new(rect_obj(0.5, 0.5, object_id=1), current_length=1.0)
        assert cell.sub_bounds == [] and cell.dynamic_bound == float("inf")
        assert cell.expire(1, 0.5) and cell.sub_bounds == []

    def test_row_spanning_the_cell_raises_every_entry(self, cell):
        cell.dynamic_bound = 1.0
        cell.add_new(rect_obj(0.0, 0.0, weight=3.0, object_id=1), current_length=2.0)
        assert cell.sub_bounds == [2.5] * 16

    def test_row_touching_only_the_top_edge_lands_in_the_last_sub_row(self, cell):
        cell.dynamic_bound = 1.0
        cell.add_new(rect_obj(0.3, 1.0, object_id=1), current_length=1.0)
        assert self.raised(cell) == [13, 14, 15]

    def test_row_touching_only_the_right_edge_lands_in_the_last_sub_column(self, cell):
        cell.dynamic_bound = 1.0
        cell.add_new(rect_obj(1.0, -0.9, object_id=1), current_length=1.0)
        assert self.raised(cell) == [3]

    def test_edges_on_sub_cell_lines_need_no_special_case(self, cell):
        # [0.25, 0.5] x [0, 0.25]: the closed edges reach the sub-cells that
        # start on them, so points on those lines are bounded wherever they
        # are counted.
        cell.dynamic_bound = 1.0
        cell.add_new(
            rect_obj(0.25, -0.75, width=0.25, object_id=1), current_length=1.0
        )
        assert self.raised(cell) == [1, 2, 5, 6]

    def test_disjoint_rows_raise_the_bound_by_the_heavier_not_the_sum(self, cell):
        cell.dynamic_bound = 1.0
        cell.add_new(rect_obj(-0.6, 0.0, weight=2.0, object_id=1), current_length=1.0)
        cell.add_new(rect_obj(0.6, 0.0, weight=3.0, object_id=2), current_length=1.0)
        assert cell.dynamic_bound == 4.0  # one scalar Ud would read 1 + 2 + 3
        cell.static_bound = 3.5
        assert cell.upper_bound == 3.5

    def test_row_arriving_and_expiring_between_searches_contributes_both_gains(self, cell):
        cell.dynamic_bound = 1.0
        rect = rect_obj(0.8, 0.8, weight=4.0, object_id=1)
        cell.add_new(rect, current_length=2.0)  # + 4 / 2
        assert cell.mark_grown(rect, current_length=2.0)
        assert cell.expire(1, 0.5 * 4.0 / 8.0)  # + alpha * 4 / 8
        assert self.raised(cell) == [15]
        assert cell.dynamic_bound == cell.sub_bounds[15] == 3.25
        # A search starts over from the exact maximum.
        cell.dynamic_bound = 0.0
        assert cell.sub_bounds == [0.0] * 16


class TestColumns:
    def test_row_is_clipped_to_the_cell_once(self, cell):
        cell.add_new(rect_obj(0.5, -0.25, weight=3.0, object_id=1), current_length=2.0)
        assert rows(cell) == [(1, LabeledRect(0.5, 0.0, 1.0, 0.75, 3.0, True))]

    def test_scalar_and_rectangle_object_spellings_agree(self, cell):
        other = CellState(bounds=cell.bounds)
        rect = rect_obj(0.5, -0.25, width=0.8, height=0.9, weight=3.0, object_id=1)
        cell.add_new(rect, current_length=2.0)
        other.add(1, 0.5, -0.25, 0.5 + 0.8, -0.25 + 0.9, 3.0, 3.0 / 2.0)
        assert rows(cell) == rows(other)
        assert cell.mark_grown(rect, 2.0) and other.grow(1, 3.0 / 2.0)
        assert rows(cell) == rows(other) and cell.static_bound == other.static_bound
        cell.dynamic_bound = other.dynamic_bound = 1.0
        assert cell.expire(1, 0.5 * 3.0 / 4.0) and other.expire(1, 0.5 * 3.0 / 4.0)
        assert rows(cell) == rows(other) == []
        assert cell.dynamic_bound == other.dynamic_bound

    def test_rows_keep_arrival_order_and_fifo_positions(self, cell):
        rects = [rect_obj(0.1 * i, 0.2, weight=1.0 + i, object_id=10 + i) for i in range(4)]
        for rect in rects:
            cell.add_new(rect, current_length=2.0)
        assert cell.ids == [10, 11, 12, 13] and cell.grown == 0
        cell.mark_grown(rects[0], 2.0)
        cell.mark_grown(rects[1], 2.0)
        assert cell.grown == 2
        assert [r.in_current for _, r in rows(cell)] == [False, False, True, True]
        cell.expire(10, 0.25)
        assert cell.ids == [11, 12, 13] and cell.grown == 1
        assert [r.weight for _, r in rows(cell)] == [2.0, 3.0, 4.0]

    def test_out_of_order_transitions_take_the_fallback(self, cell):
        rects = [rect_obj(0.1 * i, 0.2, weight=1.0 + i, object_id=10 + i) for i in range(4)]
        for rect in rects:
            cell.add_new(rect, current_length=2.0)
        # Not the oldest current row: found by id, order kept, hint unmoved.
        assert cell.mark_grown(rects[2], 2.0)
        assert [r.in_current for _, r in rows(cell)] == [True, True, False, True]
        assert cell.grown == 0
        # Not the head: removed by id, the others keep their order.
        assert cell.expire(11, 0.5)
        assert cell.ids == [10, 12, 13]
        # Growing the head now also skips the row that grew early.
        assert cell.mark_grown(rects[0], 2.0)
        assert cell.grown == 2
        assert cell.mark_grown(rects[3], 2.0) and cell.grown == 3
        for object_id in (13, 10, 12):
            assert cell.expire(object_id, 0.5)
        assert rows(cell) == [] and cell.grown == 0

    def test_labeled_rects_is_the_cells_own_columns(self, cell):
        rect = rect_obj(0.5, 0.5, object_id=1)
        cell.add_new(rect, current_length=2.0)
        swept = cell.labeled_rects()
        assert isinstance(swept, RectColumns) and swept is cell.rects
        assert [r.in_current for r in swept] == [True]
        cell.mark_grown(rect, current_length=2.0)
        assert [r.in_current for r in cell.labeled_rects()] == [False]

    def test_rectangle_missing_the_cell_by_rounding_is_not_swept(self, cell):
        # Addressed to the cell by floor arithmetic, but ends an ulp short of
        # its left edge: it stays a row (it still counts, grows and expires)
        # and covers no point of the cell — so it raises Us (which ``grow``
        # takes back) but no sub-cell's Ud, arriving or expiring.
        cell.dynamic_bound = 2.0  # as if the cell had been searched
        short = rect_obj(-1.5, 0.2, width=1.4999999, weight=7.0, object_id=1)
        cell.add_new(short, current_length=1.0)
        assert cell.sub_bounds == [2.0] * SUB_CELLS**2 and cell.dynamic_bound == 2.0
        cell.add_new(rect_obj(0.2, 0.2, object_id=2), current_length=1.0)
        searched = list(cell.sub_bounds)
        assert len(cell) == 2 and cell.degenerate == 1
        assert cell.static_bound == pytest.approx(8.0)
        swept = cell.labeled_rects()
        assert swept is not cell.rects
        assert list(swept) == [LabeledRect(0.2, 0.2, 1.0, 1.0, 1.0, True)]
        assert cell.mark_grown(short, 1.0) and cell.expire(1, 3.5)
        assert cell.degenerate == 0 and cell.labeled_rects() is cell.rects
        assert cell.sub_bounds == searched and cell.dynamic_bound == 3.0

    def test_excluded_ids_are_left_out_with_and_without_a_masked_row(self, cell):
        cell.add_new(rect_obj(0.2, 0.2, object_id=2), current_length=1.0)
        cell.add_new(rect_obj(0.4, 0.1, weight=3.0, object_id=3), current_length=1.0)
        kept = [LabeledRect(0.4, 0.1, 1.0, 1.0, 3.0, True)]
        assert cell.labeled_rects(frozenset()) is cell.rects
        assert list(cell.labeled_rects({2})) == kept
        short = rect_obj(-1.5, 0.2, width=1.4999999, weight=7.0, object_id=1)
        cell.add_new(short, current_length=1.0)
        assert cell.degenerate == 1
        assert list(cell.labeled_rects({2})) == kept
        assert len(cell.labeled_rects({2, 3})) == 0
        assert len(cell.rects) == 3

    def test_rows_sweep_like_the_unclipped_rectangles(self, cell):
        unclipped = []
        for object_id, (x, y) in enumerate([(0.5, -0.25), (-0.4, 0.3), (0.2, 0.6)]):
            rect = rect_obj(x, y, weight=float(object_id + 1), object_id=object_id)
            cell.add_new(rect, current_length=2.0)
            if object_id == 1:
                cell.mark_grown(rect, current_length=2.0)
            unclipped.append(
                LabeledRect(x, y, x + 1.0, y + 1.0, rect.weight, object_id != 1)
            )
        for backend in ("python", "auto"):
            direct = sweep_bursty_point(cell.labeled_rects(), 0.5, 2.0, 2.0, backend=backend)
            clipped = sweep_bursty_point(
                unclipped, 0.5, 2.0, 2.0, bounds=cell.bounds, backend=backend
            )
            assert direct == clipped


class TestCellSearch:
    @pytest.mark.parametrize("algorithm", ["ccs", "bccs", "base"])
    def test_cell_with_only_an_empty_clip_scores_zero(self, algorithm):
        from repro.core.monitor import make_detector

        query = SurgeQuery(rect_width=1.0, rect_height=1.0, window_length=10.0)
        detector = make_detector(algorithm, query)
        cell = CellState(bounds=detector.grid.cell_rect((0, 0)))
        cell.add_new(rect_obj(-1.5, 0.2, width=1.4999999, weight=7.0, object_id=1), 10.0)
        assert detector._search_cell(cell) == 0.0
        assert cell.candidate == CandidatePoint(Point(1.0, 1.0), 0.0, 0.0, 0.0)
        assert detector.stats.cells_searched == 1 and detector.stats.rectangles_swept == 0
        # A real row then wins, and counts as one swept rectangle.
        cell.add_new(rect_obj(0.5, 0.5, weight=4.0, object_id=2), 10.0)
        assert detector._search_cell(cell) == pytest.approx(0.4)
        assert detector.stats.rectangles_swept == 1


class TestCandidateMaintenance:
    COVERING = (0.0, 0.0, 1.0, 1.0)  # covers the candidate at (0.5, 0.5)
    ELSEWHERE = (5.0, 5.0, 6.0, 6.0)

    def _candidate(self, point=Point(0.5, 0.5), fc=2.0, fp=1.0, alpha=0.5):
        from repro.core.burst import burst_score

        return CandidatePoint(point=point, score=burst_score(fc, fp, alpha), fc=fc, fp=fp)

    def test_new_covering_candidate_with_positive_increase_stays_valid(self, cell):
        cell.candidate = self._candidate()
        cell.raise_candidate(*self.COVERING, 2.0 / 2.0, 0.0, alpha=0.5)
        assert cell.candidate.valid
        assert cell.candidate.fc == pytest.approx(3.0)
        assert cell.candidate.score == pytest.approx(0.5 * 2.0 + 0.5 * 3.0)

    def test_new_not_covering_candidate_invalidates(self, cell):
        cell.candidate = self._candidate()
        cell.raise_candidate(*self.ELSEWHERE, 1.0, 0.0, alpha=0.5)
        assert not cell.candidate.valid

    def test_new_covering_but_non_positive_increase_invalidates(self, cell):
        cell.candidate = self._candidate(fc=1.0, fp=2.0)
        cell.raise_candidate(*self.COVERING, 1.0, 0.0, alpha=0.5)
        assert not cell.candidate.valid

    def test_grown_not_covering_candidate_stays_valid(self, cell):
        cell.candidate = self._candidate()
        cell.lower_candidate(*self.ELSEWHERE)
        assert cell.candidate.valid

    def test_grown_covering_candidate_invalidates(self, cell):
        cell.candidate = self._candidate()
        cell.lower_candidate(*self.COVERING)
        assert not cell.candidate.valid

    def test_closed_edges_cover(self, cell):
        cell.candidate = self._candidate(point=Point(1.0, 0.0))
        cell.lower_candidate(*self.COVERING)
        assert not cell.candidate.valid

    def test_expired_covering_with_positive_increase_stays_valid(self, cell):
        cell.candidate = self._candidate(fc=3.0, fp=1.0)
        cell.raise_candidate(*self.COVERING, 0.0, 2.0 / 2.0, alpha=0.5)
        assert cell.candidate.valid
        assert cell.candidate.fp == pytest.approx(0.0)
        assert cell.candidate.score == pytest.approx(0.5 * 3.0 + 0.5 * 3.0)

    def test_expired_not_covering_invalidates(self, cell):
        cell.candidate = self._candidate()
        cell.raise_candidate(*self.ELSEWHERE, 0.0, 0.5, alpha=0.5)
        assert not cell.candidate.valid

    def test_updates_on_missing_or_invalid_candidate_are_noops(self, cell):
        cell.raise_candidate(*self.COVERING, 1.0, 0.0, alpha=0.5)
        cell.lower_candidate(*self.COVERING)
        assert cell.candidate is None
        cell.candidate = self._candidate()
        cell.invalidate_candidate()
        cell.raise_candidate(*self.COVERING, 1.0, 0.0, alpha=0.5)
        assert not cell.candidate.valid and cell.candidate.fc == 2.0

    def test_invalidate_candidate(self, cell):
        cell.candidate = self._candidate()
        cell.invalidate_candidate()
        assert not cell.has_valid_candidate()

    def test_has_valid_candidate(self, cell):
        assert not cell.has_valid_candidate()
        cell.candidate = self._candidate()
        assert cell.has_valid_candidate()


class TestDynamicScoreSyncInvariant:
    def test_bound_and_candidate_move_in_lockstep(self, cell):
        """Whenever the candidate stays valid, Ud must equal its score.

        This is the invariant Cell-CSPOT's early termination relies on.
        """
        alpha = 0.5
        current_length = 2.0
        covering = rect_obj(0.0, 0.0, weight=3.0, object_id=1)
        cell.add_new(covering, current_length)
        # Simulate a search: candidate == cell optimum, Ud == its score.
        cell.candidate = CandidatePoint(
            point=Point(0.5, 0.5), score=1.5, fc=1.5, fp=0.0, valid=True
        )
        cell.dynamic_bound = 1.5

        addition = rect_obj(0.1, 0.1, weight=2.0, object_id=2)
        cell.add_new(addition, current_length)
        cell.raise_candidate(0.1, 0.1, 1.1, 1.1, 2.0 / current_length, 0.0, alpha)
        assert cell.candidate.valid
        assert cell.dynamic_bound == pytest.approx(cell.candidate.score)

        cell.mark_grown(covering, current_length)
        cell.lower_candidate(0.0, 0.0, 1.0, 1.0)
        # Covering grown event invalidates; the invariant only applies while valid.
        assert not cell.candidate.valid
