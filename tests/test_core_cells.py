"""Unit tests for the per-cell state of Cell-CSPOT (bounds and Lemma 4)."""

import pytest

from repro.core.cells import CandidatePoint, CellRecord, CellState
from repro.geometry.primitives import Point, Rect
from repro.streams.objects import RectangleObject


def rect_obj(x, y, width=1.0, height=1.0, weight=1.0, object_id=0):
    return RectangleObject(
        x=x, y=y, width=width, height=height, timestamp=0.0, weight=weight, object_id=object_id
    )


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
        cell.mark_grown(rect, current_length=2.0)
        assert cell.static_bound == pytest.approx(0.0)
        assert cell.dynamic_bound == pytest.approx(2.0)
        assert cell.records[1].in_current is False

    def test_expired_raises_dynamic_by_alpha_fraction(self, cell):
        rect = rect_obj(0.5, 0.5, weight=4.0, object_id=1)
        cell.add_new(rect, current_length=2.0)
        cell.mark_grown(rect, current_length=2.0)
        cell.dynamic_bound = 1.0
        cell.remove_expired(rect, past_length=2.0, alpha=0.5)
        # Equation 3, EXPIRED case: Ud increases by alpha * w/|Wp|.
        assert cell.dynamic_bound == pytest.approx(2.0)
        assert cell.is_empty

    def test_grown_and_expired_of_unknown_rectangle_are_noops(self, cell):
        cell.mark_grown(rect_obj(0.5, 0.5, object_id=99), current_length=1.0)
        cell.remove_expired(rect_obj(0.5, 0.5, object_id=99), past_length=1.0, alpha=0.5)
        assert cell.is_empty
        assert cell.static_bound == pytest.approx(0.0)

    def test_upper_bound_is_min_of_both(self, cell):
        cell.static_bound = 5.0
        cell.dynamic_bound = 3.0
        assert cell.upper_bound == 3.0
        cell.dynamic_bound = 10.0
        assert cell.upper_bound == 5.0


class TestClippedRecords:
    def test_record_is_clipped_to_the_cell_once(self, cell):
        cell.add_new(rect_obj(0.5, -0.25, weight=3.0, object_id=1), current_length=2.0)
        record = cell.records[1]
        assert (record.min_x, record.min_y, record.max_x, record.max_y) == (
            0.5, 0.0, 1.0, 0.75,
        )
        assert record.weight == 3.0 and record.in_current is True
        assert not hasattr(record, "__dict__")  # slots

    def test_labeled_rects_follow_the_window_label(self, cell):
        rect = rect_obj(0.5, 0.5, object_id=1)
        cell.add_new(rect, current_length=2.0)
        assert [r.in_current for r in cell.labeled_rects()] == [True]
        cell.mark_grown(rect, current_length=2.0)
        assert [r.in_current for r in cell.labeled_rects()] == [False]

    def test_rectangle_missing_the_cell_by_rounding_is_not_swept(self, cell):
        # Addressed to the cell by floor arithmetic, but ends an ulp short of
        # its left edge: it stays a record (it still grows and expires) and
        # covers no point of the cell.
        cell.add_new(rect_obj(-1.5, 0.2, width=1.4999999, object_id=1), current_length=1.0)
        cell.add_new(rect_obj(0.2, 0.2, object_id=2), current_length=1.0)
        assert len(cell) == 2
        assert [r.rect.object_id for r in cell.labeled_rects()] == [2]

    def test_records_sweep_like_labeled_rects(self, cell):
        from repro.core.sweepline import LabeledRect, sweep_bursty_point

        for object_id, (x, y) in enumerate([(0.5, -0.25), (-0.4, 0.3), (0.2, 0.6)]):
            rect = rect_obj(x, y, weight=float(object_id + 1), object_id=object_id)
            cell.add_new(rect, current_length=2.0)
            if object_id == 1:
                cell.mark_grown(rect, current_length=2.0)
        unclipped = [
            LabeledRect(
                r.rect.x, r.rect.y, r.rect.x + r.rect.width, r.rect.y + r.rect.height,
                r.rect.weight, r.in_current,
            )
            for r in cell.records.values()
        ]
        for backend in ("python", "auto"):
            direct = sweep_bursty_point(cell.labeled_rects(), 0.5, 2.0, 2.0, backend=backend)
            clipped = sweep_bursty_point(
                unclipped, 0.5, 2.0, 2.0, bounds=cell.bounds, backend=backend
            )
            assert direct == clipped


class TestCandidateMaintenance:
    def _candidate(self, point=Point(0.5, 0.5), fc=2.0, fp=1.0, alpha=0.5):
        from repro.core.burst import burst_score

        return CandidatePoint(point=point, score=burst_score(fc, fp, alpha), fc=fc, fp=fp)

    def test_new_covering_candidate_with_positive_increase_stays_valid(self, cell):
        cell.candidate = self._candidate()
        rect = rect_obj(0.0, 0.0, weight=2.0, object_id=1)  # covers (0.5, 0.5)
        cell.update_candidate_for_new(rect, current_length=2.0, alpha=0.5)
        assert cell.candidate.valid
        assert cell.candidate.fc == pytest.approx(3.0)
        assert cell.candidate.score == pytest.approx(0.5 * 2.0 + 0.5 * 3.0)

    def test_new_not_covering_candidate_invalidates(self, cell):
        cell.candidate = self._candidate()
        rect = rect_obj(5.0, 5.0, weight=2.0, object_id=1)
        cell.update_candidate_for_new(rect, current_length=2.0, alpha=0.5)
        assert not cell.candidate.valid

    def test_new_covering_but_non_positive_increase_invalidates(self, cell):
        cell.candidate = self._candidate(fc=1.0, fp=2.0)
        rect = rect_obj(0.0, 0.0, weight=2.0, object_id=1)
        cell.update_candidate_for_new(rect, current_length=2.0, alpha=0.5)
        assert not cell.candidate.valid

    def test_grown_not_covering_candidate_stays_valid(self, cell):
        cell.candidate = self._candidate()
        rect = rect_obj(5.0, 5.0, object_id=1)
        cell.update_candidate_for_grown(rect)
        assert cell.candidate.valid

    def test_grown_covering_candidate_invalidates(self, cell):
        cell.candidate = self._candidate()
        rect = rect_obj(0.0, 0.0, object_id=1)
        cell.update_candidate_for_grown(rect)
        assert not cell.candidate.valid

    def test_expired_covering_with_positive_increase_stays_valid(self, cell):
        cell.candidate = self._candidate(fc=3.0, fp=1.0)
        rect = rect_obj(0.0, 0.0, weight=2.0, object_id=1)
        cell.update_candidate_for_expired(rect, past_length=2.0, alpha=0.5)
        assert cell.candidate.valid
        assert cell.candidate.fp == pytest.approx(0.0)
        assert cell.candidate.score == pytest.approx(0.5 * 3.0 + 0.5 * 3.0)

    def test_expired_not_covering_invalidates(self, cell):
        cell.candidate = self._candidate()
        rect = rect_obj(5.0, 5.0, object_id=1)
        cell.update_candidate_for_expired(rect, past_length=2.0, alpha=0.5)
        assert not cell.candidate.valid

    def test_updates_on_missing_candidate_are_noops(self, cell):
        rect = rect_obj(0.0, 0.0, object_id=1)
        cell.update_candidate_for_new(rect, 1.0, 0.5)
        cell.update_candidate_for_grown(rect)
        cell.update_candidate_for_expired(rect, 1.0, 0.5)
        assert cell.candidate is None

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
        current_length = past_length = 2.0
        covering = rect_obj(0.0, 0.0, weight=3.0, object_id=1)
        cell.add_new(covering, current_length)
        # Simulate a search: candidate == cell optimum, Ud == its score.
        cell.candidate = CandidatePoint(
            point=Point(0.5, 0.5), score=1.5, fc=1.5, fp=0.0, valid=True
        )
        cell.dynamic_bound = 1.5

        addition = rect_obj(0.1, 0.1, weight=2.0, object_id=2)
        cell.add_new(addition, current_length)
        cell.update_candidate_for_new(addition, current_length, alpha)
        assert cell.candidate.valid
        assert cell.dynamic_bound == pytest.approx(cell.candidate.score)

        cell.mark_grown(covering, current_length)
        cell.update_candidate_for_grown(covering)
        # Covering grown event invalidates; the invariant only applies while valid.
        assert not cell.candidate.valid
