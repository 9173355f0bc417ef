"""Unit tests for the per-cell state of Cell-CSPOT (columns, bounds, Lemma 4)."""

import base64
import pickle

import pytest

from tests.helpers import make_objects
from repro.core.cells import CandidatePoint, CellRecord, CellState
from repro.core.monitor import SurgeMonitor
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
        # and covers no point of the cell.
        short = rect_obj(-1.5, 0.2, width=1.4999999, weight=7.0, object_id=1)
        cell.add_new(short, current_length=1.0)
        cell.add_new(rect_obj(0.2, 0.2, object_id=2), current_length=1.0)
        assert len(cell) == 2 and cell.degenerate == 1
        assert cell.static_bound == pytest.approx(8.0)
        swept = cell.labeled_rects()
        assert swept is not cell.rects
        assert list(swept) == [LabeledRect(0.2, 0.2, 1.0, 1.0, 1.0, True)]
        assert cell.mark_grown(short, 1.0) and cell.expire(1, 3.5)
        assert cell.degenerate == 0 and cell.labeled_rects() is cell.rects

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


#: ``pickle.dumps`` of a ``CellState`` at the parent commit of the columnar
#: layout (protocol 4, base85): bounds [0, 1]², ids 7 (past), 8, 9 (current),
#: a valid candidate and ``Us = Ud = 1.75``.
PARENT_COMMIT_CELL = (
    "fCQCa0{{R30001t5OQU3a&InUZ*pZWV`Xe?bCiq;LuG7iQ*>c;Wt5YYDS?!Ilqie_VsCYBWO"
    "I~^8FFQCa&InYWp8a|baHtvaB^vFX>@6JWpk8_1X5*Vbd-~nDS?z-lqg34000000000-0000"
    "000000M?dfY0000007pOY00000003oTj0bXMV{dX~bCi9QC`$)u0E`MlWo&FxWn*u0WR#PXD"
    "S?zueUvDS1af6#bd-!0a%FIGZ!U9ma%Ev{b1rXUYGq?|bCiq^Qe|UwVQyz^Wlv&iWn*-dlaw"
    "ielwFi4M?c^I0000007t*j00000002in@Bjb+0000-Kkxtm00000M*si-0000007pOw00000"
    "002t|Wnzp4ZE0>_c$7y!-~a#s0001t1#M|=UwM>A0000000000j0J6BcwcywM?dfY000000E"
    "`7~VR&D8lt(}400000004{zcV%g3XmpfEKnMT;00000j0$OPUt@K0a%FCGl!<kQlwwN=Xbvf"
    "Xlumt=C}<IA6e)p}U6d$CzuB3YnVFfIM?cduGcz+YGe<x000000002in@Bjb+0000-Kkxtm0"
    "0000M?e4o00000080pEVrUmf0000000000Xc$L7(=#(OGcz-28Am_kGcz+YGc#x!M?dfY000"
    "000B9RWKmY&$00000XdH-jhLmDU31|)}fs{^tlqhHsXcQ@dlwFi4M?cA#nVFfHnnyq5Gcz+Y"
    "Gc!j&@Bjb+0000-Kkxtm00000M?e4o0000007pO+00000002t~WnyR-M?cA#nVFfHnrIkDKj"
    "SkqGcz+YXc<R8@Bjb+0001J8b?3y00000003wkM?e$+000000B9VDb%vB;b&L#ibYXO9V_#x"
    "#b#7#oM?d@k000000E`V}d2V5CX=7hvZ*^{Dlt(}O00000004{$V_|M&X=Gt^Wt3<Dj1EI#Z"
    "e(d>VRU6sZ)t9Hl#`Sxfs}oeD2xSgZ)t9HlxPNw1yFBkZgiBBlqrFfU6d$CKjSkqGcz+YM?d"
    "CfW@ct)W@TcG1#@F>a%Gf9Kl}gy00000i~?q3lt(}O00000004{vW^j~80000000000j0JXK"
    "Y-wbah;?FhVlD"
)


class TestCheckpointCompatibility:
    """Checkpoints written with a ``records`` dict of ``CellRecord`` still load."""

    def test_parent_commit_pickle_loads_as_columns(self):
        cell = pickle.loads(base64.b85decode(PARENT_COMMIT_CELL))
        assert "records" not in vars(cell)
        assert rows(cell) == [
            (7, LabeledRect(0.5, 0.0, 1.0, 0.75, 3.0, False)),
            (8, LabeledRect(0.0, 0.3, 0.6, 1.0, 2.0, True)),
            (9, LabeledRect(0.2, 0.6, 1.0, 1.0, 5.0, True)),
        ]
        assert (cell.grown, cell.degenerate) == (1, 0)
        assert cell.bounds == Rect(0.0, 0.0, 1.0, 1.0)
        assert cell.static_bound == cell.dynamic_bound == 1.75
        assert cell.candidate == CandidatePoint(Point(0.6, 0.7), 1.75, 1.75, 0.0)
        # The restored cell is live: FIFO positions, then a fresh round trip.
        assert cell.expire(7, 0.0) and cell.grow(8, 0.5) and cell.grown == 1
        assert rows(pickle.loads(pickle.dumps(cell))) == rows(cell)

    @staticmethod
    def _as_parent_layout(cell: CellState) -> CellState:
        """``cell`` with the state dict the parent commit pickled."""
        legacy = CellState.__new__(CellState)
        vars(legacy).update(
            bounds=cell.bounds,
            records={
                object_id: CellRecord(
                    # The unclipped original; nothing reads it back.
                    rect_obj(r.min_x, r.min_y, weight=r.weight, object_id=object_id),
                    r.min_x, r.min_y, r.max_x, r.max_y, r.weight, r.in_current,
                )
                for object_id, r in rows(cell)
            },
            static_bound=cell.static_bound,
            dynamic_bound=cell.dynamic_bound,
            candidate=cell.candidate,
        )
        return legacy

    @pytest.mark.parametrize("algorithm", ["ccs", "bccs", "base"])
    def test_old_layout_state_restores_and_replays_bit_identically(self, algorithm):
        query = SurgeQuery(rect_width=1.0, rect_height=1.0, window_length=15.0, alpha=0.6)
        objects = make_objects(160, seed=71, extent=4.0)
        chunks = [objects[i : i + 8] for i in range(0, len(objects), 8)]

        uninterrupted = SurgeMonitor(query, algorithm=algorithm)
        expected = [uninterrupted.push_many(chunk) for chunk in chunks]

        first = SurgeMonitor(query, algorithm=algorithm)
        results = [first.push_many(chunk) for chunk in chunks[:10]]
        cells = first.detector.cells
        assert any(cell.grown for cell in cells.values())  # both windows populated
        for key in cells:
            cells[key] = self._as_parent_layout(cells[key])
        restored = pickle.loads(pickle.dumps(first))
        for key, cell in restored.detector.cells.items():
            assert "records" not in vars(cell) and isinstance(cell.rects, RectColumns)
        results += [restored.push_many(chunk) for chunk in chunks[10:]]

        assert results == expected
        assert restored.detector.stats == uninterrupted.detector.stats
        assert {k: rows(c) for k, c in restored.detector.cells.items()} == {
            k: rows(c) for k, c in uninterrupted.detector.cells.items()
        }
