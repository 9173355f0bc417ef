"""White-box invariant checks on Cell-CSPOT's per-cell state during a stream.

These tests re-derive, after every event of a random stream, the quantities
the detector maintains incrementally and check the invariants its pruning
logic relies on (Lemmas 2-4 and the Ud-tracks-candidate-score property).
They complement the black-box exactness tests by pinpointing *which* piece of
bookkeeping broke if a regression is introduced.
"""

import pytest

from tests.helpers import make_objects
from repro.core.burst import burst_score
from repro.core.cell_cspot import CellCSPOT
from repro.core.query import SurgeQuery
from repro.core.sweepline import LabeledRect, sweep_bursty_point
from repro.geometry.primitives import Rect
from repro.streams.windows import SlidingWindowPair


def unclipped_rows(detector, seen, cell):
    """The cell's rows as the unclipped rectangle objects they were clipped from.

    ``seen`` maps object id to the spatial object that was fed; the window
    label is read from the cell's columns, everything else is re-derived.
    """
    query = detector.query
    assert len(cell.ids) == len(cell.rects) == len(set(cell.ids))
    return [
        LabeledRect(
            seen[object_id].x,
            seen[object_id].y,
            seen[object_id].x + query.rect_width,
            seen[object_id].y + query.rect_height,
            seen[object_id].weight,
            row.in_current,
        )
        for object_id, row in zip(cell.ids, cell.rects)
    ]


def cell_true_maximum(detector, seen, cell):
    """The true maximum burst score inside a cell, recomputed from scratch."""
    outcome = sweep_bursty_point(
        unclipped_rows(detector, seen, cell),
        alpha=detector.query.alpha,
        current_length=detector.query.current_length,
        past_length=detector.query.past_length,
        bounds=cell.bounds,
    )
    return 0.0 if outcome is None else outcome.score


@pytest.fixture
def detector_and_windows():
    query = SurgeQuery(rect_width=1.1, rect_height=0.9, window_length=12.0, alpha=0.6)
    return CellCSPOT(query), SlidingWindowPair(query.window_length)


class TestPerCellInvariants:
    def _run_checking(self, detector, windows, objects, check):
        seen = {}
        for index, obj in enumerate(objects):
            seen[obj.object_id] = obj
            for event in windows.observe(obj):
                detector.process(event)
            if index % 4 == 0:
                for key, cell in detector.cells.items():
                    check(detector, key, cell, seen)

    def test_static_bound_dominates_cell_maximum(self, detector_and_windows):
        """Lemma 2: Us(c) is an upper bound on every point's score in c."""
        detector, windows = detector_and_windows

        def check(det, key, cell, seen):
            true_max = cell_true_maximum(det, seen, cell)
            assert cell.static_bound >= true_max - 1e-6 * max(1.0, true_max), key

        self._run_checking(detector, windows, make_objects(60, seed=51, extent=5.0), check)

    def test_dynamic_bound_dominates_cell_maximum(self, detector_and_windows):
        """Lemma 3: Ud(c), maintained through Equation 3, stays an upper bound."""
        detector, windows = detector_and_windows

        def check(det, key, cell, seen):
            true_max = cell_true_maximum(det, seen, cell)
            assert cell.dynamic_bound >= true_max - 1e-6 * max(1.0, true_max), key

        self._run_checking(detector, windows, make_objects(60, seed=52, extent=5.0), check)

    def test_valid_candidate_is_the_cell_maximum(self, detector_and_windows):
        """Lemma 4: a candidate kept valid across events equals the cell max."""
        detector, windows = detector_and_windows

        def check(det, key, cell, seen):
            if not cell.has_valid_candidate():
                return
            true_max = cell_true_maximum(det, seen, cell)
            assert cell.candidate.score == pytest.approx(true_max, rel=1e-6, abs=1e-9), key

        self._run_checking(detector, windows, make_objects(70, seed=53, extent=5.0), check)

    def test_dynamic_bound_tracks_valid_candidate_score(self, detector_and_windows):
        """The invariant the early-termination argument relies on."""
        detector, windows = detector_and_windows

        def check(det, key, cell, seen):
            if not cell.has_valid_candidate():
                return
            assert cell.dynamic_bound == pytest.approx(
                cell.candidate.score, rel=1e-9, abs=1e-12
            ), key

        self._run_checking(detector, windows, make_objects(70, seed=54, extent=5.0), check)

    def test_candidate_window_scores_match_recount(self, detector_and_windows):
        """A valid candidate's stored (fc, fp) equal a from-scratch recount."""
        detector, windows = detector_and_windows

        def check(det, key, cell, seen):
            if not cell.has_valid_candidate():
                return
            point = cell.candidate.point
            covering = [
                rect
                for rect in unclipped_rows(det, seen, cell)
                if rect.min_x <= point.x <= rect.max_x
                and rect.min_y <= point.y <= rect.max_y
            ]
            fc = sum(r.weight for r in covering if r.in_current) / det.query.current_length
            fp = sum(r.weight for r in covering if not r.in_current) / det.query.past_length
            assert cell.candidate.fc == pytest.approx(fc, rel=1e-6, abs=1e-9)
            assert cell.candidate.fp == pytest.approx(fp, rel=1e-6, abs=1e-9)
            assert cell.candidate.score == pytest.approx(
                burst_score(fc, fp, det.query.alpha), rel=1e-6, abs=1e-9
            )

        self._run_checking(detector, windows, make_objects(70, seed=55, extent=5.0), check)

    def test_cell_membership_matches_geometry(self, detector_and_windows):
        """Every stored rectangle genuinely overlaps its cell, and vice versa."""
        detector, windows = detector_and_windows

        def check(det, key, cell, seen):
            bounds = cell.bounds
            for rect, row in zip(unclipped_rows(det, seen, cell), cell.rects):
                assert Rect(rect.min_x, rect.min_y, rect.max_x, rect.max_y).intersects(bounds)
                # ... and the row is that rectangle clipped to the cell.
                assert (row.min_x, row.min_y) == (
                    max(rect.min_x, bounds.min_x), max(rect.min_y, bounds.min_y)
                )
                assert (row.max_x, row.max_y) == (
                    min(rect.max_x, bounds.max_x), min(rect.max_y, bounds.max_y)
                )
                assert row.weight == rect.weight
            # Rows are in arrival order with the past window's first (FIFO).
            assert cell.ids == sorted(cell.ids)
            labels = [row.in_current for row in cell.rects]
            assert labels == sorted(labels) and cell.grown == labels.count(False)

        self._run_checking(detector, windows, make_objects(60, seed=56, extent=5.0), check)

    def test_global_result_is_max_over_cells(self, detector_and_windows):
        """The reported score equals the maximum true cell score."""
        detector, windows = detector_and_windows
        seen = {}
        for index, obj in enumerate(make_objects(60, seed=57, extent=5.0)):
            seen[obj.object_id] = obj
            for event in windows.observe(obj):
                detector.process(event)
            if index % 5:
                continue
            true_best = max(
                (
                    cell_true_maximum(detector, seen, cell)
                    for cell in detector.cells.values()
                ),
                default=0.0,
            )
            assert detector.current_score() == pytest.approx(true_best, rel=1e-6, abs=1e-9)
