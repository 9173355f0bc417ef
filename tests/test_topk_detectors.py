"""Unit tests for the top-k detectors (kCCS, kGAPS, kMGAPS)."""

import pytest

from tests.helpers import feed, feed_many, make_objects, scores_close
from repro.core.query import SurgeQuery
from repro.streams.objects import SpatialObject
from repro.streams.windows import SlidingWindowPair
from repro.topk.greedy_brute import greedy_top_k_snapshot
from repro.topk.kccs import CellCSPOTTopK
from repro.topk.kgap import GapSurgeTopK
from repro.topk.kmgap import MGapSurgeTopK


def obj(x, y, timestamp, weight=1.0, object_id=0):
    return SpatialObject(x=x, y=y, timestamp=timestamp, weight=weight, object_id=object_id)


def three_clusters(window=20.0):
    """Three well-separated clusters with decreasing total weight."""
    objects = []
    oid = 0
    for cluster_index, (cx, cy, weight) in enumerate(
        [(0.5, 0.5, 5.0), (10.5, 10.5, 3.0), (20.5, 20.5, 1.0)]
    ):
        for i in range(3):
            objects.append(
                obj(cx + i * 0.1, cy + i * 0.1, oid * 0.1, weight, oid)
            )
            oid += 1
    return objects


class TestKCCS:
    def test_empty_detector(self, topk_query):
        detector = CellCSPOTTopK(topk_query)
        assert detector.result() is None
        assert detector.top_k() == []

    def test_three_clusters_found_in_order(self, topk_query):
        detector = CellCSPOTTopK(topk_query)
        feed(detector, three_clusters(), topk_query.window_length)
        top = detector.top_k(3)
        assert len(top) == 3
        assert [round(r.score, 6) for r in top] == [
            pytest.approx(15.0 / 20.0),
            pytest.approx(9.0 / 20.0),
            pytest.approx(3.0 / 20.0),
        ]

    def test_first_region_matches_single_detector(self, topk_query):
        from repro.core.cell_cspot import CellCSPOT

        objects = make_objects(60, seed=21, extent=6.0)
        topk = CellCSPOTTopK(topk_query)
        single = CellCSPOT(topk_query)
        feed_many([topk, single], objects, topk_query.window_length)
        assert scores_close(topk.current_score(), single.current_score())

    def test_matches_greedy_brute_force_continuously(self, topk_query):
        detector = CellCSPOTTopK(topk_query)
        windows = SlidingWindowPair(topk_query.window_length)
        for index, spatial in enumerate(make_objects(50, seed=22, extent=5.0)):
            for event in windows.observe(spatial):
                detector.process(event)
            if index % 7:
                continue
            expected = greedy_top_k_snapshot(windows.state(), topk_query)
            got = detector.top_k()
            for expected_region, got_region in zip(expected, got):
                assert scores_close(expected_region.score, got_region.score)

    def test_scores_non_increasing(self, topk_query):
        detector = CellCSPOTTopK(topk_query)
        feed(detector, make_objects(50, seed=23, extent=4.0), topk_query.window_length)
        scores = [r.score for r in detector.top_k()]
        assert scores == sorted(scores, reverse=True)

    def test_memo_reuse_reduces_searches(self, topk_query):
        detector = CellCSPOTTopK(topk_query)
        windows = SlidingWindowPair(topk_query.window_length)
        objects = three_clusters()
        for spatial in objects:
            for event in windows.observe(spatial):
                detector.process(event)
        searched_first_pass = detector.stats.cells_searched
        # Far-away light objects do not disturb the top clusters; the memoised
        # per-level candidates are reused and few additional sweeps happen.
        for index in range(100, 110):
            spatial = obj(50.0 + index * 0.01, 50.0, 1.0 + index * 0.001, 0.1, index)
            for event in windows.observe(spatial):
                detector.process(event)
        assert detector.stats.cells_searched <= searched_first_pass + 25

    def test_masked_row_and_excluded_ids_compose(self):
        """Level >= 1 in a cell holding an ulp-degenerate row: the excluded ids
        are filtered out and the degenerate row stays masked."""
        query = SurgeQuery(
            rect_width=0.1, rect_height=0.1, window_length=20.0, alpha=0.5, k=3
        )
        # x + 0.1 == 6.8 is addressed to cell 68 (floor(6.8 / 0.1) == 68) but
        # ends an ulp short of its left edge 68 * 0.1 == 6.800000000000001.
        straggler = obj(6.7, 0.22, 0.0, 4.0, 1)
        first = [obj(6.805, 0.205, 0.1, 5.0, 2), obj(6.806, 0.206, 0.2, 5.0, 3)]
        second = [obj(6.805, 0.1025, 0.3, 3.0, 4), obj(6.806, 0.1026, 0.4, 3.0, 5)]
        detector = CellCSPOTTopK(query)
        windows = SlidingWindowPair(query.window_length)
        for spatial in [straggler, *first, *second]:
            for event in windows.observe(spatial):
                detector.process(event)
        got = detector.top_k()
        expected = greedy_top_k_snapshot(windows.state(), query)
        assert [r.score for r in got] == pytest.approx([r.score for r in expected])
        assert [r.score for r in got] == pytest.approx([0.5, 0.3, 0.2])
        shared = (68, 2)
        assert detector.cells[shared].degenerate == 1
        assert sorted(detector.cells[shared].ids) == [1, 2, 3, 4, 5]
        # Level 1 swept the shared cell without the first cluster, level 2
        # without both; the straggler was never excluded there and never swept.
        assert detector._memos[shared][1][0] == {2, 3}
        assert detector._memos[shared][2] == (frozenset({2, 3, 4, 5}), None)

    @pytest.mark.parametrize(
        "left, right, point",
        [
            ((1.0, 0.25), (2.0, 0.5), None),  # rectangles share the edge x = 2
            ((1.0, 0.0), (2.0, 1.0), (2.0, 1.0)),  # ... or the corner (2, 1)
        ],
    )
    def test_point_on_a_grid_line_excludes_rows_of_neighbour_cells(
        self, topk_query, left, right, point
    ):
        """A bursty point on a grid line is covered by rows clipped to
        zero-width slivers of the cells on either side of the line."""
        objects = [
            obj(10.0, 10.0, 0.0, 10.0, 1),
            obj(*left, 0.1, 4.0, 2),
            obj(*right, 0.2, 4.0, 3),
            obj(20.0, 20.0, 0.3, 3.0, 4),
        ]
        detector = CellCSPOTTopK(topk_query)
        windows = SlidingWindowPair(topk_query.window_length)
        for spatial in objects:
            for event in windows.observe(spatial):
                detector.process(event)
        got = detector.top_k()
        expected = greedy_top_k_snapshot(windows.state(), topk_query)
        assert [r.score for r in got] == pytest.approx([r.score for r in expected])
        # Level 1 is the touching pair, found on the line; with both excluded
        # level 2 is the light object, not half of the pair again.
        assert [r.score for r in got] == pytest.approx([0.5, 0.4, 0.15])
        assert got[1].point.x == 2.0
        if point is not None:
            assert (got[1].point.x, got[1].point.y) == point

    @pytest.mark.parametrize("backend", ["python", "auto"])
    @pytest.mark.parametrize(
        "x, y",
        [
            # y + 0.1 == 6.8: the top edge of cell row 67 (6.7 + 0.1), but
            # floor(6.8 / 0.1) == 68 and 68 * 0.1 == 6.800000000000001, so
            # the level-0 point is addressed to a cell that does not hold it.
            (6.35, 6.7),
            (6.7, 6.35),  # the same line met along x (points keep left edges)
            (6.7, 6.7),
            (1.234, 6.75),
            (7.75, 7.75),
            (1.234, 6.700000000000001),
        ],
    )
    def test_single_object_next_to_an_ulp_shifted_grid_line_is_one_region(
        self, backend, x, y
    ):
        query = SurgeQuery(
            rect_width=0.1, rect_height=0.1, window_length=20.0, alpha=0.5, k=3
        )
        detector = CellCSPOTTopK(query, backend=backend)
        windows = SlidingWindowPair(query.window_length)
        for event in windows.observe(obj(x, y, 0.0, 1.0, 1)):
            detector.process(event)
        got = detector.top_k()
        expected = greedy_top_k_snapshot(windows.state(), query)
        assert len(expected) == 1
        assert [r.score for r in got] == pytest.approx([r.score for r in expected])

    def test_lattice_of_single_objects_never_repeats_a_region(self):
        """Every level excludes the rectangles its own point was scored on,
        wherever the point's coordinates put it relative to the grid lines."""
        for size in (0.1, 0.3, 0.7):
            query = SurgeQuery(
                rect_width=size, rect_height=size, window_length=20.0, alpha=0.5, k=3
            )
            for step in range(120):
                half = step * size / 2
                for x, y in ((1.234, half), (half, 1.234), (half, half)):
                    detector = CellCSPOTTopK(query, backend="python")
                    feed(detector, [obj(x, y, 0.0, 1.0, 1)], query.window_length)
                    assert len(detector.top_k()) == 1, (size, x, y)

    def test_expiration_shrinks_result_list(self, topk_query):
        detector = CellCSPOTTopK(topk_query)
        windows = SlidingWindowPair(topk_query.window_length)
        for spatial in three_clusters():
            for event in windows.observe(spatial):
                detector.process(event)
        assert len(detector.top_k()) == 3
        for event in windows.advance_time(10_000.0):
            detector.process(event)
        assert detector.top_k() == []


class TestKGaps:
    def test_returns_k_best_cells(self, topk_query):
        detector = GapSurgeTopK(topk_query)
        feed(detector, three_clusters(), topk_query.window_length)
        top = detector.top_k()
        assert len(top) == 3
        scores = [r.score for r in top]
        assert scores == sorted(scores, reverse=True)

    def test_respects_explicit_k(self, topk_query):
        detector = GapSurgeTopK(topk_query)
        feed(detector, three_clusters(), topk_query.window_length)
        assert len(detector.top_k(2)) == 2

    def test_regions_are_grid_cells(self, topk_query):
        detector = GapSurgeTopK(topk_query)
        feed(detector, three_clusters(), topk_query.window_length)
        for result in detector.top_k():
            assert result.region.width == pytest.approx(topk_query.rect_width)
            assert result.region.height == pytest.approx(topk_query.rect_height)

    def test_result_equals_first_of_top_k(self, topk_query):
        detector = GapSurgeTopK(topk_query)
        feed(detector, make_objects(40, seed=24), topk_query.window_length)
        assert detector.result().score == pytest.approx(detector.top_k()[0].score)


class TestKMGaps:
    def test_returns_non_overlapping_regions(self, topk_query):
        detector = MGapSurgeTopK(topk_query)
        feed(detector, make_objects(60, seed=25, extent=6.0), topk_query.window_length)
        top = detector.top_k()
        for i, first in enumerate(top):
            for second in top[i + 1 :]:
                assert not first.region.intersects_interior(second.region)

    def test_never_worse_than_kgaps_on_best_region(self, topk_query):
        kgaps = GapSurgeTopK(topk_query)
        kmgaps = MGapSurgeTopK(topk_query)
        feed_many([kgaps, kmgaps], make_objects(60, seed=26, extent=6.0), 20.0)
        assert kmgaps.current_score() >= kgaps.current_score() - 1e-12

    def test_three_clusters_all_found(self, topk_query):
        detector = MGapSurgeTopK(topk_query)
        feed(detector, three_clusters(), topk_query.window_length)
        top = detector.top_k()
        assert len(top) == 3
        # Each cluster fits inside a cell of at least one of the shifted
        # grids, so each reported score is the full cluster score.
        assert top[0].score == pytest.approx(15.0 / 20.0)
        assert top[1].score == pytest.approx(9.0 / 20.0)
        assert top[2].score == pytest.approx(3.0 / 20.0)
