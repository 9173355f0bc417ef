"""Unit tests for the detector base classes: results and statistics."""

from dataclasses import fields

import pytest

from repro.core.base import DetectorStats, RegionResult
from repro.core.query import SurgeQuery
from repro.geometry.primitives import Point, Rect
from repro.obs.counters import declarations, declared


class TestRegionResult:
    def test_from_point_uses_theorem1_mapping(self):
        query = SurgeQuery(rect_width=2.0, rect_height=1.0, window_length=10.0)
        result = RegionResult.from_point(Point(5.0, 3.0), score=1.5, query=query)
        # The bursty point is the region's top-right corner; the bottom-left
        # corner sits within a float ulp of ``point - extent``, on whichever
        # side makes closed-region membership match CSPOT coverage exactly
        # (region_covering_point; see tests/test_region_edge_tie.py).
        assert (result.region.max_x, result.region.max_y) == (5.0, 3.0)
        assert result.region.min_x == pytest.approx(3.0)
        assert result.region.min_y == pytest.approx(2.0)
        for min_edge, point_coord, extent in (
            (result.region.min_x, 5.0, 2.0),
            (result.region.min_y, 3.0, 1.0),
        ):
            # Minimality: the edge coordinate is covered, one ulp below not.
            import math

            assert min_edge + extent >= point_coord
            assert math.nextafter(min_edge, -math.inf) + extent < point_coord
        assert result.point == Point(5.0, 3.0)
        assert result.score == 1.5

    def test_from_region_uses_top_right_as_point(self):
        region = Rect(0.0, 0.0, 1.0, 1.0)
        result = RegionResult.from_region(region, score=2.0, fc=2.5, fp=0.5)
        assert result.point == Point(1.0, 1.0)
        assert result.fc == 2.5
        assert result.fp == 0.5


class TestDetectorStats:
    def test_defaults_are_zero(self):
        stats = DetectorStats()
        assert stats.events_processed == 0
        assert stats.search_trigger_ratio == 0.0

    def test_search_trigger_ratio(self):
        stats = DetectorStats(events_processed=200, events_triggering_search=25)
        assert stats.search_trigger_ratio == pytest.approx(0.125)

    def test_merge_sums_counters(self):
        a = DetectorStats(events_processed=10, cells_searched=3, rectangles_swept=40)
        b = DetectorStats(events_processed=5, cells_searched=2, sweepline_calls=1)
        merged = a.merge(b)
        assert merged.events_processed == 15
        assert merged.cells_searched == 5
        assert merged.rectangles_swept == 40
        assert merged.sweepline_calls == 1
        # Merge does not mutate its inputs.
        assert a.events_processed == 10
        assert b.cells_searched == 2

    def test_merge_sums_every_declared_counter(self):
        names = [name for name, *_ in declarations(DetectorStats)]
        assert names == [spec.name for spec in fields(DetectorStats)]
        a = DetectorStats(**{name: index for index, name in enumerate(names)})
        b = DetectorStats(**{name: 100 * index for index, name in enumerate(names)})
        assert declared(a.merge(b)) == {
            name: 101 * index for index, name in enumerate(names)
        }


class TestDefaultTopK:
    def test_top_k_defaults_to_single_result(self, small_query):
        from repro.core.cell_cspot import CellCSPOT
        from tests.helpers import feed, make_objects

        detector = CellCSPOT(small_query)
        assert detector.top_k(3) == []
        feed(detector, make_objects(10, seed=1), small_query.window_length)
        top = detector.top_k(5)
        assert len(top) == 1
        assert top[0].score == pytest.approx(detector.current_score())
