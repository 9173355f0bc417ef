"""Unit suite for the watermark reorder buffer and the bad-record screen
(the tier that owns both: ``tests/test_streams_ingest.py``)."""

from __future__ import annotations

import pickle
import random
from dataclasses import replace

import pytest

from repro.obs.counters import declared
from repro.streams.objects import SpatialObject
from repro.streams.watermark import (
    IngestStats,
    WatermarkReorderBuffer,
    classify_bad_record,
)


def obj(timestamp: float, object_id: int = 0, **kwargs) -> SpatialObject:
    defaults = dict(x=1.0, y=1.0, weight=1.0)
    defaults.update(kwargs)
    return SpatialObject(timestamp=timestamp, object_id=object_id, **defaults)


def push_all(buffer: WatermarkReorderBuffer, arrivals) -> list[SpatialObject]:
    return [obj for arrival in arrivals for obj in buffer.push(arrival)]


def drain(buffer: WatermarkReorderBuffer, arrivals) -> list[SpatialObject]:
    return push_all(buffer, arrivals) + buffer.flush()


class TestWatermarkReorderBuffer:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_nonpositive_or_nonfinite_lateness(self, bad):
        with pytest.raises(ValueError, match="max_lateness"):
            WatermarkReorderBuffer(bad)

    def test_ordered_stream_passes_through_unchanged(self):
        arrivals = [obj(float(i), i) for i in range(10)]
        buffer = WatermarkReorderBuffer(2.0)
        assert drain(buffer, arrivals) == arrivals
        assert buffer.stats == IngestStats()

    def test_bounded_disorder_emits_exactly_sorted(self):
        rng = random.Random(7)
        clean = [obj(float(i), i) for i in range(50)]
        # Perturb sort keys by less than max_lateness, as the fault
        # injector does: displacement stays within the bound.
        keyed = sorted(
            (o.timestamp + rng.uniform(0.0, 2.0), i, o)
            for i, o in enumerate(clean)
        )
        arrivals = [entry[2] for entry in keyed]
        assert arrivals != clean  # the scramble actually scrambled
        buffer = WatermarkReorderBuffer(2.0)
        assert drain(buffer, arrivals) == clean
        assert buffer.stats.reordered > 0
        assert buffer.stats.late_dropped == 0

    def test_straggler_behind_watermark_is_counted_and_dropped(self):
        buffer = WatermarkReorderBuffer(2.0)
        released = buffer.push(obj(0.0, 0))
        released += buffer.push(obj(10.0, 1))  # watermark -> 8.0: releases id 0
        assert buffer.push(obj(5.0, 2)) == []
        assert buffer.stats.late_dropped == 1
        assert buffer.stats.reordered == 1
        # The straggler is gone: only the two survivors ever come out.
        assert [o.object_id for o in released + buffer.flush()] == [0, 1]

    def test_boundary_is_accept_at_watermark_release_strictly_before(self):
        buffer = WatermarkReorderBuffer(2.0)
        buffer.push(obj(10.0, 1))  # watermark 8.0
        # Exactly at the watermark: accepted (not dropped) but not released.
        assert buffer.push(obj(8.0, 2)) == []
        assert buffer.stats.late_dropped == 0
        released = buffer.push(obj(12.0, 3))  # watermark -> 10.0
        assert [o.object_id for o in released] == [2]  # 8.0 < 10.0; 10.0 held
        assert [o.object_id for o in buffer.flush()] == [1, 3]

    def test_watermark_starts_at_minus_inf_and_never_retreats(self):
        buffer = WatermarkReorderBuffer(1.0)
        assert buffer.watermark == float("-inf")
        buffer.push(obj(5.0, 0))
        assert buffer.watermark == 4.0
        buffer.push(obj(4.5, 1))  # behind max but within bound
        assert buffer.watermark == 4.0

    def test_duplicate_ids_counted_but_both_released(self):
        buffer = WatermarkReorderBuffer(2.0)
        first = obj(0.0, 7)
        again = obj(0.5, 7)
        released = drain(buffer, [first, again])
        assert released == [first, again]
        assert buffer.stats.duplicates_seen == 1

    def test_duplicate_horizon_is_pruned_on_release(self):
        buffer = WatermarkReorderBuffer(1.0)
        buffer.push(obj(0.0, 7))
        buffer.push(obj(100.0, 1))  # releases id 7, pruning its entry
        buffer.push(obj(100.5, 7))  # same id, far outside the horizon
        assert buffer.stats.duplicates_seen == 0

    def test_len_and_pending_sorted_view(self):
        buffer = WatermarkReorderBuffer(10.0)
        buffer.push(obj(3.0, 3))
        buffer.push(obj(1.0, 1))
        buffer.push(obj(2.0, 2))
        assert len(buffer) == 3
        assert buffer.depths()["oldest_held"] == 1.0
        assert [o.object_id for o in buffer.flush()] == [1, 2, 3]
        assert len(buffer) == 0

    def test_pickle_round_trip_resumes_identically(self):
        rng = random.Random(11)
        arrivals = [
            obj(float(i) + rng.uniform(-1.5, 0.0), i) for i in range(1, 40)
        ]
        half = len(arrivals) // 2
        original = WatermarkReorderBuffer(3.0)
        prefix = push_all(original, arrivals[:half])
        clone = pickle.loads(pickle.dumps(original))
        for buffer in (original, clone):
            tail = prefix + drain(buffer, arrivals[half:])
            assert tail == sorted(
                arrivals, key=lambda o: (o.timestamp, o.object_id)
            )
        assert clone.stats == original.stats


class TestClassifyBadRecord:
    def test_well_formed_object_passes(self):
        good = obj(1.0, 1, attributes={"keywords": ("concert",)})
        assert classify_bad_record(good) is None

    def test_non_spatial_object_rejected(self):
        assert "not a SpatialObject" in classify_bad_record({"x": 1.0})
        assert "not a SpatialObject" in classify_bad_record(None)

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("timestamp", float("nan"), "non-finite timestamp"),
            ("x", float("nan"), "non-finite location"),
            ("y", float("inf"), "non-finite location"),
            ("weight", float("inf"), "non-finite weight"),
            ("timestamp", "late", "non-numeric"),
        ],
    )
    def test_non_finite_fields_rejected(self, field, value, expected):
        bad = replace(obj(1.0, 1), **{field: value})
        assert expected in classify_bad_record(bad)

    def test_bad_keywords_rejected(self):
        not_iterable = obj(1.0, 1, attributes={"keywords": 7})
        assert "keywords" in classify_bad_record(not_iterable)
        non_strings = obj(1.0, 1, attributes={"keywords": ("ok", 3)})
        assert "non-string" in classify_bad_record(non_strings)
        # A plain string is a valid (single-keyword) form, not poison.
        assert classify_bad_record(obj(1.0, 1, attributes={"keywords": "ok"})) is None

    def test_non_mapping_attributes_rejected(self):
        bad = replace(obj(1.0, 1), attributes=["keywords"])
        assert "not a mapping" in classify_bad_record(bad)


class TestIngestStats:
    def test_defaults_are_zero(self):
        stats = IngestStats()
        assert all(value == 0 for value in declared(stats).values())

    def test_dict_round_trip(self):
        stats = IngestStats(
            reordered=1,
            late_dropped=2,
            duplicates_seen=3,
            quarantined=4,
            subscriber_errors=5,
        )
        assert IngestStats(**declared(stats)) == stats
        # The order is the stats frame's and /metrics' (see
        # tests/test_metrics_exposition.py for the byte-level pin).
        assert list(declared(stats)) == [
            "reordered",
            "late_dropped",
            "duplicates_seen",
            "quarantined",
            "subscriber_errors",
            "force_released",
            "spill_errors",
            "peak_buffered",
        ]
