"""Unit suite for :class:`~repro.streams.ingest.IngestTier` on its own.

The service-level suites (``test_service_feed``, ``test_service_robustness``,
``test_service_overload``) pin what comes out of the shards; this one pins
the tier's own contract: records in one at a time, ordered chunks out one at
a time, strict mode refusing what a tolerant configuration absorbs, the
budget, the replay prefix, and what survives a pickle.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import replace

import pytest

from repro.obs.tracer import Tracer
from repro.streams.ingest import IngestTier
from repro.streams.objects import SpatialObject
from repro.streams.watermark import IngestStats
from repro.streams.windows import OutOfOrderError

NEVER = float("-inf")


def obj(timestamp: float, object_id: int = 0) -> SpatialObject:
    return SpatialObject(
        x=1.0, y=1.0, timestamp=timestamp, weight=1.0, object_id=object_id
    )


def ordered(count: int) -> list[SpatialObject]:
    return [obj(float(i), i) for i in range(count)]


def pull(tier: IngestTier, records, chunk_size: int) -> list[list[int]]:
    """Drive the tier the way the service does; chunks as id lists."""
    tier.set_chunk_size(chunk_size)
    chunks = []
    for record in records:
        if tier.push(record, NEVER):
            while (chunk := tier.pop_chunk()) is not None:
                chunks.append(chunk)
    while (chunk := tier.pop_chunk(final=True)) is not None:
        chunks.append(chunk)
    return [[o.object_id for o in chunk] for chunk in chunks]


class TestConfiguration:
    def test_validation(self):
        # Lateness and budget are validated once, by the service's
        # ReplaySettings (tests/test_service_replay.py); the tier checks the
        # chunk size its consumer sets.
        with pytest.raises(ValueError, match="positive"):
            IngestTier().set_chunk_size(0)
        assert IngestTier().chunk_size is None

    def test_strict_means_nothing_absorbs(self, tmp_path):
        assert IngestTier().strict
        assert not IngestTier(1.0).strict
        assert not IngestTier(quarantine_dir=tmp_path).strict
        assert not IngestTier(on_bad_record=lambda record, reason: None).strict


class TestStrict:
    def test_cuts_full_chunks_and_a_short_last_one(self):
        tier = IngestTier()
        assert pull(tier, ordered(7), 3) == [[0, 1, 2], [3, 4, 5], [6]]
        assert tier.raw_consumed == 7
        assert len(tier) == 0
        assert tier.stats == IngestStats(peak_buffered=2)

    def test_malformed_record_raises_and_is_counted_consumed(self):
        tier = IngestTier()
        tier.push(obj(1.0), NEVER)
        with pytest.raises(ValueError, match="strict mode.*non-finite timestamp"):
            tier.push(obj(float("nan")), NEVER)
        assert tier.raw_consumed == 2
        assert len(tier) == 1
        assert tier.stats.quarantined == 0

    def test_order_floor_is_the_pending_tail_then_the_clock(self):
        tier = IngestTier()
        with pytest.raises(OutOfOrderError) as raised:
            tier.push(obj(4.0, 9), 5.0)  # nothing pending: the clock rules
        assert raised.value.last_time == 5.0 and raised.value.object_id == 9
        tier.push(obj(6.0), 5.0)
        with pytest.raises(OutOfOrderError) as raised:
            tier.push(obj(5.5), 5.0)  # ahead of the clock, behind the tail
        assert raised.value.last_time == 6.0
        tier.push(obj(6.0, 1), 5.0)  # ties are in order


class TestTolerant:
    def test_resorts_and_cuts_like_the_sorted_stream(self):
        clean = ordered(10)
        arrivals = [clean[i] for i in (1, 0, 2, 4, 3, 5, 7, 6, 9, 8)]
        tier = IngestTier(2.0)
        assert pull(tier, arrivals, 4) == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert tier.stats.reordered == 4
        assert tier.stats.late_dropped == 0

    def test_quarantine_counts_spills_and_calls_back(self, tmp_path):
        seen = []
        tier = IngestTier(
            quarantine_dir=tmp_path / "q",
            on_bad_record=lambda record, reason: seen.append(reason),
        )
        bad = replace(obj(2.0, 7), x=float("inf"))
        assert pull(tier, [obj(1.0, 1), bad, {"raw": 1}, obj(3.0, 3)], 8) == [[1, 3]]
        assert tier.stats.quarantined == 2 and tier.raw_consumed == 4
        assert "non-finite location" in seen[0]
        assert "not a SpatialObject" in seen[1]
        lines = (tmp_path / "q" / "quarantine.jsonl").read_text().splitlines()
        assert [json.loads(line)["reason"] for line in lines] == seen
        assert json.loads(lines[0])["record"]["object_id"] == 7
        # A record whose attributes are not a mapping spills like any other.
        tier.push(replace(obj(4.0, 8), attributes=["keywords"]), NEVER)
        last = (tmp_path / "q" / "quarantine.jsonl").read_text().splitlines()[-1]
        assert json.loads(last)["record"]["attributes"] == ["keywords"]

    def test_unwritable_spill_is_counted_and_warned_once(self, tmp_path, caplog):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        tier = IngestTier(quarantine_dir=blocker / "q")
        tier.push(None, NEVER)
        tier.push(None, NEVER)
        assert tier.stats.spill_errors == 2 and tier.stats.quarantined == 2
        warnings = [r for r in caplog.records if "quarantine spill" in r.message]
        assert len(warnings) == 1

    def test_spans_keep_their_names_lane_and_per_record_count(self):
        tracer = Tracer(enabled=True)
        tier = IngestTier(2.0, tracer=tracer)
        pull(tier, ordered(5) + [None], 4)
        spans = tracer.recorder.spans()
        assert [span[0] for span in spans] == ["ingest.reorder"] * 5 + [
            "ingest.quarantine"
        ]
        assert {span[3] for span in spans} == {"ingest"}


class TestBudget:
    def test_partial_chunk_plus_heap_stay_in_budget_after_every_push(self):
        chunk_size, budget = 4, 2
        tier = IngestTier(1000.0, max_inflight_chunks=budget)
        tier.set_chunk_size(chunk_size)
        released = []
        for record in ordered(50):  # one lateness window: nothing releases
            if tier.push(record, NEVER):
                while (chunk := tier.pop_chunk()) is not None:
                    released += chunk
            assert len(tier) <= budget * chunk_size
        assert released == ordered(len(released)) and released
        assert tier.stats.force_released >= len(released)
        assert tier.stats.peak_buffered <= budget * chunk_size

    def test_depths_name_both_holds(self):
        tier = IngestTier(10.0)
        assert not tier.push(obj(1.0), NEVER)  # held back: no chunk ready
        assert tier.depths()["pending_objects"] == 0
        assert tier.depths()["reorder"]["held_back"] == 1
        assert "reorder" not in IngestTier().depths()


class TestUnconsumed:
    def test_strict_prefix_is_whole_chunks_plus_the_pending_tail(self):
        stream = ordered(20)
        tier = IngestTier()
        tier.set_chunk_size(4)
        for record in stream[:10]:  # two chunks handed out, two records pending
            if tier.push(record, NEVER):
                tier.pop_chunk()
        rest = tier.unconsumed(stream, 4, start_offset=2, chunk_offset=2)
        assert next(rest) is stream[10]
        # A consumer fed bare chunks resumes on chunk arithmetic alone, and
        # a stream that ends inside the prefix (short last chunk) is empty.
        fresh = IngestTier()
        assert next(fresh.unconsumed(iter(stream), 4, 3, 3)) is stream[12]
        assert list(fresh.unconsumed(stream, 4, 6, 6)) == []
        with pytest.raises(ValueError, match="non-negative"):
            fresh.unconsumed(stream, 4, -1, 0)

    def test_screened_prefix_is_the_raw_record_offset(self, tmp_path):
        stream = [obj(0.0, 0), None, obj(1.0, 1), None, obj(2.0, 2), obj(3.0, 3)]
        tier = IngestTier(quarantine_dir=tmp_path)
        tier.set_chunk_size(2)
        for record in stream[:4]:
            if tier.push(record, NEVER):
                tier.pop_chunk()
        assert next(tier.unconsumed(stream, 2, 1, 1)) is stream[4]
        with pytest.raises(ValueError, match="raw records, not chunks"):
            tier.unconsumed(stream, 2, 0, 1)
        with pytest.raises(ValueError, match="shorter than"):
            tier.unconsumed(stream[:3], 2, 1, 1)


class TestPickle:
    def test_state_travels_and_configuration_is_reattached(self, tmp_path):
        tracer = Tracer(enabled=True)
        configured = IngestTier(
            2.0,
            quarantine_dir=tmp_path,
            on_bad_record=lambda record, reason: None,
            max_inflight_chunks=3,
            tracer=tracer,
        )
        arrivals = ordered(9)
        configured.set_chunk_size(4)
        for record in arrivals[:6] + [None]:
            configured.push(record, NEVER)
        clone = pickle.loads(pickle.dumps(configured))
        assert (clone.on_bad_record, clone.quarantine_dir, clone.tracer) == (
            None,
            None,
            None,
        )
        assert not clone.strict and clone.max_inflight_chunks == 3
        assert clone.raw_consumed == 7 and len(clone) == len(configured) == 6
        assert clone.stats == configured.stats
        assert clone.reattach(configured) is clone
        assert clone.quarantine_dir == tmp_path and clone.tracer is tracer
        # The buffer still counts into the tier's one stats object, and the
        # clone continues exactly as the original does.
        for tier in (configured, clone):
            assert pull(tier, [arrivals[7], arrivals[6], arrivals[8]], 4) == [
                [0, 1, 2, 3],
                [4, 5, 6, 7],
                [8],
            ]
        assert clone.stats == configured.stats
        assert clone.stats.reordered == 1
