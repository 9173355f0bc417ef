"""Unit and integration tests for the tracing tier (``repro.obs``).

Covers the flight recorder's bounds and pickling, the tracer's
disabled-path contract, the thread-local ``activate`` override, the
Chrome ``trace_event`` export, span conservation through the service
(every chunk produces exactly one ``bus.publish`` span and one
``route.bucket`` span per shard), the slow-chunk detector, recorder
survival across checkpoint/restore, the structured JSON log formatter,
and the busy-seconds accounting invariant (per-chunk busy never exceeds
the dispatch wall time; exact under a fake clock), and the declared
counters of :mod:`repro.obs.counters`.
"""

from __future__ import annotations

import io
import itertools
import json
import logging
import pickle
import threading
import time as _time
from dataclasses import dataclass, field
from time import perf_counter

import pytest

from tests.helpers import make_objects
from repro.core.query import SurgeQuery
from repro.obs import (
    DEFAULT_RING_SIZE,
    HISTOGRAM_BOUNDS,
    STAGES,
    FlightRecorder,
    JsonLogFormatter,
    StageAggregate,
    Tracer,
    activate,
    chrome_trace_events,
    current,
    enable_json_logging,
    format_stage_table,
    install,
    write_chrome_trace,
)
from repro.obs.counters import counter, declarations, declared, gauge
from repro.service import QuerySpec, SurgeService
from repro.service.shards import ShardState


def spec(query_id="q", keyword=None, **query_kwargs) -> QuerySpec:
    defaults = dict(rect_width=1.0, rect_height=1.0, window_length=50.0)
    defaults.update(query_kwargs)
    return QuerySpec(
        query_id=query_id,
        query=SurgeQuery(**defaults),
        keyword=keyword,
        backend="python",
    )


@pytest.fixture(autouse=True)
def _no_global_tracer():
    """Every test starts and ends with no process-global tracer."""
    install(None)
    yield
    install(None)


class TestStageAggregate:
    def test_observe_updates_count_total_min_max(self):
        aggregate = StageAggregate()
        for seconds in (0.002, 0.0005, 0.03):
            aggregate.observe(seconds)
        data = aggregate.to_dict()
        assert data["count"] == 3
        assert data["total_seconds"] == pytest.approx(0.0325)
        assert data["min_seconds"] == pytest.approx(0.0005)
        assert data["max_seconds"] == pytest.approx(0.03)

    def test_buckets_are_non_cumulative_log_ladder(self):
        aggregate = StageAggregate()
        # One observation per decade rung, plus one past the last bound.
        aggregate.observe(2e-5)   # (1e-5, 2.5e-5]
        aggregate.observe(2e-3)   # (1e-3, 2.5e-3]
        aggregate.observe(99.0)   # +Inf overflow bucket
        assert len(aggregate.buckets) == len(HISTOGRAM_BOUNDS) + 1
        assert sum(aggregate.buckets) == 3
        assert aggregate.buckets[-1] == 1  # the 99 s observation

    def test_dict_round_trip_and_merge(self):
        a = StageAggregate()
        b = StageAggregate()
        a.observe(0.001)
        b.observe(0.5)
        restored = StageAggregate.from_dict(a.to_dict())
        assert restored.to_dict() == a.to_dict()
        a.merge(b)
        assert a.count == 2
        assert a.max == pytest.approx(0.5)
        assert a.min == pytest.approx(0.001)
        assert sum(a.buckets) == 2

    def test_empty_aggregate_reports_zero_min(self):
        assert StageAggregate().to_dict()["min_seconds"] == 0.0


class TestFlightRecorder:
    def test_ring_is_bounded_and_oldest_first(self):
        recorder = FlightRecorder(ring_size=8)
        for index in range(20):
            recorder.record(("settle", float(index), 0.001, None, index, None))
        spans = recorder.spans()
        assert len(spans) == 8
        assert [span[4] for span in spans] == list(range(12, 20))
        # Aggregates keep counting past the ring bound.
        assert recorder.stage_stats()["settle"]["count"] == 20

    def test_rejects_non_positive_ring(self):
        with pytest.raises(ValueError, match="ring_size"):
            FlightRecorder(ring_size=0)

    def test_drain_spans_empties_the_ring_but_not_the_aggregates(self):
        recorder = FlightRecorder()
        recorder.record(("settle", 0.0, 0.001, None, 0, None))
        assert len(recorder.drain_spans()) == 1
        assert recorder.spans() == []
        assert recorder.stage_stats()["settle"]["count"] == 1

    def test_slow_chunk_capture_is_bounded_and_counted(self):
        recorder = FlightRecorder(slow_chunk_capacity=2)
        for index in range(5):
            count = recorder.record_slow_chunk({"chunk_index": index})
            assert count == index + 1
        assert recorder.slow_chunk_count == 5
        kept = recorder.slow_chunks()
        assert [record["chunk_index"] for record in kept] == [3, 4]

    def test_pickle_round_trip(self):
        recorder = FlightRecorder(ring_size=16)
        recorder.record(("sweep.python", 1.0, 0.002, "shard0", 3, {"rects": 7}))
        recorder.record_slow_chunk({"chunk_index": 3, "wall_seconds": 0.5})
        clone = pickle.loads(pickle.dumps(recorder))
        assert clone.spans() == recorder.spans()
        assert clone.stage_stats() == recorder.stage_stats()
        assert clone.slow_chunk_count == 1
        # The rebuilt lock still serialises writes.
        clone.record(("settle", 2.0, 0.001, None, 4, None))
        assert clone.stage_stats()["settle"]["count"] == 1


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record("settle", 0.0, 1.0)
        with tracer.span("checkpoint"):
            pass
        assert tracer.recorder.spans() == []
        assert tracer.stage_stats() == {}

    def test_record_and_span_context_manager(self):
        tracer = Tracer(enabled=True)
        tracer.record("settle", 1.0, 1.5, lane="bus", chunk=2, meta={"n": 1})
        with tracer.span("checkpoint", meta={"generation": 1}):
            pass
        spans = tracer.recorder.spans()
        assert spans[0] == ("settle", 1.0, 0.5, "bus", 2, {"n": 1})
        stage, _, duration, lane, chunk, meta = spans[1]
        assert stage == "checkpoint"
        assert duration >= 0.0
        assert meta == {"generation": 1}

    def test_rejects_negative_slow_chunk_threshold(self):
        with pytest.raises(ValueError, match="slow_chunk_threshold"):
            Tracer(slow_chunk_threshold=-1.0)

    def test_default_ring_size(self):
        assert Tracer().recorder.ring_size == DEFAULT_RING_SIZE

    def test_taxonomy_covers_the_pipeline(self):
        # The documented stage names the built-in call sites use.
        for stage in (
            "ingest.reorder", "route.bucket", "window.observe",
            "sweep.python", "settle", "checkpoint", "bus.publish",
            "server.pump", "wire.encode", "wire.decode",
        ):
            assert stage in STAGES


class TestCurrentTracer:
    def test_install_and_clear(self):
        tracer = Tracer()
        install(tracer)
        assert current() is tracer
        install(None)
        assert current() is None

    def test_activate_overrides_thread_locally(self):
        global_tracer = Tracer()
        shard_tracer = Tracer()
        install(global_tracer)
        seen_inside = {}

        def worker():
            with activate(shard_tracer):
                seen_inside["worker"] = current()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen_inside["worker"] is shard_tracer
        # The override never leaked to this thread.
        assert current() is global_tracer

    def test_activate_restores_previous_override(self):
        outer, inner = Tracer(), Tracer()
        with activate(outer):
            with activate(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None


class TestChromeExport:
    def test_events_are_rebased_and_laned(self):
        spans = [
            ("route.bucket", 10.0, 0.001, "shard0", 0, None),
            ("settle", 10.002, 0.003, "shard1", 0, {"queries": 2}),
            ("bus.publish", 10.006, 0.0005, "bus", 0, None),
        ]
        payload = chrome_trace_events(spans)
        events = payload["traceEvents"]
        complete = [event for event in events if event["ph"] == "X"]
        metadata = [event for event in events if event["ph"] == "M"]
        assert len(complete) == 3
        assert min(event["ts"] for event in complete) == 0.0
        assert complete[1]["args"] == {"chunk": 0, "queries": 2}
        assert complete[0]["cat"] == "route"
        lanes = {event["args"]["name"]: event["tid"] for event in metadata}
        assert set(lanes) == {"shard0", "shard1", "bus"}
        # One distinct tid per lane, matching the complete events.
        assert {event["tid"] for event in complete} == set(lanes.values())

    def test_write_chrome_trace_round_trips(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record(("settle", 0.0, 0.001, None, 0, None))
        out = tmp_path / "nested" / "trace.json"
        assert write_chrome_trace(out, recorder) == 1
        loaded = json.loads(out.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert loaded["traceEvents"][0]["name"] == "settle"

    def test_format_stage_table(self):
        recorder = FlightRecorder()
        recorder.record(("settle", 0.0, 0.002, None, 0, None))
        table = format_stage_table(recorder.stage_stats())
        assert "settle" in table and "count" in table
        assert format_stage_table({}) == "no spans recorded"


class TestServiceTracing:
    def _run_service(self, executor: str, chunks: int = 5, shards: int = 2):
        tracer = Tracer(enabled=True)
        objects = make_objects(chunks * 40, seed=3)
        service = SurgeService(
            [spec("a"), spec("b", rect_width=2.0)],
            shards=shards,
            executor=executor,
            tracer=tracer,
        )
        with service:
            for start in range(0, len(objects), 40):
                service.push_many(objects[start : start + 40])
        return tracer, service

    def test_span_conservation_serial(self):
        chunks, shards = 5, 2
        tracer, _ = self._run_service("serial", chunks=chunks, shards=shards)
        stats = tracer.stage_stats()
        # Exactly one publish per chunk and one routing pass per shard per
        # chunk — span counts conserve against the work actually done.
        assert stats["bus.publish"]["count"] == chunks
        assert stats["route.bucket"]["count"] == chunks * shards
        assert stats["window.observe"]["count"] >= chunks
        assert stats["settle"]["count"] >= chunks
        assert "sweep.python" in stats
        for data in stats.values():
            assert data["count"] == sum(data["buckets"])
            assert data["total_seconds"] >= 0.0

    def test_process_executor_spans_carry_shard_lanes(self):
        tracer, _ = self._run_service("process", chunks=3)
        lanes = {span[3] for span in tracer.recorder.spans()}
        assert {"shard0", "shard1", "bus"} <= lanes
        # Worker spans crossed the pipe with each reply and were rebased
        # onto this process's clock.
        stats = tracer.stage_stats()
        assert stats["route.bucket"]["count"] == 3 * 2

    def test_stage_stats_identical_across_executors(self):
        serial_stats = self._run_service("serial", chunks=3)[0].stage_stats()
        process_stats = self._run_service("process", chunks=3)[0].stage_stats()
        assert {
            stage: data["count"] for stage, data in serial_stats.items()
        } == {stage: data["count"] for stage, data in process_stats.items()}

    def test_untraced_service_records_nothing(self):
        service = SurgeService([spec("a")], shards=1)
        with service:
            service.push_many(make_objects(64, seed=1))
            assert service.tracer is None
            assert service.stage_stats() == {}

    def test_slow_chunk_detector_captures_tree_and_depths(self, caplog):
        tracer = Tracer(enabled=True, slow_chunk_threshold=0.0)
        service = SurgeService([spec("a")], shards=1, tracer=tracer)
        with service, caplog.at_level(logging.WARNING, logger="repro.service"):
            for start in range(0, 120, 40):
                service.push_many(make_objects(120, seed=2)[start : start + 40])
        assert tracer.recorder.slow_chunk_count == 3
        captures = tracer.recorder.slow_chunks()
        assert [record["chunk_index"] for record in captures] == [0, 1, 2]
        for record in captures:
            assert record["wall_seconds"] > 0.0
            assert record["threshold_seconds"] == 0.0
            assert "queue_depth_chunks" in record["depths"]
            assert any(span[0] == "settle" for span in record["spans"])
        slow_logs = [r for r in caplog.records if "slow chunk" in r.getMessage()]
        assert len(slow_logs) == 3
        assert slow_logs[-1].slow_chunks == 3

    def test_recorder_survives_checkpoint_restore(self, tmp_path):
        tracer = Tracer(enabled=True)
        service = SurgeService(
            [spec("a")], shards=1, checkpoint_dir=tmp_path, tracer=tracer
        )
        with service:
            service.push_many(make_objects(80, seed=4))
            before = tracer.stage_stats()
            service.checkpoint()
        assert before["bus.publish"]["count"] >= 1

        fresh = Tracer(enabled=True)
        restored = SurgeService.restore(tmp_path, tracer=fresh)
        with restored:
            after = fresh.stage_stats()
            # The pre-crash latency history came back with the checkpoint
            # (the checkpoint span itself lands after the snapshot is
            # written, so it is deliberately not part of it).
            assert after["bus.publish"]["count"] == before["bus.publish"]["count"]
            assert after["settle"]["count"] == before["settle"]["count"]

    def test_restore_without_tracer_ignores_obs_snapshot(self, tmp_path):
        tracer = Tracer(enabled=True)
        service = SurgeService(
            [spec("a")], shards=1, checkpoint_dir=tmp_path, tracer=tracer
        )
        with service:
            service.push_many(make_objects(40, seed=5))
            service.checkpoint()
        restored = SurgeService.restore(tmp_path)
        with restored:
            assert restored.tracer is None
            assert restored.stage_stats() == {}


class TestBusyAccounting:
    def test_busy_never_exceeds_dispatch_wall(self):
        """Per-chunk sum of busy_seconds stays within the measured wall."""
        service = SurgeService(
            [spec("a"), spec("b", rect_width=2.0), spec("c", window_length=30.0)],
            shards=1,
        )
        objects = make_objects(240, seed=6)
        with service:
            for start in range(0, len(objects), 48):
                started = perf_counter()
                updates = service.push_many(objects[start : start + 48])
                wall = perf_counter() - started
                busy = sum(update.busy_seconds for update in updates)
                assert busy <= wall

    def test_shared_group_accounting_is_exact_under_fake_clock(self, monkeypatch):
        """Group fan-out charges routing + windowing + settle exactly once.

        Two queries share one window group (same window length, no
        keyword) but keep distinct detector units (different rectangles),
        so the chunk takes the group fan-out path: one ``observe_batch``
        for both, then one ``apply_batch`` each.  Under a clock that
        advances exactly 1 s per reading the attribution is deterministic:

        * routing reads the clock twice → 1 s spread over 2 pipelines;
        * the group's window ingest reads twice → 1 s spread over the
          2 group members;
        * each settle reads twice → 1 s charged to its own query;

        so each query's busy is 0.5 + 0.5 + 1.0 = 2.0 s and the shard
        total is exactly routing + observe + both settles = 4.0 s — no
        double-charge of the shared work, and nothing unattributed.
        """
        state = ShardState([spec("a"), spec("b", rect_width=2.0)])
        assert len(state._groups) == 1
        assert sum(len(unit) for unit in state._groups[0].units) == 2
        chunk = make_objects(10, seed=7)

        ticker = itertools.count(start=1.0, step=1.0)
        monkeypatch.setattr(_time, "perf_counter", lambda: next(ticker))
        records = state.handle(("chunk", chunk, 0))

        busy = {}
        for record in records:
            leader, *followers = record.query_ids
            busy[leader] = record.leader_busy
            busy.update(dict.fromkeys(followers, record.follower_busy))
        assert busy["a"] == pytest.approx(2.0)
        assert busy["b"] == pytest.approx(2.0)
        assert sum(busy.values()) == pytest.approx(4.0)


class TestJsonLogging:
    def test_formatter_emits_fields_and_extras(self):
        formatter = JsonLogFormatter()
        logger = logging.getLogger("repro.test.obs")
        record = logger.makeRecord(
            "repro.test.obs", logging.WARNING, __file__, 1,
            "slow chunk %d", (7,), None, extra={"wall_seconds": 0.5},
        )
        payload = json.loads(formatter.format(record))
        assert payload["level"] == "WARNING"
        assert payload["logger"] == "repro.test.obs"
        assert payload["event"] == "slow chunk 7"
        assert payload["wall_seconds"] == 0.5
        assert isinstance(payload["ts"], float)

    def test_formatter_includes_exceptions_and_never_raises(self):
        formatter = JsonLogFormatter()
        logger = logging.getLogger("repro.test.obs")
        import sys
        from pathlib import Path

        try:
            raise RuntimeError("boom")
        except RuntimeError:
            record = logger.makeRecord(
                "repro.test.obs", logging.ERROR, __file__, 1,
                "failed", (), sys.exc_info(),
                extra={"path": Path("/tmp/x")},
            )
        payload = json.loads(formatter.format(record))
        assert "RuntimeError: boom" in payload["exc"]
        assert payload["path"] == "/tmp/x"  # coerced via default=str

    def test_enable_json_logging_covers_the_repro_tree(self):
        stream = io.StringIO()
        handler = enable_json_logging(stream=stream)
        try:
            logging.getLogger("repro.service.service").warning(
                "quarantined record", extra={"reason": "nan_timestamp"}
            )
        finally:
            logging.getLogger("repro").removeHandler(handler)
        payload = json.loads(stream.getvalue().strip())
        assert payload["logger"] == "repro.service.service"
        assert payload["reason"] == "nan_timestamp"


@dataclass
class _Record:
    hits: int = counter("Hits.")
    seconds: float = counter("Seconds.", 0.0)
    level: float = gauge("Level.", 0.5)
    live: list = field(default_factory=list)


class TestDeclaredCounters:
    def test_declarations_carry_kind_help_and_default_in_field_order(self):
        assert declarations(_Record) == (
            ("hits", "counter", "Hits.", 0),
            ("seconds", "counter", "Seconds.", 0.0),
            ("level", "gauge", "Level.", 0.5),
        )

    def test_declared_reads_live_values_and_skips_undeclared_fields(self):
        record = _Record(hits=3, live=["x"])
        record.seconds += 1.5
        assert declared(record) == {"hits": 3, "seconds": 1.5, "level": 0.5}
        assert _Record(**declared(record), live=["x"]) == record
