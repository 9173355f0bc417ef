"""Overload-graceful service: backpressure, shedding, and re-epoching.

Three layers of the overload tier, each with its own contract:

* **Backpressure** — bounded :class:`~repro.service.bus.Subscription`
  queues (block / drop_oldest / evict) bound bus memory whatever the
  consumer does, and ``SurgeService(max_inflight_chunks=)`` bounds the
  ingest tier's buffered backlog through any flash crowd.
* **Load shedding** — queue-depth watermarks flip the service into a
  counted degraded mode with hysteresis; the ``shed`` policy skips whole
  route classes below a priority threshold (never a partial shared window
  group), ``stretch`` defers checkpoints, ``error`` raises the typed
  :class:`~repro.service.overload.OverloadError`.
* **Re-epoching / compaction** — :meth:`SurgeService.compact` merges
  late-registered duplicate queries back into existing shared window
  groups once their windows converge, restoring sharing after churn with
  results **bit-identical** to both the uncompacted churned run and the
  independent-monitor oracle (``tests/helpers.replay_oracle`` with the late
  registration scheduled), across every executor and through
  checkpoint/restore.
"""

from __future__ import annotations

import logging
import pickle
import threading
from dataclasses import replace

import pytest

from repro.core.query import SurgeQuery
from repro.obs.counters import declared
from repro.service import (
    OverloadConfig,
    OverloadError,
    OverloadStats,
    QuerySpec,
    SurgeService,
)
from repro.service.bus import QueryStats, QueryUpdate, ResultBus, Subscription
from repro.service.overload import OVERLOAD_POLICIES, OverloadGovernor
from repro.state import CheckpointPolicy
from repro.state.recovery import read_manifest
from repro.streams.watermark import WatermarkReorderBuffer

from tests.helpers import replay_oracle, result_key, result_keys
from tests.test_service_robustness import make_clean, make_specs, replay

EXECUTOR_GRID = [("serial", 1), ("serial", 2), ("process", 2)]


def make_update(query_id: str = "q", chunk_index: int = 0, **kw) -> QueryUpdate:
    return QueryUpdate(
        query_id=query_id,
        chunk_index=chunk_index,
        result=None,
        objects_routed=1,
        busy_seconds=0.0,
        **kw,
    )


def grid_specs(priorities: dict[str, int] | None = None) -> list[QuerySpec]:
    """Four queries over two route classes: (concert, 8s) and (parade, 8s)."""
    query = SurgeQuery(1.5, 1.5, window_length=8.0, alpha=0.5)
    specs = [
        QuerySpec(query_id="c1", query=query, keyword="concert", backend="python"),
        QuerySpec(query_id="c2", query=query, keyword="concert", backend="python"),
        QuerySpec(query_id="p1", query=query, keyword="parade", backend="python"),
        QuerySpec(query_id="p2", query=query, keyword="parade", backend="python"),
    ]
    if priorities:
        specs = [
            replace(spec, priority=priorities.get(spec.query_id, 0))
            for spec in specs
        ]
    return specs


# ---------------------------------------------------------------------------
# OverloadConfig / OverloadStats plumbing
# ---------------------------------------------------------------------------
class TestOverloadConfig:
    def test_round_trip(self):
        config = OverloadConfig(
            high_watermark_chunks=6.0,
            low_watermark_chunks=1.5,
            policy="stretch",
            shed_below_priority=3,
            checkpoint_stretch=8,
        )
        assert OverloadConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "kw",
        [
            {"policy": "nope"},
            {"high_watermark_chunks": 0.0},
            {"high_watermark_chunks": 2.0, "low_watermark_chunks": 3.0},
            {"low_watermark_chunks": -1.0},
            {"checkpoint_stretch": 0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            OverloadConfig(**kw)

    def test_policies_are_closed(self):
        assert set(OVERLOAD_POLICIES) == {"shed", "stretch", "error"}

    def test_stats_round_trip_excludes_live_shed_set(self):
        stats = OverloadStats(
            degraded=True,
            entered_degraded=2,
            exited_degraded=1,
            chunks_shed=7,
            updates_shed=14,
            checkpoints_deferred=3,
            compactions=1,
            queries_compacted=2,
            max_depth_chunks=9.5,
            shedding=["a", "b"],
        )
        loaded = OverloadStats.from_dict(declared(stats))
        assert loaded.shedding == []  # recomputed live, never persisted
        assert loaded == replace(stats, shedding=[])


class TestOverloadGovernor:
    """The state machine on its own: no service, no executor, no stream."""

    def test_hysteresis_and_whole_class_shedding(self):
        specs = grid_specs({"c1": 0, "c2": 0, "p1": 5, "p2": 5})
        governor = OverloadGovernor(
            OverloadConfig(high_watermark_chunks=4.0, low_watermark_chunks=1.0)
        )
        assert governor.evaluate(3.9, specs) == frozenset()
        assert governor.evaluate(4.0, specs) == {"c1", "c2"}
        # Inside the dead band the mode holds; the low watermark leaves it.
        assert governor.evaluate(1.5, specs) == {"c1", "c2"}
        assert governor.stats.shedding == ["c1", "c2"]
        assert governor.evaluate(1.0, specs) == frozenset()
        stats = governor.stats
        assert (stats.entered_degraded, stats.exited_degraded) == (1, 1)
        assert stats.max_depth_chunks == 4.0 and stats.shedding == []

    def test_shed_set_is_cached_until_the_registry_changes(self):
        governor = OverloadGovernor(
            OverloadConfig(high_watermark_chunks=1.0, low_watermark_chunks=0.5)
        )
        specs = grid_specs({"c1": 0, "c2": 0, "p1": 5, "p2": 5})
        assert governor.evaluate(2.0, specs) == {"c1", "c2"}
        promoted = grid_specs({"c1": 0, "c2": 5, "p1": 5, "p2": 5})
        assert governor.evaluate(2.0, promoted) == {"c1", "c2"}  # stale cache
        governor.registry_changed()
        assert governor.evaluate(2.0, promoted) == frozenset()

    def test_error_policy_raises_on_entry_and_counts_it(self):
        governor = OverloadGovernor(
            OverloadConfig(high_watermark_chunks=2.0, policy="error")
        )
        with pytest.raises(OverloadError) as excinfo:
            governor.evaluate(2.5, grid_specs())
        assert excinfo.value.depth_chunks == 2.5
        assert governor.stats.entered_degraded == 1

    def test_stretch_defers_only_while_degraded(self):
        governor = OverloadGovernor(
            OverloadConfig(
                high_watermark_chunks=2.0, policy="stretch", checkpoint_stretch=3
            )
        )
        asked: list[int] = []

        def due_when_stretched(factor: int) -> bool:
            asked.append(factor)
            return False

        assert not governor.defers_checkpoint(due_when_stretched)
        governor.evaluate(2.0, grid_specs())
        assert governor.defers_checkpoint(due_when_stretched)
        assert not governor.defers_checkpoint(lambda factor: True)
        assert asked == [3] and governor.stats.checkpoints_deferred == 1

    def test_unconfigured_governor_only_counts_compactions(self):
        governor = OverloadGovernor()
        assert governor.evaluate(1e9, grid_specs()) == frozenset()
        assert not governor.defers_checkpoint(lambda factor: False)
        governor.count_compaction(2)
        assert governor.stats == OverloadStats(compactions=1, queries_compacted=2)

    def test_restored_stats_continue(self):
        recorded = OverloadStats(degraded=True, entered_degraded=3, chunks_shed=9)
        governor = OverloadGovernor(
            OverloadConfig(high_watermark_chunks=8.0, low_watermark_chunks=2.0),
            OverloadStats.from_dict(declared(recorded)),
        )
        specs = grid_specs({"c1": 0, "c2": 0, "p1": 5, "p2": 5})
        # Still above the low watermark: keeps shedding without re-entering.
        assert governor.evaluate(3.0, specs) == {"c1", "c2"}
        governor.count_shed(2)
        assert governor.stats.entered_degraded == 3
        assert (governor.stats.chunks_shed, governor.stats.updates_shed) == (10, 2)


# ---------------------------------------------------------------------------
# Bounded subscriptions (the bus tier)
# ---------------------------------------------------------------------------
class TestSubscriptionBounds:
    def test_drop_oldest_bounds_depth_and_counts(self):
        sub = Subscription(maxsize=3, policy="drop_oldest")
        dropped = []
        for index in range(10):
            dropped.extend(sub._offer(make_update(chunk_index=index)))
        assert sub.depth == 3
        assert sub.peak_depth == 3
        assert sub.dropped == 7 == len(dropped)
        assert [u.chunk_index for u in sub.drain()] == [7, 8, 9]
        assert sub.offered == sub.delivered + sub.dropped + sub.depth

    def test_zero_capacity_drop_oldest_drops_everything(self):
        sub = Subscription(maxsize=0, policy="drop_oldest")
        for index in range(5):
            assert sub._offer(make_update(chunk_index=index)) == ["q"]
        assert sub.depth == 0
        assert sub.dropped == 5
        assert sub.offered == sub.delivered + sub.dropped + sub.depth

    def test_zero_capacity_block_rejected(self):
        with pytest.raises(ValueError, match="zero-capacity"):
            Subscription(maxsize=0, policy="block")

    def test_negative_maxsize_and_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="maxsize"):
            Subscription(maxsize=-1, policy="drop_oldest")
        with pytest.raises(ValueError, match="policy"):
            Subscription(maxsize=1, policy="latest")

    def test_block_timeout_raises_typed_overload_error(self):
        sub = Subscription(maxsize=1, policy="block", block_timeout=0.01)
        sub._offer(make_update(chunk_index=0))
        with pytest.raises(OverloadError) as excinfo:
            sub._offer(make_update(chunk_index=1))
        assert excinfo.value.depth_chunks == 1.0
        assert isinstance(excinfo.value, RuntimeError)

    def test_block_waits_for_consumer(self):
        sub = Subscription(maxsize=1, policy="block", block_timeout=5.0)
        sub._offer(make_update(chunk_index=0))
        got = []

        def consume():
            got.append(sub.get(timeout=5.0))

        thread = threading.Thread(target=consume)
        thread.start()
        sub._offer(make_update(chunk_index=1))  # must unblock via the get
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got[0].chunk_index == 0
        assert [u.chunk_index for u in sub.drain()] == [1]

    def test_evict_detaches_and_counts(self):
        bus = ResultBus()
        laggard = bus.open_subscription(maxsize=1, policy="evict")
        healthy = bus.open_subscription(maxsize=16, policy="block")
        for index in range(4):
            bus.publish([make_update(chunk_index=index)])
        assert laggard.evicted and laggard.closed
        assert bus.evicted_subscribers == 1
        # The healthy subscription keeps receiving after the eviction.
        assert [u.chunk_index for u in healthy.drain()] == [0, 1, 2, 3]
        assert [u.chunk_index for u in laggard.drain()] == [0]

    def test_zero_capacity_evict_evicts_on_first_publish(self):
        bus = ResultBus()
        sub = bus.open_subscription(maxsize=0, policy="evict")
        bus.publish([make_update()])
        assert sub.evicted
        assert bus.evicted_subscribers == 1
        assert bus.max_queue_depth() == 0

    def test_throwing_callback_and_lagging_subscription_coexist(self):
        # A legacy callback that raises and a bounded laggard must neither
        # kill ingestion nor starve each other.
        bus = ResultBus()

        def bomb(update):
            raise RuntimeError("subscriber bug")

        bus.subscribe(bomb)
        laggard = bus.open_subscription(maxsize=2, policy="drop_oldest")
        for index in range(6):
            bus.publish([make_update(chunk_index=index)])
        assert bus.subscriber_errors == 6
        assert laggard.dropped == 4
        assert [u.chunk_index for u in laggard.drain()] == [4, 5]
        assert bus.stats("q").dropped_results == 4

    def test_drop_counters_survive_export_load_round_trip(self):
        bus = ResultBus()
        bus.open_subscription(maxsize=1, policy="drop_oldest")
        for index in range(5):
            bus.publish([make_update(chunk_index=index)])
        assert bus.stats("q").dropped_results == 4
        exported = bus.export_stats()
        fresh = ResultBus()
        fresh.load_stats(exported)
        assert fresh.stats("q").dropped_results == 4
        # And the QueryStats JSON form itself round-trips the new fields.
        stats = QueryStats(dropped_results=3, chunks_shed=2)
        assert QueryStats.from_dict(declared(stats)) == stats
        # A record is the dataclass's own keyword arguments: v4 manifests
        # always carry every field, and an absent one takes its default.
        legacy = {"objects_routed": 5, "chunks_processed": 1}
        loaded = QueryStats.from_dict(legacy)
        assert loaded.dropped_results == 0 and loaded.chunks_shed == 0

    def test_unsubscribe_closes_and_detaches(self):
        bus = ResultBus()
        sub = bus.open_subscription(maxsize=4, policy="drop_oldest")
        bus.publish([make_update(chunk_index=0)])
        bus.unsubscribe(sub)
        bus.publish([make_update(chunk_index=1)])
        assert sub.closed
        assert [u.chunk_index for u in sub.drain()] == [0]

    def test_never_draining_subscriber_memory_is_bounded(self):
        # The memory-bound property: a subscriber that never drains cannot
        # make the service buffer more than maxsize updates, over any
        # stream length, and the accounting is exact.
        clean = make_clean(400, seed=61)
        with SurgeService(make_specs("ccs")) as service:
            sub = service.bus.open_subscription(maxsize=4, policy="drop_oldest")
            for _ in service.run(iter(clean), chunk_size=8):
                pass  # never drains the subscription
            assert sub.depth <= 4
            assert sub.peak_depth <= 4
            assert sub.offered == sub.delivered + sub.dropped + sub.depth
            assert sub.offered == 2 * 50  # 2 queries x 50 chunks
            per_query = service.stats().per_query
            assert (
                sum(stats.dropped_results for stats in per_query.values())
                == sub.dropped
            )


# ---------------------------------------------------------------------------
# The ingest-side budget (max_inflight_chunks)
# ---------------------------------------------------------------------------
class TestInflightBudget:
    def test_peak_buffered_bounded_through_flash_crowd(self):
        from repro.streams.faults import FaultInjector

        injector = FaultInjector(
            make_clean(300, seed=67),
            seed=67,
            disorder_fraction=0.2,
            max_disorder=2.0,
            flash_crowd_factor=6.0,
        )
        with SurgeService(
            make_specs("ccs"), max_lateness=50.0, max_inflight_chunks=3
        ) as service:
            for _ in service.run(iter(injector), chunk_size=8):
                pass
            ingest = service.ingest_stats()
        assert ingest.peak_buffered <= 3 * 8
        assert ingest.force_released > 0

    def test_sorted_stream_results_unchanged_by_budget(self):
        # Early release only reorders *held-back* arrivals; on an in-order
        # stream results are bit-identical with or without the budget.
        clean = make_clean(120, seed=71)
        expected, _ = replay(make_specs("ccs"), clean, max_lateness=30.0)
        with SurgeService(
            make_specs("ccs"), max_lateness=30.0, max_inflight_chunks=2
        ) as service:
            for _ in service.run(iter(clean), chunk_size=8):
                pass
            got = service.results()
        assert got == expected

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="max_inflight_chunks"):
            SurgeService(make_specs("ccs"), max_inflight_chunks=0)

    def test_force_release_raises_floor_and_drops_stragglers(self):
        buffer = WatermarkReorderBuffer(max_lateness=100.0)
        objects = make_clean(10, seed=73)
        for obj in objects:
            buffer.push(obj)
        released = buffer.force_release(4)
        assert [o.object_id for o in released] == [0, 1, 2, 3]
        assert buffer.stats.force_released == 4
        # A straggler behind the floor is refused even though the watermark
        # alone would admit it.
        straggler = replace(objects[0], object_id=999)
        assert straggler.timestamp < released[-1].timestamp
        assert buffer.push(straggler) == []
        assert buffer.stats.late_dropped == 1
        # In-order arrivals after the floor are unaffected.
        assert buffer.force_release(0) == []

    def test_force_release_counts_survive_pickle(self):
        buffer = WatermarkReorderBuffer(max_lateness=100.0)
        for obj in make_clean(6, seed=79):
            buffer.push(obj)
        buffer.force_release(2)
        clone = pickle.loads(pickle.dumps(buffer))
        assert clone.stats.force_released == 2
        straggler = replace(make_clean(6, seed=79)[0], object_id=999)
        assert clone.push(straggler) == []  # the floor was pickled too


# ---------------------------------------------------------------------------
# Degraded mode: watermarks, hysteresis, policies
# ---------------------------------------------------------------------------
class TestDegradedMode:
    CONFIG = OverloadConfig(
        high_watermark_chunks=1.0, low_watermark_chunks=0.25, policy="shed"
    )

    def run_overloaded(self, specs, *, config=None, chunk_size=8, count=300):
        """A flash-crowd run whose ingest backlog crosses the watermark."""
        from repro.streams.faults import FaultInjector

        injector = FaultInjector(
            make_clean(count, seed=83),
            seed=83,
            flash_crowd_factor=8.0,
        )
        service = SurgeService(
            specs,
            max_lateness=60.0,
            overload=config if config is not None else self.CONFIG,
        )
        with service:
            for _ in service.run(iter(injector), chunk_size=chunk_size):
                pass
            return (
                service.results(),
                service.overload_stats(),
                service.stats().per_query,
            )

    def test_hysteresis_transitions_are_counted(self):
        _, overload, _ = self.run_overloaded(grid_specs())
        assert overload.entered_degraded >= 1
        assert overload.exited_degraded == overload.entered_degraded
        assert overload.max_depth_chunks >= self.CONFIG.high_watermark_chunks
        assert not overload.degraded  # drained by end of stream

    def test_uniform_priorities_shed_nothing(self):
        # The default threshold is the highest priority present: with every
        # query at the same priority there is no lower tier to shed.
        _, overload, per_query = self.run_overloaded(grid_specs())
        assert overload.entered_degraded >= 1
        assert overload.chunks_shed == 0
        assert all(stats.chunks_shed == 0 for stats in per_query.values())

    def test_shed_respects_priority_tiers(self):
        specs = grid_specs({"c1": 0, "c2": 0, "p1": 5, "p2": 5})
        _, overload, per_query = self.run_overloaded(specs)
        assert overload.chunks_shed > 0
        assert per_query["c1"].chunks_shed > 0
        assert per_query["c1"].chunks_shed == per_query["c2"].chunks_shed
        assert per_query["p1"].chunks_shed == 0
        assert per_query["p2"].chunks_shed == 0
        assert overload.updates_shed == sum(
            stats.chunks_shed for stats in per_query.values()
        )

    def test_partial_route_class_is_never_shed(self):
        # c1 is below the threshold but its route-class partner c2 is not:
        # shedding only c1 would desync their shared window group, so the
        # whole class stays live.
        specs = grid_specs({"c1": 0, "c2": 5, "p1": 5, "p2": 5})
        _, overload, per_query = self.run_overloaded(specs)
        assert overload.entered_degraded >= 1
        assert all(stats.chunks_shed == 0 for stats in per_query.values())

    def test_shedding_leaves_survivors_bit_identical(self):
        # The surviving queries' results must be exactly what a run without
        # the overload tier produces — shedding is invisible to survivors.
        specs = grid_specs({"c1": 0, "c2": 0, "p1": 5, "p2": 5})
        results, overload, _ = self.run_overloaded(specs)
        from repro.streams.faults import FaultInjector

        injector = FaultInjector(
            make_clean(300, seed=83), seed=83, flash_crowd_factor=8.0
        )
        expected, _ = replay(specs, injector.materialize(), max_lateness=60.0)
        assert overload.chunks_shed > 0
        assert results["p1"] == expected["p1"]
        assert results["p2"] == expected["p2"]

    def test_explicit_threshold_overrides_default(self):
        config = replace(self.CONFIG, shed_below_priority=10)
        specs = grid_specs({"c1": 0, "c2": 0, "p1": 5, "p2": 5})
        _, overload, per_query = self.run_overloaded(specs, config=config)
        # Everything is below 10, so every route class sheds.
        assert all(stats.chunks_shed > 0 for stats in per_query.values())
        assert overload.chunks_shed > 0

    def test_error_policy_raises_typed_error(self):
        config = replace(self.CONFIG, policy="error")
        with pytest.raises(OverloadError) as excinfo:
            self.run_overloaded(grid_specs(), config=config)
        assert excinfo.value.depth_chunks >= self.CONFIG.high_watermark_chunks

    def test_stretch_policy_defers_checkpoints(self, tmp_path):
        from repro.streams.faults import FaultInjector

        config = replace(self.CONFIG, policy="stretch", checkpoint_stretch=16)
        injector = FaultInjector(
            make_clean(300, seed=83), seed=83, flash_crowd_factor=8.0
        )
        with SurgeService(
            grid_specs(),
            max_lateness=60.0,
            overload=config,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_policy=CheckpointPolicy(every_chunks=2),
        ) as service:
            for _ in service.run(iter(injector), chunk_size=8):
                pass
            overload = service.overload_stats()
        assert overload.entered_degraded >= 1
        assert overload.checkpoints_deferred > 0
        assert overload.chunks_shed == 0  # stretch never sheds

    def test_queue_depth_tracks_bus_backlog_too(self):
        clean = make_clean(60, seed=89)
        with SurgeService(grid_specs(), overload=self.CONFIG) as service:
            sub = service.bus.open_subscription(maxsize=64, policy="drop_oldest")
            for _ in service.run(iter(clean), chunk_size=8):
                pass
            # 8 chunks (last one short) x 4 queries buffered, never
            # drained: depth in chunks is the per-query backlog.
            assert sub.depth == 8 * 4
            assert service.queue_depth_chunks() == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# Re-epoching / compaction after churn
# ---------------------------------------------------------------------------
class TestCompaction:
    CHUNK = 8

    def churn_replay(
        self,
        algorithm: str,
        *,
        compact: bool = True,
        executor: str = "serial",
        shards: int = 1,
        compact_every: int | None = None,
        count: int = 150,
    ):
        """Run with q "late" added mid-stream; optionally compact at the end.

        The late query is an exact duplicate of "kw"'s route class, so once
        its window content converges a compaction pass can re-epoch it into
        the veteran's shared group.
        """
        clean = make_clean(count, seed=97)
        specs = make_specs(algorithm)
        late = replace(specs[0], query_id="late")
        service = SurgeService(
            specs,
            executor=executor,
            shards=shards,
            compact_every_chunks=compact_every,
        )
        with service:
            chunks = 0
            for _ in service.run(iter(clean), chunk_size=self.CHUNK):
                chunks += 1
                if chunks == 3:
                    service.add_query(late)
            merged = service.compact() if compact else 0
            return service.results(), merged, service.overload_stats()

    def assert_equals_churned_oracle(self, results, specs, late, count=150):
        """``results`` == independent monitors, ``late`` started after chunk 3."""
        _, finals, _, _ = replay_oracle(
            make_clean(count, seed=97), specs, self.CHUNK, schedule=[(3, "add", late)]
        )
        assert result_keys(results) == finals

    def test_late_duplicate_merges_and_results_are_bit_identical(self):
        results, merged, overload = self.churn_replay("ccs")
        assert merged == 1
        assert overload.compactions == 1
        assert overload.queries_compacted == 1
        # Compaction must not change any result: compare against the same
        # churned run without the compact pass...
        no_compact, _, _ = self.churn_replay("ccs", compact=False)
        assert results == no_compact
        # ...and against the oracle (every query an independent monitor).
        specs = make_specs("ccs")
        self.assert_equals_churned_oracle(
            results, specs, replace(specs[0], query_id="late")
        )

    @pytest.mark.parametrize("executor, shards", EXECUTOR_GRID)
    def test_compaction_identity_across_executors(self, executor, shards):
        expected, merged, _ = self.churn_replay("ccs")
        got, merged_too, _ = self.churn_replay(
            "ccs", executor=executor, shards=shards
        )
        assert merged == merged_too == 1
        assert got == expected

    @pytest.mark.parametrize("algorithm", ["gaps", "kgaps"])
    def test_impure_exact_duplicate_never_aliases_a_monitor(self, algorithm):
        # Grid-family detectors carry path-dependent float residue, so a
        # late exact duplicate may NOT adopt the veteran's monitor — its
        # unit key collides with the veteran's, and restamping it would
        # alias the two detectors at the next plan rebuild.  It stays
        # unmerged, and results stay exact.
        results, merged, _ = self.churn_replay(algorithm)
        assert merged == 0
        specs = make_specs(algorithm)
        self.assert_equals_churned_oracle(
            results, specs, replace(specs[0], query_id="late")
        )

    @pytest.mark.parametrize("algorithm", ["gaps", "kgaps"])
    def test_impure_compatible_query_merges_at_window_tier(self, algorithm):
        # A *compatible* late query (same route class, different rectangle,
        # hence its own detector unit) re-joins the veteran's shared window
        # group: windows are aliased, monitors stay private — exact for any
        # algorithm, because its own detector continues over an
        # element-wise-equal window object.
        clean = make_clean(150, seed=97)
        specs = make_specs(algorithm)
        compatible = replace(
            specs[0],
            query_id="late",
            query=replace(specs[0].query, rect_width=2.0, rect_height=2.0),
        )

        with SurgeService(specs) as service:
            chunks = 0
            for _ in service.run(iter(clean), chunk_size=self.CHUNK):
                chunks += 1
                if chunks == 3:
                    service.add_query(compatible)
            assert service.compact() == 1
            results = service.results()
        self.assert_equals_churned_oracle(results, specs, compatible)

    def test_compact_is_idempotent(self):
        clean = make_clean(150, seed=97)
        specs = make_specs("ccs")
        late = replace(specs[0], query_id="late")
        with SurgeService(specs) as service:
            chunks = 0
            for _ in service.run(iter(clean), chunk_size=self.CHUNK):
                chunks += 1
                if chunks == 3:
                    service.add_query(late)
            assert service.compact() == 1
            assert service.compact() == 0  # nothing left to merge
            overload = service.overload_stats()
            assert overload.compactions == 2
            assert overload.queries_compacted == 1

    def test_compact_without_churn_is_a_no_op(self):
        clean = make_clean(60, seed=101)
        with SurgeService(make_specs("ccs")) as service:
            for _ in service.run(iter(clean), chunk_size=self.CHUNK):
                pass
            before = service.results()
            assert service.compact() == 0
            assert service.results() == before

    def test_divergent_windows_do_not_merge(self):
        # A query added mid-stream whose window still holds different
        # content than the veteran's must NOT merge: with a window longer
        # than the remaining stream, the veteran retains objects the late
        # query never saw.
        clean = make_clean(40, seed=103)
        query = SurgeQuery(1.5, 1.5, window_length=10_000.0, alpha=0.5)
        specs = [
            QuerySpec(query_id="kw", query=query, keyword="concert", backend="python"),
        ]
        late = replace(specs[0], query_id="late")
        with SurgeService(specs) as service:
            chunks = 0
            for _ in service.run(iter(clean), chunk_size=self.CHUNK):
                chunks += 1
                if chunks == 2:
                    service.add_query(late)
            assert service.compact() == 0

    def test_auto_compaction_restores_sharing(self):
        results, _, overload = self.churn_replay(
            "ccs", compact=False, compact_every=4
        )
        assert overload.compactions > 0
        assert overload.queries_compacted == 1
        manual, _, _ = self.churn_replay("ccs")
        assert results == manual
        # Merged mid-stream, the pipelines kept running as one group: the
        # chunks after the merge must still equal independent monitors.
        specs = make_specs("ccs")
        self.assert_equals_churned_oracle(
            results, specs, replace(specs[0], query_id="late")
        )

    def test_auto_compaction_is_exactly_once_across_restore(self, tmp_path):
        # Compaction fires at fixed chunk offsets, so a crash + replay
        # re-runs the same deterministic passes: counters and results must
        # match the uninterrupted run exactly.
        clean = make_clean(150, seed=97)
        specs = make_specs("ccs")
        late = replace(specs[0], query_id="late")

        expected, _, ref_overload = self.churn_replay(
            "ccs", compact=False, compact_every=4
        )

        doomed = SurgeService(
            specs,
            compact_every_chunks=4,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_policy=CheckpointPolicy(every_chunks=3),
        )
        chunks = 0
        for _ in doomed.run(iter(clean), chunk_size=self.CHUNK):
            chunks += 1
            if chunks == 3:
                doomed.add_query(late)
            if chunks == 10:
                break  # crash: no close, no final checkpoint

        restored = SurgeService.restore(tmp_path / "ckpt")
        assert restored.compact_every_chunks == 4
        with restored:
            for _ in restored.run(
                iter(clean),
                chunk_size=self.CHUNK,
                start_offset=restored.chunk_offset,
            ):
                pass
            got = restored.results()
            got_overload = restored.overload_stats()
        assert got == expected
        assert got_overload.compactions == ref_overload.compactions
        assert got_overload.queries_compacted == ref_overload.queries_compacted

    def test_compact_every_validation(self):
        with pytest.raises(ValueError, match="compact_every_chunks"):
            SurgeService(make_specs("ccs"), compact_every_chunks=0)


# ---------------------------------------------------------------------------
# Durability of the overload tier
# ---------------------------------------------------------------------------
class TestOverloadDurability:
    CONFIG = OverloadConfig(
        high_watermark_chunks=1.0, low_watermark_chunks=0.25, policy="shed"
    )

    def test_manifest_records_and_restores_the_tier(self, tmp_path):
        from repro.streams.faults import FaultInjector

        specs = grid_specs({"c1": 0, "c2": 0, "p1": 5, "p2": 5})
        injector = FaultInjector(
            make_clean(300, seed=83), seed=83, flash_crowd_factor=8.0
        )
        doomed = SurgeService(
            specs,
            max_lateness=60.0,
            overload=self.CONFIG,
            max_inflight_chunks=16,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_policy=CheckpointPolicy(every_chunks=4),
        )
        chunks = 0
        for _ in doomed.run(iter(injector), chunk_size=8):
            chunks += 1
            if chunks == 20:
                break

        manifest = read_manifest(tmp_path / "ckpt")
        assert manifest.overload is not None
        assert manifest.replay["max_inflight_chunks"] == 16
        config = OverloadConfig.from_dict(manifest.replay["overload"])
        assert config == self.CONFIG

        restored = SurgeService.restore(tmp_path / "ckpt")
        assert restored.overload_config == self.CONFIG
        assert restored.max_inflight_chunks == 16
        # The degraded flag and counters continue, not restart.
        recorded = OverloadStats.from_dict(manifest.overload["stats"])
        got = restored.overload_stats()
        assert got.entered_degraded == recorded.entered_degraded
        assert got.chunks_shed == recorded.chunks_shed
        assert restored.degraded == recorded.degraded
        restored.close()

    def test_resume_sheds_exactly_like_the_uninterrupted_run(self, tmp_path):
        from repro.streams.faults import FaultInjector

        specs = grid_specs({"c1": 0, "c2": 0, "p1": 5, "p2": 5})

        def injector():
            return FaultInjector(
                make_clean(300, seed=83), seed=83, flash_crowd_factor=8.0
            )

        with SurgeService(
            specs, max_lateness=60.0, overload=self.CONFIG
        ) as service:
            for _ in service.run(iter(injector()), chunk_size=8):
                pass
            expected = service.results()
            expected_overload = service.overload_stats()

        doomed = SurgeService(
            specs,
            max_lateness=60.0,
            overload=self.CONFIG,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_policy=CheckpointPolicy(every_chunks=4),
        )
        chunks = 0
        for _ in doomed.run(iter(injector()), chunk_size=8):
            chunks += 1
            if chunks == 15:
                break  # crash mid-shedding

        restored = SurgeService.restore(tmp_path / "ckpt")
        with restored:
            for _ in restored.run(
                iter(injector()), chunk_size=8, start_offset=restored.chunk_offset
            ):
                pass
            got = restored.results()
            got_overload = restored.overload_stats()
        assert got == expected
        assert got_overload.chunks_shed == expected_overload.chunks_shed
        assert got_overload.updates_shed == expected_overload.updates_shed
        assert got_overload.entered_degraded == expected_overload.entered_degraded

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_every_manifest_field_round_trips_to_a_public_read_out(
        self, tmp_path, executor
    ):
        """Checkpoint a service with every optional section populated, while
        degraded; the restored one answers every public read-out alike.

        The table below names, per :class:`ServiceManifest` field, the
        read-out that proves it was restored — a field added to the manifest
        without a row here fails the test.
        """
        import dataclasses
        import json

        from repro.obs.tracer import Tracer
        from repro.state.recovery import ServiceManifest, manifest_path
        from repro.streams.faults import FaultInjector

        specs = grid_specs({"c1": 0, "c2": 0, "p1": 5, "p2": 5})
        policy = CheckpointPolicy(every_chunks=1000, every_stream_seconds=1e9)
        victim = SurgeService(
            specs,
            shards=2,
            executor=executor,
            max_lateness=60.0,
            overload=self.CONFIG,
            max_inflight_chunks=16,
            compact_every_chunks=2,
            tracer=Tracer(),
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_policy=policy,
            checkpoint_extra={"note": "round-trip"},
        )
        injector = FaultInjector(
            make_clean(300, seed=83),
            seed=83,
            flash_crowd_factor=8.0,
            disorder_fraction=0.2,
            max_disorder=5.0,
            poison_fraction=0.05,
        )
        with victim:
            for _ in victim.run(iter(injector), chunk_size=8):
                if victim.degraded and victim.overload_stats().chunks_shed >= 3:
                    break
            victim.remove_query("c2")  # registered (4) != len(order) (3)
            victim.server_info = {"host": "127.0.0.1", "port": 7}
            victim.checkpoint()
            assert victim.degraded and victim.ingest_stats().reordered > 0
            assert victim.ingest_stats().quarantined > 0
            assert victim.overload_stats().compactions > 0

            read_outs = {
                "chunk_offset": lambda s: s.chunk_offset,
                "chunk_index": lambda s: s.chunk_index,
                "stream_time": lambda s: s.stream_time,
                "n_shards": lambda s: s.n_shards,
                "executor": lambda s: s.executor_name,
                "order": lambda s: s.query_ids,
                # results() answers only if every shard holds its queries.
                "shard_of": lambda s: sorted(s.results()),
                "specs": lambda s: result_keys(s.results()),
                "policy": lambda s: s.checkpoint_policy,
                "stats": lambda s: (
                    declared(s.stats()),
                    s.stats().per_query,
                    s.ingest_stats().subscriber_errors,
                ),
                "shard_files": lambda s: {
                    query_id: [result_key(region) for region in regions]
                    for query_id, regions in s.top_k().items()
                },
                "replay": lambda s: (
                    s.replay,
                    s.max_lateness,
                    s.overload_config,
                    s.max_inflight_chunks,
                    s.compact_every_chunks,
                ),
                "extra": lambda s: s.checkpoint_extra,
                "ingest": lambda s: (s.strict, s.ingest_stats(), s.raw_consumed),
                "overload": lambda s: (declared(s.overload_stats()), s.degraded),
                "server": lambda s: s.server_info,
                # The recorder is snapshotted inside the checkpoint, so that
                # checkpoint's own span is the one thing it cannot hold.
                "obs": lambda s: (
                    s.tracer.enabled,
                    {k: v for k, v in s.stage_stats().items() if k != "checkpoint"},
                ),
            }
            # Read back through the next registration, after the loop below.
            counters = {"generation", "registered"}
            fields = {field.name for field in dataclasses.fields(ServiceManifest)}
            assert set(read_outs) | counters == fields
            expected = {name: read(victim) for name, read in read_outs.items()}

        record = json.loads(manifest_path(tmp_path / "ckpt").read_text())
        # The no-schema-bump proof: service-manifest/v5's key sets.
        assert record["schema"] == "service-manifest/v5"
        assert set(record) == fields | {"schema"}
        assert set(record["stats"]) == {
            "objects_pushed", "chunks_pushed", "object_query_pairs",
            "wall_seconds", "subscriber_errors", "per_query",
        }
        assert set(record["stats"]["per_query"]["c1"]) == {
            "objects_routed", "chunks_processed", "busy_seconds",
            "last_lag_seconds", "max_lag_seconds", "dropped_results",
            "chunks_shed",
        }
        assert set(record["policy"]) == {"every_chunks", "every_stream_seconds"}
        # The replay-shaping settings live in one section, and only there.
        assert record["replay"] == {
            "chunk_size": 8, "max_lateness": 60.0, "max_inflight_chunks": 16,
            "overload": self.CONFIG.to_dict(), "compact_every_chunks": 2,
        }
        assert set(record["overload"]) == {"stats"}
        assert set(record["replay"]["overload"]) == {
            "high_watermark_chunks", "low_watermark_chunks", "policy",
            "shed_below_priority", "checkpoint_stretch",
        }
        assert set(record["overload"]["stats"]) == {
            "degraded", "entered_degraded", "exited_degraded", "chunks_shed",
            "updates_shed", "checkpoints_deferred", "compactions",
            "queries_compacted", "max_depth_chunks",
        }
        assert set(record["ingest"]) == {"snapshot_file"}
        assert set(record["server"]) == {"host", "port"}
        assert set(record["obs"]) == {
            "snapshot_file", "enabled", "slow_chunk_threshold",
        }

        with SurgeService.restore(tmp_path / "ckpt", tracer=Tracer()) as restored:
            for name, read in read_outs.items():
                assert read(restored) == expected[name], name
            # A registration is durable at once: one generation on, in the
            # round-robin slot after the removed query's (never reused).
            restored.add_query(replace(specs[0], query_id="late"))
            after = read_manifest(tmp_path / "ckpt")
            assert after.generation == record["generation"] + 1
            assert after.registered == 5 and after.shard_of["late"] == 4 % 2

    def test_old_manifest_without_overload_loads_with_tier_off(self, tmp_path):
        clean = make_clean(40, seed=107)
        with SurgeService(
            make_specs("ccs"),
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_policy=CheckpointPolicy(every_chunks=2),
        ) as service:
            for _ in service.run(iter(clean), chunk_size=8):
                pass
            service.checkpoint()
        manifest = read_manifest(tmp_path / "ckpt")
        assert manifest.overload is None  # every counter zero -> not recorded
        assert manifest.replay["overload"] is None
        restored = SurgeService.restore(tmp_path / "ckpt")
        assert restored.overload_config is None
        assert restored.max_inflight_chunks is None
        restored.close()


# ---------------------------------------------------------------------------
# Quarantine spill hardening
# ---------------------------------------------------------------------------
class TestQuarantineSpillHardening:
    def test_unwritable_quarantine_dir_counts_and_continues(
        self, tmp_path, caplog
    ):
        from repro.streams.faults import FaultInjector

        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the quarantine dir should go")
        injector = FaultInjector(
            make_clean(60, seed=109),
            seed=109,
            poison_fraction=0.1,
            poison_kinds=("nan_timestamp", "nan_x"),
        )
        with caplog.at_level(logging.WARNING, logger="repro.service.service"):
            with SurgeService(
                make_specs("ccs"),
                max_lateness=2.0,
                quarantine_dir=blocker,  # mkdir/open will fail: it's a file
            ) as service:
                for _ in service.run(iter(injector), chunk_size=8):
                    pass
                ingest = service.ingest_stats()
                results = service.results()
        assert ingest.quarantined == injector.poisoned > 0
        assert ingest.spill_errors == injector.poisoned
        # Results are what a healthy-quarantine run produces.
        expected, _ = replay(
            make_specs("ccs"), injector.reference(), max_lateness=2.0
        )
        assert results == expected
        # The failure is warned exactly once, not once per record.
        warnings = [
            record
            for record in caplog.records
            if "quarantine" in record.getMessage()
        ]
        assert len(warnings) == 1

    def test_spill_errors_survive_checkpoint_round_trip(self, tmp_path):
        from repro.streams.faults import FaultInjector

        blocker = tmp_path / "blocker"
        blocker.write_text("")
        injector = FaultInjector(
            make_clean(60, seed=109),
            seed=109,
            poison_fraction=0.1,
            poison_kinds=("nan_timestamp",),
        )
        with SurgeService(
            make_specs("ccs"),
            max_lateness=2.0,
            quarantine_dir=blocker,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_policy=CheckpointPolicy(every_chunks=2),
        ) as service:
            for _ in service.run(iter(injector), chunk_size=8):
                pass
            service.checkpoint()
            spilled = service.ingest_stats().spill_errors
        assert spilled > 0
        restored = SurgeService.restore(tmp_path / "ckpt", attach=False)
        assert restored.ingest_stats().spill_errors == spilled
        restored.close()


# ---------------------------------------------------------------------------
# Spec priority plumbing
# ---------------------------------------------------------------------------
class TestSpecPriority:
    def test_priority_round_trips_and_defaults(self):
        spec = make_specs("ccs")[0]
        assert spec.priority == 0
        assert "priority" not in spec.to_dict()  # default stays out of JSON
        ranked = replace(spec, priority=7)
        record = ranked.to_dict()
        assert record["priority"] == 7
        assert QuerySpec.from_dict(record).priority == 7
        assert QuerySpec.from_dict(spec.to_dict()).priority == 0

    def test_priority_does_not_affect_routing_or_results(self):
        clean = make_clean(60, seed=113)
        plain = make_specs("ccs")
        ranked = [replace(spec, priority=9) for spec in plain]
        expected, _ = replay(plain, clean)
        got, _ = replay(ranked, clean)
        assert got == expected
