"""Unit tests for the multi-query service layer (spec / bus / facade)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from tests.helpers import make_objects
from repro.core.query import SurgeQuery
from repro.service import (
    EXECUTOR_NAMES,
    QuerySpec,
    SurgeService,
    load_query_specs,
    make_executor,
    make_query_grid,
)
from repro.service.bus import QueryStats, QueryUpdate, ResultBus
from repro.service.shards import ShardState
from repro.streams.objects import SpatialObject


def spec(query_id="q", keyword=None, **query_kwargs) -> QuerySpec:
    defaults = dict(rect_width=1.0, rect_height=1.0, window_length=20.0)
    defaults.update(query_kwargs)
    return QuerySpec(
        query_id=query_id,
        query=SurgeQuery(**defaults),
        keyword=keyword,
        backend="python",
    )


class TestQuerySpec:
    def test_rejects_empty_id(self):
        with pytest.raises(ValueError, match="query_id"):
            QuerySpec(query_id="", query=SurgeQuery(1.0, 1.0, 20.0))

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown detector"):
            QuerySpec(
                query_id="q", query=SurgeQuery(1.0, 1.0, 20.0), algorithm="nope"
            )

    def test_keyword_routing_predicate(self):
        concert = SpatialObject(
            x=0, y=0, timestamp=0, attributes={"keywords": ("concert",)}
        )
        plain = SpatialObject(x=0, y=0, timestamp=0)
        assert spec(keyword="concert").matches(concert)
        assert not spec(keyword="concert").matches(plain)
        assert spec(keyword=None).matches(plain)

    def test_dict_round_trip(self):
        original = QuerySpec(
            query_id="concerts",
            query=SurgeQuery(0.5, 0.25, 3600.0, alpha=0.3, k=3),
            algorithm="kccs",
            keyword="concert",
            backend="python",
        )
        assert QuerySpec.from_dict(original.to_dict()) == original

    def test_from_dict_requires_core_fields(self):
        with pytest.raises(ValueError, match="missing the required field"):
            QuerySpec.from_dict({"id": "q", "rect": [1, 1]})
        with pytest.raises(ValueError, match="width, height"):
            QuerySpec.from_dict({"id": "q", "rect": [1], "window": 20})

    def test_load_query_specs(self, tmp_path):
        path = tmp_path / "queries.json"
        path.write_text(
            json.dumps(
                [
                    {"id": "a", "rect": [1, 1], "window": 20},
                    {"id": "b", "rect": [2, 1], "window": 30, "keyword": "x"},
                ]
            )
        )
        specs = load_query_specs(path)
        assert [s.query_id for s in specs] == ["a", "b"]
        assert specs[1].keyword == "x"

    def test_load_query_specs_rejects_duplicates_and_empty(self, tmp_path):
        path = tmp_path / "queries.json"
        path.write_text(json.dumps([]))
        with pytest.raises(ValueError, match="non-empty"):
            load_query_specs(path)
        path.write_text(
            json.dumps(
                [
                    {"id": "a", "rect": [1, 1], "window": 20},
                    {"id": "a", "rect": [1, 1], "window": 20},
                ]
            )
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_query_specs(path)

    def test_make_query_grid_is_deterministic_and_heterogeneous(self):
        grid = make_query_grid(8, base_rect=(1.0, 1.0), base_window=20.0)
        assert [s.query_id for s in grid] == [f"q{i:03d}" for i in range(8)]
        assert grid == make_query_grid(8, base_rect=(1.0, 1.0), base_window=20.0)
        assert len({s.query.rect_width for s in grid}) > 1
        assert len({s.query.window_length for s in grid}) > 1
        with pytest.raises(ValueError):
            make_query_grid(0)


class TestResultBus:
    def update(self, query_id="q", score=None, routed=3, chunk=0):
        result = None
        return QueryUpdate(
            query_id=query_id,
            chunk_index=chunk,
            result=result,
            objects_routed=routed,
            busy_seconds=0.5,
            lag_seconds=0.7,
        )

    def test_latest_and_stats_accumulate(self):
        bus = ResultBus()
        bus.publish([self.update(chunk=0), self.update(chunk=1)])
        assert bus.latest("q").chunk_index == 1
        stats = bus.stats("q")
        assert stats.objects_routed == 6
        assert stats.chunks_processed == 2
        assert stats.busy_seconds == pytest.approx(1.0)
        assert stats.last_lag_seconds == pytest.approx(0.7)
        assert stats.objects_per_second == pytest.approx(6.0)

    def test_subscribers_see_updates_in_order(self):
        bus = ResultBus()
        seen = []
        bus.subscribe(lambda update: seen.append(update.chunk_index))
        bus.publish([self.update(chunk=0)])
        bus.publish([self.update(chunk=1)])
        assert seen == [0, 1]

    def test_forget_drops_query(self):
        bus = ResultBus()
        bus.publish([self.update()])
        bus.forget("q")
        assert bus.latest("q") is None
        assert bus.stats("q") == QueryStats()


class TestShardState:
    def test_add_remove_and_unknown_message(self):
        shard = ShardState([spec("a")])
        shard.add(spec("b"))
        with pytest.raises(ValueError, match="already registered"):
            shard.add(spec("a"))
        shard.remove("a")
        with pytest.raises(KeyError):
            shard.remove("a")
        with pytest.raises(ValueError, match="unknown shard message"):
            shard.handle(("bogus",))


class TestExecutors:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("gpu", [[]])
        with pytest.raises(ValueError, match="at least one shard"):
            make_executor("serial", [])

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_send_and_broadcast(self, name):
        if name == "process":
            pytest.importorskip("multiprocessing")
        options = {}
        if name == "remote":
            # The coordinator waits for its fleet: spawn one local worker
            # instead of expecting an external `repro worker` process.
            options = {"workers": 1, "spawn_workers": 1, "join_timeout": 30.0}
        with make_executor(name, [[spec("a")], [spec("b")]], **options) as executor:
            assert executor.n_shards == 2
            assert executor.send(0, ("results",)) == [("a", None)]
            replies = executor.broadcast(("results",))
            assert replies == [[("a", None)], [("b", None)]]


class TestSurgeService:
    def test_validates_construction(self):
        with pytest.raises(ValueError, match="shards"):
            SurgeService(shards=0)
        with pytest.raises(ValueError, match="unknown executor"):
            SurgeService(executor="gpu")
        # The removed GIL-bound backend is refused with the valid names.
        with pytest.raises(ValueError, match="serial, process, remote"):
            SurgeService(executor="thread")
        with pytest.raises(ValueError, match="already registered"):
            SurgeService([spec("a"), spec("a")])

    def test_round_robin_assignment_survives_removals(self):
        with SurgeService([spec("a"), spec("b"), spec("c")], shards=2) as service:
            assert service._shard_of == {"a": 0, "b": 1, "c": 0}
            service.remove_query("b")
            service.add_query(spec("d"))  # takes slot index 3 -> shard 1
            assert service._shard_of == {"a": 0, "c": 0, "d": 1}
            assert service.query_ids == ["a", "c", "d"]

    def test_refused_registration_does_not_leak_a_round_robin_slot(self):
        # The shard rejects the spec (unknown sweep backend — reachable from
        # a wire `register` frame); later queries must land where they would
        # in a service that never saw the refused one.
        bad = replace(spec("bad"), backend="nope")
        with SurgeService([spec("g0")], shards=2) as service:
            with pytest.raises(ValueError, match="unknown sweep backend"):
                service.add_query(bad)
            service.add_query(spec("g1"))
            service.add_query(spec("g2"))
            assert service._shard_of == {"g0": 0, "g1": 1, "g2": 0}
            assert service.query_ids == ["g0", "g1", "g2"]

    def test_duplicate_and_missing_registration_errors(self):
        with SurgeService([spec("a")]) as service:
            with pytest.raises(ValueError, match="already registered"):
                service.add_query(spec("a"))
            with pytest.raises(KeyError):
                service.remove_query("zzz")
            # The failed add must not leave a half-registered query behind.
            assert service.query_ids == ["a"]
            service.push_many(make_objects(5))

    def test_out_of_order_chunk_rejected(self):
        with SurgeService([spec("a")]) as service:
            service.push(SpatialObject(x=0, y=0, timestamp=10.0, object_id=0))
            with pytest.raises(ValueError, match="out-of-order"):
                service.push(SpatialObject(x=0, y=0, timestamp=5.0, object_id=1))
            with pytest.raises(ValueError, match="backwards"):
                service.advance_time(3.0)

    def test_empty_chunk_is_a_noop_update(self):
        with SurgeService([spec("a")]) as service:
            updates = service.push_many([])
            assert [u.objects_routed for u in updates] == [0]

    def test_updates_come_in_registration_order(self):
        with SurgeService([spec("a"), spec("b"), spec("c")], shards=2) as service:
            updates = service.push_many(make_objects(10))
            assert [u.query_id for u in updates] == ["a", "b", "c"]
            # The gather-barrier lag covers at least the query's own busy time.
            assert all(u.lag_seconds >= 0.0 for u in updates)

    def test_stats_aggregate_object_query_pairs(self):
        with SurgeService([spec("a"), spec("b")]) as service:
            for chunk_start in (0, 10):
                objs = make_objects(20, seed=1)[chunk_start : chunk_start + 10]
                service.push_many(objs)
            stats = service.stats()
            assert stats.objects_pushed == 20
            assert stats.chunks_pushed == 2
            assert stats.object_query_pairs == 40
            assert set(stats.per_query) == {"a", "b"}
            assert stats.pairs_per_second > 0

    def test_results_and_latest_agree(self):
        with SurgeService([spec("a")]) as service:
            service.push_many(make_objects(30, seed=2))
            results = service.results()
            latest = service.latest("a")
            assert latest is not None
            if results["a"] is None:
                assert latest.result is None
            else:
                assert latest.result is not None
                assert latest.result.score == results["a"].score

    def test_close_is_idempotent(self):
        service = SurgeService([spec("a")], executor="process", shards=2)
        service.close()
        service.close()
