"""Unit and structural tests for the shared-work execution plan.

``tests/test_service_differential.py`` proves the shared plan changes no
answer (it is replayed against independent monitors,
``tests/helpers.IndependentMonitors``); this module pins the *mechanics*
that make that safe:

* the inverted routing index routes exactly the objects the per-query
  keyword predicate accepts — multi-keyword objects land in every matching
  bucket once, duplicated keywords on one object do not double-route, and
  unrouted keywords get no bucket at all;
* window groups and detector units share the objects they are supposed to
  share (``is``-level aliasing), and *only* those: different window
  lengths split groups, different rectangles split units within a group,
  and a query registered mid-stream never adopts a group's history (the
  registration-epoch rule);
* group/unit membership survives ``remove_query`` (including removing a
  unit leader) and a checkpoint/restore cycle — including a snapshot whose
  pipelines were stored unaliased (an earlier commit's unshared plan),
  which restore re-aliases;
* the settle-free fast path for empty routes is taken (``chunks_skipped``)
  and still reports the correct result;
* a shard replies one record per detector unit (members in registration
  order) to ``chunk``, shed ``chunk`` and ``advance`` messages, and a
  subscription filter that splits a unit counts exactly what one update
  per query would;
* ``make_query_grid(group_aligned=True)`` produces the documented explicit
  sharing factors, and the default grid is unchanged.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.query import SurgeQuery
from repro.datasets.keywords import keyword_predicate
from repro.service import QuerySpec, QueryUpdate, ResultBus, SurgeService, make_query_grid
from repro.service.shards import ShardState
from repro.streams.objects import SpatialObject
from tests.helpers import IndependentMonitors, result_key, result_keys

KEYWORDS = ("concert", "parade", "zika")


def make_spec(query_id, keyword=None, window=20.0, rect=1.0, algorithm="ccs", **options):
    return QuerySpec(
        query_id=query_id,
        query=SurgeQuery(rect_width=rect, rect_height=rect, window_length=window),
        algorithm=algorithm,
        keyword=keyword,
        backend="python" if algorithm in ("ccs", "kccs") else None,
        options=options,
    )


def make_object(index, t, keywords=()):
    return SpatialObject(
        x=0.5 + (index % 7) * 0.3,
        y=0.5 + (index % 5) * 0.4,
        timestamp=t,
        weight=1.0 + index % 3,
        object_id=index,
        attributes={"keywords": tuple(keywords)} if keywords else {},
    )


def make_keyword_stream(count=120, seed=13):
    rng = random.Random(seed)
    stream, t = [], 0.0
    for index in range(count):
        t += rng.uniform(0.1, 0.6)
        roll = rng.random()
        if roll < 0.15:
            keywords = ()
        elif roll < 0.25:
            # Multi-keyword objects, sometimes with duplicates, sometimes
            # with keywords no query routes on.
            keywords = (
                rng.choice(KEYWORDS),
                rng.choice(KEYWORDS),
                "unrouted-topic",
            )
        else:
            keywords = (rng.choice(KEYWORDS),)
        stream.append(make_object(index, t, keywords))
    return stream


# ---------------------------------------------------------------------------
# Inverted routing index
# ---------------------------------------------------------------------------
class TestInvertedRouting:
    def test_buckets_equal_predicate_filters(self):
        shard = ShardState(
            [make_spec("a", "concert"), make_spec("b", "parade"), make_spec("c", None)]
        )
        chunk = make_keyword_stream()
        buckets = shard._route_chunk(chunk)
        for keyword in ("concert", "parade"):
            predicate = keyword_predicate(keyword)
            assert buckets.get(keyword, []) == [o for o in chunk if predicate(o)]
        # Match-all queries take the chunk itself; no bucket is built for
        # them, nor for keywords nobody routes on.
        assert "unrouted-topic" not in buckets
        assert set(buckets) <= {"concert", "parade"}

    def test_duplicate_keywords_route_once(self):
        shard = ShardState([make_spec("a", "concert")])
        obj = make_object(0, 1.0, ("concert", "concert", "parade"))
        buckets = shard._route_chunk([obj])
        assert buckets["concert"] == [obj]

    def test_bare_string_keywords_route_like_the_predicate(self):
        """A str 'keywords' attribute must route like the per-query predicate.

        The file loaders normalise keywords to tuples, but the public API
        accepts any SpatialObject; the per-query predicate then evaluates
        ``keyword in <str>`` — *substring* membership — and the inverted
        router must replicate exactly that, or the service would answer
        differently from independent monitors for the same input.
        """
        shard = ShardState([make_spec("a", "concert"), make_spec("b", "parade")])
        objs = [
            SpatialObject(
                x=1.0, y=1.0, timestamp=float(i), weight=1.0, object_id=i,
                attributes={"keywords": raw},
            )
            for i, raw in enumerate(
                ["concert-night", "parade", "concerto", "unrelated", ""]
            )
        ]
        buckets = shard._route_chunk(objs)
        for keyword in ("concert", "parade"):
            predicate = keyword_predicate(keyword)
            assert buckets.get(keyword, []) == [o for o in objs if predicate(o)]
        # Substring semantics really did fire: "concerto" contains "concert".
        assert [o.object_id for o in buckets["concert"]] == [0, 2]
        # And end to end: the service's updates equal the oracle's.
        specs = [make_spec("a", "concert"), make_spec("b", "parade")]
        with SurgeService(specs) as service:
            got = {
                u.query_id: (result_key(u.result), u.objects_routed)
                for u in service.push_many(objs)
            }
        assert got == IndependentMonitors(specs).push_many(objs)
        assert got["a"][1] == 2

    def test_no_routed_keywords_builds_nothing(self):
        shard = ShardState([make_spec("all", None)])
        assert shard._route_chunk(make_keyword_stream(20)) == {}

    def test_routed_counts_match_independent_monitors(self):
        stream = make_keyword_stream()
        specs = [
            make_spec("a", "concert"),
            make_spec("b", "concert", window=35.0),
            make_spec("c", "parade"),
            make_spec("d", None),
        ]
        oracle = IndependentMonitors(specs)
        with SurgeService(specs) as service:
            for start in range(0, len(stream), 17):
                service.push_many(stream[start : start + 17])
                oracle.push_many(stream[start : start + 17])
            counts = {
                qid: service.bus.stats(qid).objects_routed
                for qid in service.query_ids
            }
        assert counts == oracle.routed
        predicate = keyword_predicate("concert")
        assert counts["a"] == sum(1 for o in stream if predicate(o))
        assert counts["d"] == len(stream)


# ---------------------------------------------------------------------------
# Plan structure: who shares what
# ---------------------------------------------------------------------------
class TestPlanStructure:
    def test_same_keyword_and_window_share_one_pair(self):
        shard = ShardState(
            [
                make_spec("a", "concert", rect=1.0),
                make_spec("b", "concert", rect=1.5),  # same group, own unit
                make_spec("c", "concert", window=40.0),  # different window
                make_spec("d", "parade"),  # different keyword
            ],
        )
        windows = {qid: p.monitor.windows for qid, p in shard.pipelines.items()}
        assert windows["a"] is windows["b"]
        assert windows["a"] is not windows["c"]
        assert windows["a"] is not windows["d"]
        # Different rectangles: shared windows but private monitors.
        assert shard.pipelines["a"].monitor is not shard.pipelines["b"].monitor

    def test_identical_specs_share_the_monitor(self):
        shard = ShardState(
            [
                make_spec("a", "concert"),
                make_spec("b", "concert"),  # byte-identical spec, new id
                make_spec("c", "concert", algorithm="gaps"),  # same windows only
            ],
        )
        assert shard.pipelines["a"].monitor is shard.pipelines["b"].monitor
        assert shard.pipelines["a"].monitor is not shard.pipelines["c"].monitor
        assert (
            shard.pipelines["a"].monitor.windows
            is shard.pipelines["c"].monitor.windows
        )

    def test_detector_unit_key_identity_and_opt_out(self):
        from repro.service.shards import _detector_unit_key

        a, b = make_spec("a", "concert"), make_spec("b", "concert")
        # Equal specs (ids aside) collapse to the same equality-compared
        # key; any difference that shapes the monitor splits it.
        assert _detector_unit_key(a) == _detector_unit_key(b)
        assert _detector_unit_key(a) != _detector_unit_key(
            make_spec("c", "concert", rect=1.5)
        )
        assert _detector_unit_key(a) != _detector_unit_key(
            make_spec("d", "concert", algorithm="gaps")
        )
        # Unhashable option values decline detector sharing outright
        # (returning None) rather than guessing at equality.
        object.__setattr__(a, "options", {"probe": [1, 2]})
        assert _detector_unit_key(a) is None

    def test_mid_stream_add_starts_its_own_group(self):
        shard = ShardState([make_spec("old", "concert")])
        stream = make_keyword_stream(40)
        shard.handle(("chunk", stream[:20], 0))
        shard.add(make_spec("late", "concert"))
        old, late = shard.pipelines["old"], shard.pipelines["late"]
        # The late query must not adopt the old group's window history...
        assert late.monitor.windows is not old.monitor.windows
        assert late.monitor is not old.monitor
        assert len(late.monitor.windows) == 0
        # ...but two queries registered back to back (same epoch) share.
        shard.add(make_spec("late2", "concert"))
        assert (
            shard.pipelines["late2"].monitor is shard.pipelines["late"].monitor
        )

    def test_remove_unit_leader_keeps_followers_running(self):
        specs = [make_spec(q, "concert") for q in ("a", "b", "c")]
        stream = make_keyword_stream(60)
        oracle = IndependentMonitors(specs)
        with SurgeService(specs) as service:
            service.push_many(stream[:30])
            service.remove_query("a")  # the unit leader
            service.push_many(stream[30:])
            got = result_keys(service.results())
        oracle.push_many(stream[:30])
        oracle.remove("a")
        oracle.push_many(stream[30:])
        assert got == oracle.results()
        assert set(got) == {"b", "c"}


# ---------------------------------------------------------------------------
# Checkpoint round-trip (shard level)
# ---------------------------------------------------------------------------
class TestCheckpointRoundTrip:
    @staticmethod
    def specs():
        return [
            make_spec("a", "concert"),
            make_spec("b", "concert"),
            make_spec("c", "concert", rect=1.5),
        ]

    def roundtrip(self, tmp_path, unalias):
        stream = make_keyword_stream(130)
        source = ShardState(self.specs())
        source.handle(("chunk", stream[:50], 0))
        if unalias:
            # What an earlier commit's unshared plan stored: every pipeline
            # owning private (bit-identical) monitor and window objects.
            for pipeline in source.pipelines.values():
                pipeline.monitor = pickle.loads(pickle.dumps(pipeline.monitor))
        path = tmp_path / "shard.ckpt"
        source.checkpoint(str(path))
        target = ShardState()
        assert target.restore(str(path)) == ["a", "b", "c"]
        return stream, target

    @pytest.mark.parametrize("unalias", [False, True], ids=["aliased", "unaliased"])
    def test_restore_rederives_the_sharing(self, tmp_path, unalias):
        _, target = self.roundtrip(tmp_path, unalias)
        a, b, c = (target.pipelines[q] for q in "abc")
        assert a.monitor is b.monitor
        assert a.monitor.windows is c.monitor.windows
        assert c.monitor is not a.monitor

    @pytest.mark.parametrize("unalias", [False, True], ids=["aliased", "unaliased"])
    def test_roundtrip_continues_identically(self, tmp_path, unalias):
        stream, target = self.roundtrip(tmp_path, unalias)
        uninterrupted = ShardState(self.specs())
        uninterrupted.handle(("chunk", stream[:50], 0))
        got = target.handle(("chunk", stream[50:], 1))
        want = uninterrupted.handle(("chunk", stream[50:], 1))
        assert [
            (r.query_ids, r.objects_routed, result_key(r.result)) for r in got
        ] == [
            (r.query_ids, r.objects_routed, result_key(r.result)) for r in want
        ]
        assert [r.query_ids for r in got] == [("a", "b"), ("c",)]


# ---------------------------------------------------------------------------
# Settle-free fast path for empty routes
# ---------------------------------------------------------------------------
class TestSkipFastPath:
    def test_unmatched_chunks_skip_the_settle(self):
        shard = ShardState(
            [make_spec("hit", "concert"), make_spec("miss", "never-tagged")]
        )
        stream = make_keyword_stream(60)
        n_chunks = 0
        records = []
        for start in range(0, len(stream), 15):
            records += shard.handle(("chunk", stream[start : start + 15], n_chunks))
            n_chunks += 1
        miss = shard.pipelines["miss"]
        assert miss.chunks_skipped == n_chunks
        assert miss.last_result is None
        missed = [r for r in records if r.query_ids == ("miss",)]
        assert len(missed) == n_chunks
        assert all(r.objects_routed == 0 for r in missed)
        # The fast path is still accounted: busy time was measured, not
        # fabricated — it only has to be non-negative and tiny.
        assert 0.0 <= sum(r.leader_busy for r in missed) < 1.0
        assert shard.pipelines["hit"].chunks_skipped < n_chunks
        assert sum(r.objects_routed for r in records if r.query_ids == ("hit",)) > 0

    def test_skipped_chunk_reports_the_previous_result(self):
        spec = make_spec("q", "concert")
        stream = [
            make_object(i, float(i + 1), ("concert",) if i < 10 else ("parade",))
            for i in range(20)
        ]
        with SurgeService([spec]) as service:
            (matched_update,) = service.push_many(stream[:10])
            (skipped_update,) = service.push_many(stream[10:])
        assert matched_update.objects_routed == 10
        assert skipped_update.objects_routed == 0
        # Nothing routed, clock unmoved: the previous settled result object
        # is reported as-is.
        assert skipped_update.result is matched_update.result


# ---------------------------------------------------------------------------
# One reply record per detector unit
# ---------------------------------------------------------------------------
class TestUnitRecords:
    ROUTES = ("concert", "parade", "zika", None)

    def grid(self):
        """4 routes × 2 rects × 2 windows × 4 tenants, tenants outermost so
        a unit's members are interleaved in registration order."""
        return [
            make_spec(f"{route}/{rect}/{window}/t{tenant}", route, window, rect)
            for tenant in range(4)
            for route in self.ROUTES
            for rect in (1.0, 1.5)
            for window in (20.0, 40.0)
        ]

    @staticmethod
    def expected_units(specs):
        units = {}
        for spec in specs:
            units.setdefault((spec.keyword, spec.query), []).append(spec.query_id)
        return sorted(tuple(ids) for ids in units.values())

    def check(self, shard, records, specs):
        assert len(records) == 16
        assert sorted(r.query_ids for r in records) == self.expected_units(specs)
        for record in records:
            for query_id in record.query_ids:
                assert shard.pipelines[query_id].last_result is record.result

    def test_chunk_shed_and_advance_reply_once_per_unit(self):
        specs = self.grid()
        shard = ShardState(specs)
        stream = make_keyword_stream(120)

        records = shard.handle(("chunk", stream[:60], 0))
        self.check(shard, records, specs)
        assert not any(r.shed for r in records)
        for record in records:
            route = shard.pipelines[record.query_ids[0]].spec.keyword
            assert record.objects_routed == sum(
                1 for obj in stream[:60]
                if route is None or route in obj.attributes.get("keywords", ())
            )

        before = {r.query_ids: r.result for r in records}
        shed = frozenset(s.query_id for s in specs if s.keyword == "zika")
        records = shard.handle(("chunk", stream[60:], 1, shed))
        self.check(shard, records, specs)
        for record in records:
            is_shed = set(record.query_ids) <= shed
            assert record.shed == is_shed
            if is_shed:
                assert record.objects_routed == 0
                assert record.result is before[record.query_ids]
                assert record.follower_busy <= record.leader_busy
        assert all(shard.pipelines[q].chunks_skipped == 1 for q in shed)

        records = shard.handle(("advance", stream[-1].timestamp + 30.0, 2))
        self.check(shard, records, specs)
        assert all(r.objects_routed == 0 and r.follower_busy == 0.0 for r in records)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_filter_splitting_a_unit_keeps_per_query_semantics(self, executor):
        """``lead`` and ``follow`` share one unit on shard 0; a bounded
        subscription that takes ``lead`` only must count exactly what a
        bus fed one update per query (the independent-monitor oracle's
        steps) counts."""
        specs = [
            make_spec("lead", "concert"),
            make_spec("other", "parade"),
            make_spec("follow", "concert"),
        ]
        stream = make_keyword_stream(120)
        chunks = [stream[start : start + 20] for start in range(0, len(stream), 20)]
        horizon = stream[-1].timestamp + 30.0
        oracle = IndependentMonitors(specs)
        reference = ResultBus()
        options = dict(maxsize=1, policy="drop_oldest", query_ids={"lead"})
        want_sub = reference.open_subscription(**options)
        with SurgeService(specs, shards=2, executor=executor) as service:
            got_sub = service.bus.open_subscription(**options)
            got_drained, want_drained = [], []
            for chunk_index, chunk in enumerate(chunks):
                service.push_many(chunk)
                reference.publish(
                    QueryUpdate(query_id, chunk_index, key, routed, 0.0)
                    for query_id, (key, routed) in oracle.push_many(chunk).items()
                )
                if chunk_index == 2:
                    got_drained += got_sub.drain()
                    want_drained += want_sub.drain()
            service.advance_time(horizon)
            reference.publish(
                QueryUpdate(query_id, len(chunks), key, 0, 0.0)
                for query_id, key in oracle.advance_time(horizon).items()
            )
            got_drained += got_sub.drain()
            want_drained += want_sub.drain()
            got_stats = service.stats().per_query

        assert got_sub.counters() == want_sub.counters()
        assert got_sub.counters()["dropped"] > 0
        assert [
            (u.query_id, u.chunk_index, result_key(u.result), u.objects_routed, u.shed)
            for u in got_drained
        ] == [
            (u.query_id, u.chunk_index, u.result, u.objects_routed, u.shed)
            for u in want_drained
        ]
        untimed = ("objects_routed", "chunks_processed", "dropped_results", "chunks_shed")
        for spec in specs:
            got, want = got_stats[spec.query_id], reference.stats(spec.query_id)
            assert [getattr(got, f) for f in untimed] == [getattr(want, f) for f in untimed]
        assert got_stats["lead"].dropped_results > 0
        assert got_stats["follow"].dropped_results == 0


# ---------------------------------------------------------------------------
# make_query_grid(group_aligned=...)
# ---------------------------------------------------------------------------
class TestGroupAlignedGrid:
    KEYWORDS = ("k0", "k1", "k2", "k3")

    def sharing_factors(self, specs):
        pairs = {(s.keyword, s.query.window_length) for s in specs}
        triples = {(s.keyword, s.query.window_length, s.query.rect_width) for s in specs}
        return len(specs) / len(pairs), len(specs) / len(triples)

    def test_aligned_grid_enumerates_the_product(self):
        # 4 keywords × 3 rects × 2 windows = 24 distinct triples; at 48
        # queries every spec has exactly one duplicate.
        specs = make_query_grid(
            48,
            keywords=self.KEYWORDS,
            window_multipliers=(1.0, 2.0),
            group_aligned=True,
        )
        window_factor, unit_factor = self.sharing_factors(specs)
        assert window_factor == 48 / 8  # 4 keywords × 2 windows co-occur fully
        assert unit_factor == 2.0
        # Rectangles vary fastest: the first three specs differ only in rect.
        assert {s.keyword for s in specs[:3]} == {"k0"}
        assert len({s.query.rect_width for s in specs[:3]}) == 3

    def test_aligned_prefix_covers_every_pair_before_repeating(self):
        specs = make_query_grid(
            24, keywords=self.KEYWORDS, window_multipliers=(1.0, 2.0),
            group_aligned=True,
        )
        # 24 = 4 × 3 × 2: all triples distinct, no detector sharing yet.
        _, unit_factor = self.sharing_factors(specs)
        assert unit_factor == 1.0

    def test_default_grid_is_unchanged(self):
        aligned = make_query_grid(12, keywords=self.KEYWORDS, group_aligned=True)
        default = make_query_grid(12, keywords=self.KEYWORDS)
        legacy = make_query_grid(12, keywords=self.KEYWORDS)
        assert default == legacy
        assert aligned != default
        # Independent cycles: keyword advances every query.
        assert [s.keyword for s in default[:5]] == ["k0", "k1", "k2", "k3", "k0"]

    def test_grid_ids_and_validation(self):
        specs = make_query_grid(3, keywords=self.KEYWORDS, group_aligned=True)
        assert [s.query_id for s in specs] == ["q000", "q001", "q002"]
        with pytest.raises(ValueError, match="positive"):
            make_query_grid(0, group_aligned=True)


# ---------------------------------------------------------------------------
# Shared plan under advance_time (service level)
# ---------------------------------------------------------------------------
def test_advance_time_matches_independent_monitors():
    specs = [
        make_spec("a", "concert"),
        make_spec("b", "concert"),
        make_spec("c", "concert", rect=1.5),
        make_spec("d", None, window=10.0),
    ]
    # Chunks of ~10s of arrivals separated by 50s quiet gaps, so the
    # between-chunk advance_time (to 22s past the chunk's end) both expires
    # window-10/20 objects *and* stays earlier than the next chunk's first
    # arrival — every advance crosses real deadlines without breaking
    # timestamp order.
    rng = random.Random(31)
    chunks = []
    for chunk_index in range(4):
        base = chunk_index * 60.0
        times = sorted(rng.uniform(0.0, 10.0) for _ in range(18))
        chunks.append(
            [
                make_object(
                    chunk_index * 18 + i, base + t, (rng.choice(KEYWORDS),)
                )
                for i, t in enumerate(times)
            ]
        )
    oracle = IndependentMonitors(specs)
    with SurgeService(specs) as service:
        for chunk in chunks:
            service.push_many(chunk)
            oracle.push_many(chunk)
            advanced = service.advance_time(chunk[-1].timestamp + 22.0)
            assert {
                u.query_id: result_key(u.result) for u in advanced
            } == oracle.advance_time(chunk[-1].timestamp + 22.0)
            assert result_keys(service.results()) == oracle.results()
