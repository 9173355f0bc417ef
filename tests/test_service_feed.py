"""``feed``/``flush_pending``: push-style ingestion ≡ one ``run``.

The network tier dispatches whatever batches connections happen to carry,
so the service grew a push-style entry point.  Its contract: interleaving
``feed`` calls (any batch split, including one record at a time) with one
final ``flush_pending`` is **bit-identical** to a single ``run`` over the
concatenated arrivals — chunk boundaries depend only on the arrival
sequence, never on how it was split across calls.  ``run`` *is* ``feed`` +
``flush_pending``: there is one ingest path
(:class:`~repro.streams.ingest.IngestTier`), strict mode refuses on it what
a tolerant configuration absorbs, and a checkpoint taken anywhere on it
restores to an exactly-once continuation.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import replace

import pytest

from repro.core.query import SurgeQuery
from repro.obs.counters import declared
from repro.service import QuerySpec, SurgeService
from repro.state import CheckpointPolicy, read_snapshot
from repro.state.recovery import read_manifest
from repro.streams.faults import FaultInjector
from repro.streams.objects import SpatialObject
from repro.streams.sources import iter_chunks
from repro.streams.windows import OutOfOrderError

MAX_LATENESS = 2.0


def make_clean(count: int, seed: int) -> list[SpatialObject]:
    rng = random.Random(seed)
    t = 0.0
    objects = []
    for index in range(count):
        t += rng.uniform(0.1, 0.6)
        objects.append(
            SpatialObject(
                x=rng.uniform(0.0, 6.0),
                y=rng.uniform(0.0, 6.0),
                timestamp=t,
                weight=rng.uniform(0.5, 5.0),
                object_id=index,
                attributes={"keywords": (rng.choice(("concert", "parade")),)},
            )
        )
    return objects


def make_specs() -> list[QuerySpec]:
    query = SurgeQuery(1.5, 1.5, window_length=8.0, alpha=0.5)
    return [
        QuerySpec(
            query_id="kw", query=query, algorithm="ccs",
            keyword="concert", backend="python",
        ),
        QuerySpec(query_id="all", query=query, algorithm="ccs", backend="python"),
    ]


def run_reference(arrivals, *, chunk_size=8, max_lateness=0.0):
    with SurgeService(make_specs(), max_lateness=max_lateness) as service:
        chunks = [list(updates) for updates in service.run(arrivals, chunk_size)]
        return service.results(), chunks


def split_batches(arrivals, sizes):
    batches, cursor = [], 0
    index = 0
    while cursor < len(arrivals):
        size = sizes[index % len(sizes)]
        batches.append(arrivals[cursor : cursor + size])
        cursor += size
        index += 1
    return batches


class TestStrictFeed:
    @pytest.mark.parametrize("sizes", [(1,), (3, 5, 2), (17,), (64,)])
    def test_feed_equals_run(self, sizes):
        arrivals = make_clean(60, seed=11)
        expected_results, expected_chunks = run_reference(arrivals)
        with SurgeService(make_specs()) as service:
            got_chunks = []
            for batch in split_batches(arrivals, sizes):
                got_chunks.extend(
                    list(updates) for updates in service.feed(batch, 8)
                )
            got_chunks.extend(
                list(updates) for updates in service.flush_pending()
            )
            assert service.results() == expected_results
        # Chunk boundaries (and hence every update) line up exactly.
        assert [
            [(u.query_id, u.chunk_index, u.result) for u in chunk]
            for chunk in got_chunks
        ] == [
            [(u.query_id, u.chunk_index, u.result) for u in chunk]
            for chunk in expected_chunks
        ]

    def test_malformed_record_raises_typed(self):
        with SurgeService(make_specs()) as service:
            with pytest.raises(ValueError, match="strict mode"):
                list(service.feed([{"not": "an object"}], 8))

    def test_out_of_order_raises(self):
        arrivals = make_clean(10, seed=2)
        swapped = [arrivals[3]] + arrivals[:3]
        with SurgeService(make_specs()) as service:
            with pytest.raises(OutOfOrderError):
                list(service.feed(swapped, 8))

    @pytest.mark.parametrize(
        "bad, reason",
        [
            (replace(make_clean(1, seed=0)[0], timestamp=float("nan")), "timestamp"),
            (replace(make_clean(1, seed=0)[0], x=float("inf")), "location"),
            ({"not": "an object"}, "not a SpatialObject"),
        ],
    )
    def test_run_refuses_what_feed_refuses(self, bad, reason):
        """The bug the strict ``iter_chunks`` branch hid: ``run`` let a NaN
        timestamp into the windows (NaN crosses no cutoff, so it never
        expired) while ``feed`` refused the same record."""
        arrivals = make_clean(30, seed=4)
        poisoned = arrivals[:20] + [bad] + arrivals[20:]
        with SurgeService(make_specs()) as fed:
            with pytest.raises(ValueError, match="strict mode") as via_feed:
                list(fed.feed(poisoned, 8))
        with SurgeService(make_specs()) as service:
            with pytest.raises(ValueError, match="strict mode") as via_run:
                list(service.run(poisoned, 8))
            assert str(via_run.value) == str(via_feed.value)
            assert reason in str(via_run.value)
            # Nothing of the offending chunk reached a window: the service
            # stands where the last good chunk left it.
            assert service.chunk_offset == 2
            assert service.stream_time == arrivals[15].timestamp
            assert service.stats().objects_pushed == 16
            expected, _ = run_reference(arrivals[:16])
            assert service.results() == expected

    def test_run_out_of_order_carries_the_offender(self):
        arrivals = make_clean(30, seed=4)
        swapped = arrivals[:12] + [arrivals[13], arrivals[12]] + arrivals[14:]
        with SurgeService(make_specs()) as service:
            with pytest.raises(OutOfOrderError) as raised:
                list(service.run(swapped, 8))
            assert raised.value.object_id == arrivals[12].object_id
            assert raised.value.timestamp == arrivals[12].timestamp
            assert raised.value.last_time == arrivals[13].timestamp
            assert service.chunk_offset == 1

    def test_chunk_size_validated(self):
        with SurgeService(make_specs()) as service:
            with pytest.raises(ValueError, match="positive"):
                list(service.feed([], 0))
            with pytest.raises(ValueError, match="positive"):
                list(service.flush_pending(0))

    def test_flush_without_feed_is_noop(self):
        with SurgeService(make_specs()) as service:
            assert list(service.flush_pending()) == []


class TestTolerantFeed:
    @pytest.mark.parametrize("sizes", [(1,), (5, 9), (23,)])
    def test_disordered_feed_equals_sorted_run(self, sizes):
        clean = make_clean(60, seed=7)
        injector = FaultInjector(
            clean, seed=13, disorder_fraction=0.3, max_disorder=MAX_LATENESS
        )
        expected_results, _ = run_reference(injector.reference())
        arrivals = injector.materialize()
        with SurgeService(make_specs(), max_lateness=MAX_LATENESS) as service:
            for batch in split_batches(arrivals, sizes):
                for _ in service.feed(batch, 8):
                    pass
            for _ in service.flush_pending():
                pass
            assert service.ingest_stats().late_dropped == 0
            assert service.results() == expected_results

    def test_poison_records_quarantined_not_raised(self):
        clean = make_clean(40, seed=5)
        injector = FaultInjector(clean, seed=21, poison_fraction=0.2)
        with SurgeService(make_specs(), max_lateness=MAX_LATENESS) as service:
            for _ in service.feed(injector.materialize(), 8):
                pass
            for _ in service.flush_pending():
                pass
            ingest = service.ingest_stats()
            assert ingest.quarantined == injector.poisoned
        expected_results, _ = run_reference(injector.reference())
        assert service.results() == expected_results


class TestFeedCheckpoint:
    def test_mid_feed_checkpoint_resumes_exactly_once(self, tmp_path):
        arrivals = make_clean(50, seed=9)
        expected_results, _ = run_reference(arrivals, chunk_size=8)
        first = SurgeService(make_specs(), checkpoint_dir=tmp_path)
        # Feed a prefix that leaves a partial chunk pending, checkpoint,
        # and abandon the instance (simulated crash).
        for _ in first.feed(arrivals[:21], 8):
            pass
        first.checkpoint()
        first.close()
        restored = SurgeService.restore(tmp_path)
        with restored as service:
            consumed = service.raw_consumed
            assert consumed == 21
            for _ in service.feed(arrivals[consumed:], 8):
                pass
            for _ in service.flush_pending():
                pass
            assert service.results() == expected_results

    def test_manual_mid_chunk_checkpoint_resumes_through_run(self, tmp_path):
        """Strict mode: the pending partial chunk is tier state, and ``run``
        finds its place from ``start_offset`` chunks plus that remainder."""
        arrivals = make_clean(50, seed=9)
        expected_results, _ = run_reference(arrivals, chunk_size=8)
        first = SurgeService(make_specs())
        for _ in first.feed(arrivals[:21], 8):
            pass
        first.checkpoint(tmp_path)
        first.close()
        with SurgeService.restore(tmp_path, attach=False) as service:
            assert service.chunk_offset == 2
            for _ in service.run(arrivals, 8, start_offset=service.chunk_offset):
                pass
            assert service.raw_consumed == len(arrivals)
            assert service.stats().objects_pushed == len(arrivals)
            assert service.results() == expected_results

    def test_bare_push_many_service_resumes_through_run(self, tmp_path):
        """A strict service fed whole chunks never touches the tier, writes
        no ingest snapshot, and still resumes through ``run(start_offset=)``."""
        arrivals = make_clean(50, seed=9)
        expected_results, _ = run_reference(arrivals, chunk_size=8)
        first = SurgeService(make_specs())
        for chunk in list(iter_chunks(arrivals, 8))[:3]:
            first.push_many(chunk)
        first.checkpoint(tmp_path)
        first.close()
        assert read_manifest(tmp_path).ingest is None
        with SurgeService.restore(tmp_path, attach=False) as service:
            for _ in service.run(arrivals, 8, start_offset=service.chunk_offset):
                pass
            assert service.stats().objects_pushed == len(arrivals)
            assert service.results() == expected_results


# ---------------------------------------------------------------------------
# One path: run ≡ feed + flush_pending ≡ (strict) push_many over iter_chunks
# ---------------------------------------------------------------------------
def update_keys(chunks):
    return [
        [(u.query_id, u.chunk_index, u.result, u.objects_routed) for u in chunk]
        for chunk in chunks
    ]


def end_state(service):
    return (
        service.results(),
        service.chunk_offset,
        service.raw_consumed,
        declared(service.ingest_stats()),
    )


class TestSinglePath:
    MODES = ("strict", "screen", "resort")

    def make_mode(self, mode, tmp_path):
        """``(arrivals, service kwargs)``: each mode with the worst input it
        accepts — clean / poisoned / poisoned, duplicated and disordered."""
        clean = make_clean(60, seed=17)
        if mode == "strict":
            return clean, {}
        if mode == "screen":
            injector = FaultInjector(clean, seed=3, poison_fraction=0.15)
            return injector.materialize(), {"quarantine_dir": tmp_path / "q"}
        injector = FaultInjector(
            clean,
            seed=3,
            poison_fraction=0.1,
            disorder_fraction=0.3,
            max_disorder=MAX_LATENESS / 2,
            duplicate_fraction=0.1,
            duplicate_delay=MAX_LATENESS / 2,
        )
        return injector.materialize(), {"max_lateness": MAX_LATENESS}

    @pytest.mark.parametrize("chunk_size", [1, 7, 500])
    @pytest.mark.parametrize("mode", MODES)
    def test_run_feed_and_bare_chunks_agree(self, mode, chunk_size, tmp_path):
        arrivals, kwargs = self.make_mode(mode, tmp_path)
        with SurgeService(make_specs(), **kwargs) as service:
            ran = update_keys(service.run(arrivals, chunk_size))
            expected = end_state(service)
        assert expected[2] == len(arrivals)
        for sizes in ((1,), (3, 5, 2), (17,), (len(arrivals),)):
            with SurgeService(make_specs(), **kwargs) as service:
                fed = []
                for batch in split_batches(arrivals, sizes):
                    fed += update_keys(service.feed(batch, chunk_size))
                fed += update_keys(service.flush_pending())
                assert end_state(service) == expected
            assert fed == ran
        if mode == "strict":
            # Bare chunks bypass the tier (its counters stay untouched) but
            # must cut and score the stream exactly as it does.
            with SurgeService(make_specs()) as service:
                pushed = update_keys(
                    service.push_many(chunk)
                    for chunk in iter_chunks(arrivals, chunk_size)
                )
                assert (service.results(), service.chunk_offset) == expected[:2]
            assert pushed == ran

    @pytest.mark.parametrize("max_inflight_chunks", [1, 3])
    def test_every_automatic_checkpoint_resumes_exactly_once(
        self, max_inflight_chunks, tmp_path
    ):
        """Checkpoint inside every ``push_many`` of a budgeted flash crowd.

        A chunk leaves the tier only at the moment it is dispatched, so at
        every checkpoint each consumed record is accounted for exactly once
        — delivered, still inside the tier, quarantined or dropped — also
        when one push cut several chunks and the checkpoint landed between
        them.  Restoring any of them and replaying the stream loses and
        duplicates nothing.
        """
        chunk_size = 4
        injector = FaultInjector(
            make_clean(90, seed=23),
            seed=23,
            disorder_fraction=0.2,
            max_disorder=2.0,
            poison_fraction=0.05,
            flash_crowd_factor=8.0,
        )
        arrivals = injector.materialize()
        kwargs = dict(max_lateness=40.0, max_inflight_chunks=max_inflight_chunks)
        with SurgeService(make_specs(), **kwargs) as service:
            for _ in service.run(arrivals, chunk_size):
                pass
            expected = end_state(service)
            expected_pushed = service.stats().objects_pushed
        assert expected[3]["force_released"] > 0

        live = tmp_path / "live"
        doomed = SurgeService(
            make_specs(),
            checkpoint_dir=live,
            checkpoint_policy=CheckpointPolicy(every_chunks=1),
            **kwargs,
        )
        generations = []
        for index, _ in enumerate(doomed.run(arrivals, chunk_size)):
            generations.append(tmp_path / f"gen{index}")
            shutil.copytree(live, generations[-1])
        doomed.close()

        chunks_left_inside = 0
        for directory in generations:
            manifest = read_manifest(directory)
            _, tier = read_snapshot(directory / manifest.ingest["snapshot_file"])
            assert (
                manifest.stats["objects_pushed"]
                + len(tier)
                + tier.stats.quarantined
                + tier.stats.late_dropped
                == tier.raw_consumed
            )
            tier.set_chunk_size(chunk_size)
            chunks_left_inside += tier.pop_chunk() is not None
            with SurgeService.restore(directory, attach=False) as restored:
                for _ in restored.run(
                    arrivals, chunk_size, start_offset=restored.chunk_offset
                ):
                    pass
                assert end_state(restored) == expected
                assert restored.stats().objects_pushed == expected_pushed
        if max_inflight_chunks > 1:
            # The budget is wide enough for one watermark jump to cut
            # several chunks: some checkpoint landed between them.
            assert chunks_left_inside > 0
