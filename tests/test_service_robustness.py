"""Disorder-tolerant ingestion: the bit-identity property and its edges.

The tier's whole contract (``SurgeService(max_lateness=...)`` +
:class:`~repro.streams.watermark.WatermarkReorderBuffer`) is that *bounded
disorder is invisible*: replaying a stream whose arrivals are displaced by
at most ``max_lateness`` produces results **bit-identical** to replaying the
pre-sorted stream through independent monitors (``tests/helpers.
replay_oracle``) — for every detector and executor, with nothing dropped.
This module locks that with a Hypothesis property plus a deterministic
sweep of all detectors, then covers the edges around it: strict-mode fail-fast (:class:`~repro.streams.windows.OutOfOrderError`),
poison-record quarantine (counted, spilled, surfaced via ``on_bad_record``),
duplicate ids across chunk boundaries, subscriber-fault isolation, and
checkpoint/restore with held-back events in the buffer.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import DETECTOR_NAMES
from repro.core.query import SurgeQuery
from repro.service import QuerySpec, SurgeService
from repro.state import CheckpointPolicy, SnapshotError
from repro.state.recovery import read_manifest
from repro.streams.faults import FaultInjector
from repro.streams.objects import SpatialObject
from repro.streams.watermark import IngestStats
from repro.streams.windows import OutOfOrderError
from tests.helpers import replay_oracle, result_keys

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


def make_specs(algorithm: str) -> list[QuerySpec]:
    k = 3 if algorithm.startswith("k") else 1
    query = SurgeQuery(1.5, 1.5, window_length=8.0, alpha=0.5, k=k)
    return [
        QuerySpec(
            query_id="kw", query=query, algorithm=algorithm,
            keyword="concert", backend="python",
        ),
        QuerySpec(
            query_id="all", query=query, algorithm=algorithm, backend="python",
        ),
    ]


def replay(
    specs,
    arrivals,
    *,
    chunk_size: int = 8,
    max_lateness: float = 0.0,
    executor: str = "serial",
    shards: int = 1,
):
    """Run ``arrivals`` through a fresh service; return (results, ingest)."""
    with SurgeService(
        specs,
        executor=executor,
        shards=shards,
        max_lateness=max_lateness,
    ) as service:
        for _ in service.run(iter(arrivals), chunk_size=chunk_size):
            pass
        return service.results(), service.ingest_stats()


def assert_tolerant_matches_sorted_oracle(
    injector: FaultInjector,
    algorithm: str,
    *,
    max_lateness: float,
    chunk_size: int = 8,
    executor: str = "serial",
    shards: int = 1,
) -> IngestStats:
    _, expected, _, _ = replay_oracle(
        injector.reference(), make_specs(algorithm), chunk_size
    )
    got, ingest = replay(
        make_specs(algorithm),
        injector.materialize(),
        chunk_size=chunk_size,
        max_lateness=max_lateness,
        executor=executor,
        shards=shards,
    )
    assert ingest.late_dropped == 0
    assert result_keys(got) == expected
    return ingest


# ---------------------------------------------------------------------------
# The bit-identity property
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    count=st.integers(min_value=10, max_value=50),
    disorder_fraction=st.floats(min_value=0.05, max_value=0.6),
    algorithm=st.sampled_from(DETECTOR_NAMES),
    chunk_size=st.integers(min_value=1, max_value=16),
)
def test_bounded_disorder_is_bit_invisible(
    seed, count, disorder_fraction, algorithm, chunk_size
):
    injector = FaultInjector(
        make_clean(count, seed),
        seed=seed,
        disorder_fraction=disorder_fraction,
        max_disorder=MAX_LATENESS,
    )
    assert_tolerant_matches_sorted_oracle(
        injector, algorithm, max_lateness=MAX_LATENESS, chunk_size=chunk_size
    )


@pytest.mark.parametrize("algorithm", DETECTOR_NAMES)
def test_every_detector_absorbs_ten_percent_disorder(algorithm):
    injector = FaultInjector(
        make_clean(80, seed=17),
        seed=17,
        disorder_fraction=0.10,
        max_disorder=MAX_LATENESS,
    )
    ingest = assert_tolerant_matches_sorted_oracle(
        injector, algorithm, max_lateness=MAX_LATENESS
    )
    assert ingest.reordered > 0  # the case was non-trivial


@pytest.mark.parametrize(
    "executor, shards", [("serial", 1), ("serial", 2), ("process", 2)]
)
def test_disorder_tolerance_across_executors(executor, shards):
    injector = FaultInjector(
        make_clean(60, seed=23),
        seed=23,
        disorder_fraction=0.15,
        max_disorder=MAX_LATENESS,
    )
    assert_tolerant_matches_sorted_oracle(
        injector,
        "ccs",
        max_lateness=MAX_LATENESS,
        executor=executor,
        shards=shards,
    )


# ---------------------------------------------------------------------------
# Strict mode stays fail-fast
# ---------------------------------------------------------------------------
class TestStrictMode:
    def test_run_raises_typed_error_on_disorder(self):
        clean = make_clean(20, seed=3)
        arrivals = list(clean)
        arrivals[5], arrivals[6] = arrivals[6], arrivals[5]
        with SurgeService(make_specs("ccs")) as service:
            with pytest.raises(OutOfOrderError) as excinfo:
                for _ in service.run(iter(arrivals), chunk_size=4):
                    pass
        error = excinfo.value
        assert isinstance(error, ValueError)  # backward-compatible type
        assert error.object_id == arrivals[6].object_id
        assert error.timestamp == arrivals[6].timestamp
        assert error.last_time == arrivals[5].timestamp

    def test_negative_lateness_rejected(self):
        with pytest.raises(ValueError, match="max_lateness"):
            SurgeService(make_specs("ccs"), max_lateness=-1.0)

    def test_lateness_zero_with_screen_keeps_strict_ordering(self):
        # quarantine_dir alone activates the tolerant tier (screening) but
        # must not silently start reordering.
        clean = make_clean(12, seed=5)
        arrivals = list(clean)
        arrivals[3], arrivals[4] = arrivals[4], arrivals[3]
        with SurgeService(
            make_specs("ccs"), on_bad_record=lambda record, reason: None
        ) as service:
            with pytest.raises(OutOfOrderError, match="strict mode"):
                for _ in service.run(iter(arrivals), chunk_size=4):
                    pass


# ---------------------------------------------------------------------------
# Quarantine
# ---------------------------------------------------------------------------
class TestQuarantine:
    def test_poison_counted_spilled_and_surfaced(self, tmp_path):
        injector = FaultInjector(
            make_clean(60, seed=29),
            seed=29,
            disorder_fraction=0.1,
            max_disorder=MAX_LATENESS,
            poison_fraction=0.05,
            poison_kinds=("nan_timestamp", "raw_dict", "bad_keywords"),
        )
        seen = []
        quarantine_dir = tmp_path / "quarantine"
        with SurgeService(
            make_specs("ccs"),
            max_lateness=MAX_LATENESS,
            on_bad_record=lambda record, reason: seen.append((record, reason)),
            quarantine_dir=quarantine_dir,
        ) as service:
            for _ in service.run(iter(injector), chunk_size=8):
                pass
            ingest = service.ingest_stats()
        assert ingest.quarantined == injector.poisoned > 0
        assert len(seen) == injector.poisoned
        lines = (quarantine_dir / "quarantine.jsonl").read_text().splitlines()
        assert len(lines) == injector.poisoned
        for line in lines:
            record = json.loads(line)
            assert record["reason"]
            assert "record" in record

    def test_results_unaffected_by_poison(self):
        injector = FaultInjector(
            make_clean(50, seed=31),
            seed=31,
            poison_fraction=0.1,
            poison_kinds=("nan_timestamp", "nan_x", "inf_weight"),
        )
        expected, _ = replay(make_specs("ccs"), injector.reference())
        got, ingest = replay(
            make_specs("ccs"),
            injector.materialize(),
            max_lateness=MAX_LATENESS,
        )
        assert got == expected
        assert ingest.quarantined == injector.poisoned


# ---------------------------------------------------------------------------
# Duplicate object ids
# ---------------------------------------------------------------------------
class TestDuplicateIds:
    def test_duplicates_processed_as_distinct_arrivals(self):
        clean = make_clean(40, seed=37)
        injector = FaultInjector(
            clean, seed=37, duplicate_fraction=0.15, duplicate_delay=0.5
        )
        arrivals = injector.materialize()
        assert injector.duplicates > 0
        # Ground truth: a strict replay of the same arrival multiset in
        # sorted order — duplicates are real arrivals, not noise to dedup.
        reference = sorted(arrivals, key=lambda o: (o.timestamp, o.object_id))
        expected, _ = replay(make_specs("ccs"), reference)
        got, ingest = replay(
            make_specs("ccs"), arrivals, max_lateness=MAX_LATENESS
        )
        assert got == expected
        assert ingest.duplicates_seen == injector.duplicates

    def test_duplicate_straddling_a_chunk_boundary(self):
        clean = make_clean(8, seed=41)
        # The duplicate of the 4th object arrives right after it: with
        # chunk_size=4 the original closes chunk 0 and the duplicate opens
        # chunk 1.
        duplicate = SpatialObject(
            x=clean[3].x,
            y=clean[3].y,
            timestamp=clean[3].timestamp + 0.01,
            weight=clean[3].weight,
            object_id=clean[3].object_id,
        )
        arrivals = clean[:4] + [duplicate] + clean[4:]
        expected, _ = replay(make_specs("ccs"), arrivals, chunk_size=4)
        got, ingest = replay(
            make_specs("ccs"), arrivals, chunk_size=4, max_lateness=MAX_LATENESS
        )
        assert got == expected
        assert ingest.duplicates_seen == 1


# ---------------------------------------------------------------------------
# Subscriber-fault isolation
# ---------------------------------------------------------------------------
class TestSubscriberIsolation:
    def test_failing_subscriber_does_not_starve_the_next(self):
        clean = make_clean(16, seed=43)
        received = []

        def bomb(update):
            raise RuntimeError("subscriber bug")

        with SurgeService(make_specs("ccs")) as service:
            service.bus.subscribe(bomb)
            service.bus.subscribe(received.append)
            for _ in service.run(iter(clean), chunk_size=4):
                pass
            ingest = service.ingest_stats()
            stats = service.stats()
        assert received  # the healthy subscriber kept seeing updates
        assert ingest.subscriber_errors == len(received)
        assert stats.ingest.subscriber_errors == ingest.subscriber_errors


# ---------------------------------------------------------------------------
# Checkpoint / restore with held-back events
# ---------------------------------------------------------------------------
class TestTolerantRecovery:
    CHUNK = 6

    def make_injector(self):
        return FaultInjector(
            make_clean(90, seed=47),
            seed=47,
            disorder_fraction=0.15,
            max_disorder=MAX_LATENESS,
            poison_fraction=0.03,
        )

    def uninterrupted(self):
        injector = self.make_injector()
        return replay(
            make_specs("ccs"),
            injector.materialize(),
            chunk_size=self.CHUNK,
            max_lateness=MAX_LATENESS,
        )

    def crashed_service(self, tmp_path, die_after: int) -> None:
        """Run a doomed service and abandon it mid-stream ("crash")."""
        injector = self.make_injector()
        doomed = SurgeService(
            make_specs("ccs"),
            max_lateness=MAX_LATENESS,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_policy=CheckpointPolicy(every_chunks=2),
        )
        chunks = 0
        for _ in doomed.run(iter(injector), chunk_size=self.CHUNK):
            chunks += 1
            if chunks >= die_after:
                break
        # No close(): the "crash" discards the in-memory state.

    def test_restore_resumes_bit_identically(self, tmp_path):
        expected, expected_ingest = self.uninterrupted()
        self.crashed_service(tmp_path, die_after=5)
        restored = SurgeService.restore(tmp_path / "ckpt")
        assert restored.max_lateness == MAX_LATENESS
        with restored:
            for _ in restored.run(
                iter(self.make_injector()),
                chunk_size=self.CHUNK,
                start_offset=restored.chunk_offset,
            ):
                pass
            got = restored.results()
            got_ingest = restored.ingest_stats()
        assert got == expected
        assert got_ingest == expected_ingest

    def test_manifest_records_the_ingest_tier(self, tmp_path):
        self.crashed_service(tmp_path, die_after=3)
        manifest = read_manifest(tmp_path / "ckpt")
        assert manifest.ingest is not None
        # The tier itself (replay offset, counters, held-back events, screen
        # mode) is the snapshot's payload; its settings are in ``replay``.
        assert set(manifest.ingest) == {"snapshot_file"}
        assert manifest.replay["max_lateness"] == MAX_LATENESS
        assert manifest.replay["chunk_size"] == self.CHUNK
        assert (tmp_path / "ckpt" / manifest.ingest["snapshot_file"]).exists()
        with SurgeService.restore(tmp_path / "ckpt") as restored:
            assert restored.raw_consumed > 0

    def test_missing_ingest_snapshot_fails_clearly(self, tmp_path):
        self.crashed_service(tmp_path, die_after=3)
        manifest = read_manifest(tmp_path / "ckpt")
        (tmp_path / "ckpt" / manifest.ingest["snapshot_file"]).unlink()
        with pytest.raises(SnapshotError, match="missing ingest snapshot"):
            SurgeService.restore(tmp_path / "ckpt")

    def test_tolerant_resume_rejects_chunk_offsets(self):
        clean = make_clean(20, seed=53)
        with SurgeService(make_specs("ccs"), max_lateness=MAX_LATENESS) as service:
            with pytest.raises(ValueError, match="raw records, not chunks"):
                for _ in service.run(iter(clean), chunk_size=4, start_offset=1):
                    pass

    def test_resume_stream_shorter_than_offset_fails_clearly(self, tmp_path):
        self.crashed_service(tmp_path, die_after=5)
        restored = SurgeService.restore(tmp_path / "ckpt", attach=False)
        with restored:
            with pytest.raises(ValueError, match="shorter than"):
                for _ in restored.run(
                    iter(make_clean(3, seed=47)),
                    chunk_size=self.CHUNK,
                    start_offset=restored.chunk_offset,
                ):
                    pass
