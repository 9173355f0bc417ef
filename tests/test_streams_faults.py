"""Unit suite for the seeded fault injector shared by tests, smokes, benches."""

from __future__ import annotations

import math
import random

import pytest

from repro.streams.faults import POISON_KINDS, FaultInjector, FaultProfile
from repro.streams.objects import SpatialObject
from repro.streams.watermark import WatermarkReorderBuffer, classify_bad_record


def make_clean(count: int, seed: int = 3) -> list[SpatialObject]:
    rng = random.Random(seed)
    t = 0.0
    objects = []
    for index in range(count):
        t += rng.uniform(0.1, 0.5)
        objects.append(
            SpatialObject(
                x=rng.uniform(0.0, 6.0),
                y=rng.uniform(0.0, 6.0),
                timestamp=t,
                weight=rng.uniform(0.5, 5.0),
                object_id=index,
                attributes={"keywords": (rng.choice(("a", "b")),)},
            )
        )
    return objects


def drain(buffer: WatermarkReorderBuffer, arrivals) -> list[SpatialObject]:
    released = [obj for arrival in arrivals for obj in buffer.push(arrival)]
    return released + buffer.flush()


class TestFaultProfile:
    def test_fraction_bounds_validated(self):
        with pytest.raises(ValueError, match="disorder_fraction"):
            FaultProfile(disorder_fraction=1.5, max_disorder=1.0)
        with pytest.raises(ValueError, match="poison_fraction"):
            FaultProfile(poison_fraction=-0.1)

    def test_disorder_requires_a_bound(self):
        with pytest.raises(ValueError, match="max_disorder"):
            FaultProfile(disorder_fraction=0.1)

    def test_flash_crowd_factor_and_delay_validated(self):
        with pytest.raises(ValueError, match="flash_crowd_factor"):
            FaultProfile(flash_crowd_factor=0.5)
        with pytest.raises(ValueError, match="duplicate_delay"):
            FaultProfile(duplicate_delay=-1.0)

    def test_unknown_poison_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown poison kinds"):
            FaultProfile(poison_kinds=("nan_timestamp", "gremlin"))


class TestFaultInjector:
    def test_no_faults_is_the_identity_replay(self):
        clean = make_clean(30)
        injector = FaultInjector(clean, seed=1)
        assert injector.materialize() == clean
        assert injector.reference() == clean
        assert (injector.disordered, injector.duplicates, injector.poisoned) == (0, 0, 0)

    def test_same_seed_same_arrivals(self):
        clean = make_clean(60)
        kwargs = dict(
            disorder_fraction=0.2,
            max_disorder=2.0,
            duplicate_fraction=0.05,
            poison_fraction=0.05,
        )
        first = FaultInjector(clean, seed=9, **kwargs)
        second = FaultInjector(clean, seed=9, **kwargs)
        # Compared by repr: poison records carry NaN fields, and NaN != NaN
        # would make object equality vacuously fail.
        assert repr(first.materialize()) == repr(second.materialize())
        assert repr(FaultInjector(clean, seed=10, **kwargs).materialize()) != repr(
            first.materialize()
        )

    def test_reference_is_sorted_regardless_of_input_order(self):
        clean = make_clean(20)
        shuffled = list(reversed(clean))
        injector = FaultInjector(shuffled, seed=2)
        assert injector.reference() == clean

    def test_disorder_stays_within_the_declared_bound(self):
        clean = make_clean(200)
        injector = FaultInjector(
            clean, seed=5, disorder_fraction=0.3, max_disorder=2.5
        )
        arrivals = injector.materialize()
        assert injector.disordered > 0
        assert arrivals != clean
        # The operational definition of the bound: a reorder buffer with
        # max_lateness == max_disorder absorbs the disorder losslessly and
        # reproduces the reference exactly.
        buffer = WatermarkReorderBuffer(2.5)
        assert drain(buffer, arrivals) == injector.reference()
        assert buffer.stats.late_dropped == 0
        assert buffer.stats.reordered <= injector.disordered

    def test_duplicates_share_ids_and_match_buffer_counter(self):
        clean = make_clean(150)
        injector = FaultInjector(
            clean,
            seed=6,
            disorder_fraction=0.1,
            max_disorder=1.0,
            duplicate_fraction=0.1,
            duplicate_delay=1.0,
        )
        arrivals = injector.materialize()
        assert injector.duplicates > 0
        assert len(arrivals) == len(clean) + injector.duplicates
        # Sized per the documented bound: max_disorder + duplicate_delay.
        buffer = WatermarkReorderBuffer(2.0)
        drain(buffer, arrivals)
        assert buffer.stats.duplicates_seen == injector.duplicates
        assert buffer.stats.late_dropped == 0

    def test_poison_records_are_all_screenable(self):
        clean = make_clean(100)
        injector = FaultInjector(
            clean, seed=7, poison_fraction=0.05, poison_kinds=POISON_KINDS
        )
        arrivals = injector.materialize()
        assert injector.poisoned == 5
        bad = [a for a in arrivals if classify_bad_record(a) is not None]
        assert len(bad) == injector.poisoned
        clean_survivors = [a for a in arrivals if classify_bad_record(a) is None]
        assert clean_survivors == clean  # poison never perturbs the stream

    def test_poison_kinds_are_respected(self):
        clean = make_clean(50)
        injector = FaultInjector(
            clean, seed=8, poison_fraction=0.1, poison_kinds=("nan_timestamp",)
        )
        bad = [a for a in injector if classify_bad_record(a) is not None]
        assert bad and all(
            isinstance(a, SpatialObject) and math.isnan(a.timestamp) for a in bad
        )

    def test_flash_crowd_compresses_the_window_and_keeps_order(self):
        clean = make_clean(100)
        injector = FaultInjector(clean, seed=9, flash_crowd_factor=4.0)
        reference = injector.reference()
        assert injector.materialize() == reference  # ramp alone adds no disorder
        times = [o.timestamp for o in reference]
        assert times == sorted(times)
        assert reference[-1].timestamp < clean[-1].timestamp
        assert [o.object_id for o in reference] == [o.object_id for o in clean]
        # Outside the window the inter-arrival gaps are untouched.
        assert reference[1].timestamp - reference[0].timestamp == pytest.approx(
            clean[1].timestamp - clean[0].timestamp
        )

    def test_len_and_iter_agree_with_materialize(self):
        clean = make_clean(40)
        injector = FaultInjector(
            clean, seed=11, duplicate_fraction=0.1, poison_fraction=0.05
        )
        assert list(injector) == injector.materialize()
        assert len(injector) == len(clean) + injector.duplicates + injector.poisoned


class TestLatencyProfiles:
    def test_latency_fractions_and_delays_validated(self):
        with pytest.raises(ValueError, match="slow_subscriber_fraction"):
            FaultProfile(slow_subscriber_fraction=1.5)
        with pytest.raises(ValueError, match="detector_stall_fraction"):
            FaultProfile(detector_stall_fraction=-0.1)
        with pytest.raises(ValueError, match="slow_subscriber_delay"):
            FaultProfile(slow_subscriber_delay=-1.0)
        with pytest.raises(ValueError, match="detector_stall_delay"):
            FaultProfile(detector_stall_delay=-1.0)

    def test_slow_subscriber_stalls_a_seeded_fraction_and_forwards(self):
        clean = make_clean(10)
        injector = FaultInjector(
            clean, seed=13, slow_subscriber_fraction=0.5, slow_subscriber_delay=0.0
        )
        got = []
        callback = injector.make_slow_subscriber(got.append)
        for index in range(40):
            callback(index)
        assert got == list(range(40))  # every update still delivered
        assert 0 < injector.subscriber_stalls < 40
        # Same seed, same stall schedule.
        twin = FaultInjector(
            clean, seed=13, slow_subscriber_fraction=0.5, slow_subscriber_delay=0.0
        )
        twin_callback = twin.make_slow_subscriber(None)
        for index in range(40):
            twin_callback(index)
        assert twin.subscriber_stalls == injector.subscriber_stalls

    def test_disabled_slow_subscriber_never_stalls(self):
        injector = FaultInjector(make_clean(5), seed=13)
        callback = injector.make_slow_subscriber(None)
        for index in range(20):
            callback(index)
        assert injector.subscriber_stalls == 0

    def test_stall_gate_is_keyed_by_chunk_index(self):
        clean = make_clean(10)
        injector = FaultInjector(
            clean, seed=17, detector_stall_fraction=0.5, detector_stall_delay=0.0
        )
        gate = injector.make_stall_gate()
        for index in range(40):
            gate(index)
        first = injector.detector_stalls
        assert 0 < first < 40
        # Replaying the same chunk indices meets the same decisions — the
        # property a resumed chaos run relies on.
        for index in range(40):
            gate(index)
        assert injector.detector_stalls == 2 * first

    def test_disabled_stall_gate_is_a_no_op(self):
        injector = FaultInjector(make_clean(5), seed=17)
        gate = injector.make_stall_gate()
        for index in range(20):
            gate(index)
        assert injector.detector_stalls == 0
