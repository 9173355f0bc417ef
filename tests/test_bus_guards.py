"""Bus guard rails: self-block detection, monotonic lag, filtered fan-out.

Three regressions pinned here:

* a ``policy="block"`` subscription with no ``block_timeout`` used to be
  able to deadlock a single-threaded caller that both publishes and
  drains — now it raises a typed
  :class:`~repro.service.bus.SubscriptionSelfBlockError` naming the
  subscription instead of hanging the ingestion path;
* result-lag accounting must come from a **monotonic** clock: a
  wall-clock jump (NTP step, DST, a VM resume) while a chunk is in
  flight must never produce negative or absurd ``lag_seconds``;
* a ``query_ids``-filtered subscription must keep the conservation law
  ``offered == delivered + dropped + depth`` over the *filtered* updates
  alone — bypassed updates are not offered;
* a publish (or a close) must wake a consumer blocked in ``get`` under
  **every** policy — ``drop_oldest`` used to return before the notify, so
  its consumers only ever woke on their own poll timeout.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.query import SurgeQuery
from repro.service import (
    QuerySpec,
    SubscriptionSelfBlockError,
    SurgeService,
)
from repro.service.bus import (
    SUBSCRIPTION_POLICIES,
    QueryUpdate,
    ResultBus,
    Subscription,
)
from repro.streams.objects import SpatialObject


def make_update(query_id: str, chunk_index: int = 0) -> QueryUpdate:
    return QueryUpdate(
        query_id=query_id,
        chunk_index=chunk_index,
        result=None,
        objects_routed=1,
        busy_seconds=0.0,
    )


def make_stream(count: int) -> list[SpatialObject]:
    return [
        SpatialObject(
            x=1.0, y=1.0, timestamp=float(index), weight=1.0, object_id=index
        )
        for index in range(count)
    ]


def make_spec(query_id: str = "q") -> QuerySpec:
    return QuerySpec(
        query_id=query_id,
        query=SurgeQuery(1.5, 1.5, window_length=8.0, alpha=0.5),
        algorithm="ccs",
        backend="python",
    )


class TestSelfBlockDetection:
    def test_single_threaded_publisher_consumer_raises_typed(self):
        bus = ResultBus()
        subscription = bus.open_subscription(
            maxsize=2, policy="block", name="dashboard"
        )
        # Establish this thread as the subscription's only consumer, then
        # fill the queue: the next publish would wait forever for the very
        # thread that is publishing.
        bus.publish([make_update("q", 0)])
        assert subscription.get(timeout=1) is not None
        bus.publish([make_update("q", 1), make_update("q", 2)])
        with pytest.raises(SubscriptionSelfBlockError) as excinfo:
            bus.publish([make_update("q", 3)])
        assert excinfo.value.subscription_name == "dashboard"
        assert "dashboard" in str(excinfo.value)

    def test_anonymous_subscription_named_in_error(self):
        subscription = Subscription(maxsize=1, policy="block")
        subscription.drain()  # this thread becomes the only consumer
        assert subscription._offer(make_update("q", 0)) == []
        with pytest.raises(SubscriptionSelfBlockError) as excinfo:
            subscription._offer(make_update("q", 1))
        assert excinfo.value.subscription_name == "<anonymous>"

    def test_no_false_positive_with_a_real_consumer_thread(self):
        subscription = Subscription(maxsize=1, policy="block", name="live")
        consumed: list[QueryUpdate] = []
        stop = threading.Event()

        def consume():
            while not stop.is_set():
                update = subscription.get(timeout=0.05)
                if update is not None:
                    consumed.append(update)

        thread = threading.Thread(target=consume)
        thread.start()
        try:
            # Another thread is draining: the publisher may block briefly
            # but must never raise, even with the queue momentarily full.
            for index in range(20):
                assert subscription._offer(make_update("q", index)) == []
        finally:
            stop.set()
            thread.join()
        assert len(consumed) + subscription.depth == 20

    def test_block_timeout_still_overloads_not_self_blocks(self):
        from repro.service.overload import OverloadError

        subscription = Subscription(
            maxsize=1, policy="block", block_timeout=0.05, name="timed"
        )
        subscription.drain()
        assert subscription._offer(make_update("q", 0)) == []
        # A bounded wait cannot deadlock; it times out into the existing
        # typed OverloadError instead.
        with pytest.raises(OverloadError):
            subscription._offer(make_update("q", 1))

    def test_untouched_subscription_does_not_trip(self):
        # Nobody has ever consumed: a pump thread may be about to start,
        # so the publisher must wait (bounded here by closing from aside).
        subscription = Subscription(maxsize=1, policy="block", name="fresh")
        assert subscription._offer(make_update("q", 0)) == []
        closer = threading.Timer(0.1, subscription.close)
        closer.start()
        try:
            assert subscription._offer(make_update("q", 1)) == []
        finally:
            closer.cancel()


class BlockedConsumer(threading.Thread):
    """One ``get(timeout=5)`` on its own thread, timing its return."""

    def __init__(self, subscription: Subscription) -> None:
        super().__init__(daemon=True)
        self.subscription = subscription
        self.waiting = threading.Event()
        self.update: QueryUpdate | None = None
        self.returned_at: float | None = None

    def run(self) -> None:
        self.waiting.set()
        self.update = self.subscription.get(timeout=5)
        self.returned_at = time.perf_counter()

    def start_blocked(self) -> "BlockedConsumer":
        self.start()
        assert self.waiting.wait(timeout=5)
        time.sleep(0.05)  # from "about to call get" to parked in wait_for
        return self

    def wake_seconds(self, since: float) -> float:
        self.join(timeout=5)
        assert not self.is_alive() and self.returned_at is not None
        return self.returned_at - since


@pytest.mark.parametrize("policy", SUBSCRIPTION_POLICIES)
class TestPublishWakesConsumers:
    def test_publish_wakes_a_blocked_get(self, policy):
        bus = ResultBus()
        subscription = bus.open_subscription(maxsize=4, policy=policy)
        consumer = BlockedConsumer(subscription).start_blocked()
        published_at = time.perf_counter()
        bus.publish([make_update("q", 7)])
        assert consumer.wake_seconds(published_at) < 0.1
        assert consumer.update is not None and consumer.update.chunk_index == 7
        assert subscription.peak_depth == 1

    def test_close_wakes_a_blocked_get(self, policy):
        subscription = Subscription(maxsize=4, policy=policy)
        consumer = BlockedConsumer(subscription).start_blocked()
        closed_at = time.perf_counter()
        subscription.close()
        assert consumer.wake_seconds(closed_at) < 0.1
        assert consumer.update is None

    def test_conservation_after_interleaved_get_and_drain(self, policy):
        bus = ResultBus()
        subscription = bus.open_subscription(maxsize=3, policy=policy)

        def conserved() -> bool:
            counters = subscription.counters()
            return counters["offered"] == (
                counters["delivered"] + counters["dropped"] + counters["depth"]
            )

        taken = 0
        for round_no in range(4):
            # Never past maxsize between consumes: block would wait and
            # evict would detach; overflow has its own tests.
            bus.publish([make_update("q", 3 * round_no + i) for i in range(3)])
            assert conserved()
            assert subscription.get(timeout=1) is not None
            assert conserved()
            taken += 1 + len(subscription.drain())
            assert conserved()
        assert taken == subscription.delivered == 12
        assert subscription.dropped == 0 and subscription.depth == 0


class TestMonotonicLag:
    def test_wall_clock_jump_does_not_corrupt_lag(self, monkeypatch):
        # Simulate an NTP step: time.time() jumps backwards an hour on
        # every call.  Lag accounting must be sourced from a monotonic
        # clock, so per-query lag stays small and non-negative.
        real_time = time.time()
        calls = {"n": 0}

        def jumpy_time() -> float:
            calls["n"] += 1
            return real_time + (-3600.0 if calls["n"] % 2 else 3600.0)

        monkeypatch.setattr(time, "time", jumpy_time)
        with SurgeService([make_spec()]) as service:
            subscription = service.bus.open_subscription(
                maxsize=64, policy="drop_oldest"
            )
            for _ in service.run(make_stream(24), chunk_size=4):
                pass
            stats = service.stats().per_query["q"]
            assert 0.0 <= stats.last_lag_seconds < 60.0
            assert 0.0 <= stats.max_lag_seconds < 60.0
            for update in subscription.drain():
                assert 0.0 <= update.lag_seconds < 60.0

    def test_lag_is_positive_and_ordered(self):
        with SurgeService([make_spec()]) as service:
            for _ in service.run(make_stream(8), chunk_size=4):
                pass
            stats = service.stats().per_query["q"]
            assert stats.max_lag_seconds >= stats.last_lag_seconds >= 0.0


class TestQueryFilter:
    def test_filtered_updates_are_not_offered(self):
        bus = ResultBus()
        watched = bus.open_subscription(
            maxsize=8, policy="drop_oldest", query_ids=["a"]
        )
        everything = bus.open_subscription(maxsize=8, policy="drop_oldest")
        for index in range(3):
            bus.publish([make_update("a", index), make_update("b", index)])
        assert watched.offered == 3
        assert everything.offered == 6
        assert [update.query_id for update in watched.drain()] == ["a"] * 3

    def test_conservation_holds_over_filtered_updates(self):
        bus = ResultBus()
        subscription = bus.open_subscription(
            maxsize=2, policy="drop_oldest", query_ids=["a"]
        )
        for index in range(6):
            bus.publish([make_update("a", index), make_update("b", index)])
        counters = subscription.counters()
        assert counters["offered"] == 6
        assert (
            counters["offered"]
            == counters["delivered"] + counters["dropped"] + counters["depth"]
        )
        subscription.drain()
        counters = subscription.counters()
        assert (
            counters["offered"]
            == counters["delivered"] + counters["dropped"] + counters["depth"]
        )

    def test_service_level_filter(self):
        specs = [make_spec("a"), make_spec("b")]
        with SurgeService(specs) as service:
            subscription = service.bus.open_subscription(
                maxsize=64, policy="drop_oldest", query_ids=["b"]
            )
            for _ in service.run(make_stream(12), chunk_size=4):
                pass
            updates = subscription.drain()
            assert updates
            assert {update.query_id for update in updates} == {"b"}
