"""Wire-level integration tests for the network tier (``repro.server``).

Everything here runs a real :class:`~repro.server.server.SurgeServer` on a
loopback socket (port 0) and talks to it with the blocking
:class:`~repro.server.client.ServerClient` — the same path production
traffic takes.  The invariants under test:

* every request gets a **typed reply** — overload surfaces as a ``503``
  error frame with depth and advice, never a dropped connection;
* results served over the wire are **bit-identical** to an in-process
  serial reference over the same arrival sequence, including under
  concurrent registry churn and multi-connection ingest (satellite:
  wire-level churn);
* ``GET /metrics`` is valid Prometheus text exposition with the overload,
  ingest and per-query lag series;
* degraded-mode transitions and drains are pushed to subscribers as
  ``control`` frames, and a drained engine refuses late commands with a
  typed draining error.
"""

from __future__ import annotations

import random
import re
import socket
import threading
import time

import pytest

from repro.core.query import SurgeQuery
from repro.server import (
    EndpointInUseError,
    EngineDrainingError,
    ServerClient,
    ServerEngine,
    ServerError,
    SurgeServer,
    http_get,
)
from repro.server.client import connect_backoff_schedule
from repro.server.protocol import decode_result
from repro.service import OverloadConfig, OverloadError, QuerySpec, SurgeService
from repro.streams.faults import FaultInjector
from repro.streams.objects import SpatialObject

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


def make_spec(query_id: str, keyword: str | None = None, priority: int = 0) -> QuerySpec:
    return QuerySpec(
        query_id=query_id,
        query=SurgeQuery(1.5, 1.5, window_length=8.0, alpha=0.5),
        algorithm="ccs",
        keyword=keyword,
        backend="python",
        priority=priority,
    )


@pytest.fixture
def server_factory():
    servers: list[SurgeServer] = []

    def start(service: SurgeService, **kwargs) -> SurgeServer:
        server = SurgeServer(service, port=0, **kwargs)
        server.start_background()
        servers.append(server)
        return server

    yield start
    for server in servers:
        try:
            server.drain(timeout=30)
        except Exception:
            pass


def connect(server: SurgeServer) -> ServerClient:
    return ServerClient("127.0.0.1", server.port, timeout=30)


def serial_reference(specs, arrivals, *, chunk_size=8, max_lateness=0.0):
    with SurgeService(specs, max_lateness=max_lateness) as service:
        for batch in [arrivals]:
            for _ in service.feed(batch, chunk_size):
                pass
        for _ in service.flush_pending():
            pass
        return service.results()


class TestRequestReply:
    def test_full_session_bit_identical_to_serial(self, server_factory):
        stream = make_clean(64, seed=3)
        specs = [make_spec("kw", "concert"), make_spec("all")]
        service = SurgeService([specs[0]])
        server = server_factory(service, chunk_size=8)
        with connect(server) as client:
            assert client.ping()["pong"] is True
            ack = client.register(specs[1])
            assert ack["query_id"] == "all" and ack["queries"] == 2
            ack = client.ingest(stream[:40])
            assert ack["accepted"] == 40 and ack["chunks_dispatched"] == 5
            ack = client.ingest(stream[40:])
            assert ack["accepted"] == 24
            client.flush()
            results = {
                query_id: decode_result(record)
                for query_id, record in client.results().items()
            }
        assert results == serial_reference(specs, stream)

    def test_typed_errors(self, server_factory):
        service = SurgeService([make_spec("kw", "concert")])
        server = server_factory(service)
        with connect(server) as client:
            with pytest.raises(ServerError) as excinfo:
                client.unregister("nope")
            assert excinfo.value.code == 404
            with pytest.raises(ServerError) as excinfo:
                client.register(make_spec("kw", "concert"))
            assert excinfo.value.code == 409
            with pytest.raises(ServerError) as excinfo:
                client.request({"type": "frobnicate"})
            assert excinfo.value.code == 400
            with pytest.raises(ServerError) as excinfo:
                client.request({"type": "ingest", "objects": "not-a-list"})
            assert excinfo.value.code == 400
            # The connection survived all four refusals.
            assert client.ping()["pong"] is True

    def test_malformed_json_gets_400_not_a_hangup(self, server_factory):
        import struct

        service = SurgeService([make_spec("q")])
        server = server_factory(service)
        with connect(server) as client:
            body = b"{broken json"
            client._sock.sendall(struct.pack(">I", len(body)) + body)
            frame = client.recv_raw()
            assert frame["type"] == "error" and frame["code"] == 400
            assert client.ping()["pong"] is True

    def test_unregister_then_results_drop_the_query(self, server_factory):
        service = SurgeService([make_spec("a"), make_spec("b")])
        server = server_factory(service)
        with connect(server) as client:
            client.ingest(make_clean(16, seed=1))
            client.flush()
            assert set(client.results()) == {"a", "b"}
            client.unregister("b")
            assert set(client.results()) == {"a"}


class TestSubscriptions:
    def test_pushed_results_match_polled(self, server_factory):
        stream = make_clean(32, seed=5)
        service = SurgeService([make_spec("kw", "concert")])
        server = server_factory(service, chunk_size=8)
        with connect(server) as subscriber, connect(server) as feeder:
            ack = subscriber.subscribe(maxsize=128, name="watcher")
            assert ack["subscription"] == "watcher"
            feeder.ingest(stream)
            feeder.flush()
            frames = [subscriber.recv_result() for _ in range(4)]
            assert [frame["chunk_index"] for frame in frames] == [0, 1, 2, 3]
            final = decode_result(frames[-1]["result"])
            polled = decode_result(feeder.results()["kw"])
            assert final == polled

    def test_query_filtered_subscription(self, server_factory):
        stream = make_clean(32, seed=6)
        service = SurgeService([make_spec("kw", "concert"), make_spec("all")])
        server = server_factory(service, chunk_size=8)
        with connect(server) as subscriber, connect(server) as feeder:
            subscriber.subscribe(maxsize=128, queries=["all"], name="only-all")
            feeder.ingest(stream)
            feeder.flush()
            frames = [subscriber.recv_result() for _ in range(4)]
            assert {frame["query_id"] for frame in frames} == {"all"}

    def test_second_subscribe_on_same_connection_is_409(self, server_factory):
        service = SurgeService([make_spec("q")])
        server = server_factory(service)
        with connect(server) as client:
            client.subscribe(maxsize=8)
            with pytest.raises(ServerError) as excinfo:
                client.subscribe(maxsize=8)
            assert excinfo.value.code == 409


class TestEventDrivenDelivery:
    """Results leave when they are published, one socket write per wake-up."""

    def test_frames_follow_the_ack_promptly_and_in_publish_order(
        self, server_factory
    ):
        specs = [make_spec("kw", "concert"), make_spec("all"), make_spec("p", "parade")]
        n_batches, chunk_size = 20, 8
        stream = make_clean(n_batches * chunk_size, seed=13)
        service = SurgeService(list(specs))
        server = server_factory(service, chunk_size=chunk_size)
        # The publish order, recorded in-process next to the wire subscriber.
        witness = server.engine.submit(
            "subscribe", {"maxsize": 4096, "policy": "drop_oldest"}
        ).result(timeout=10)
        expected_frames = n_batches * len(specs)
        received: list[tuple[float, int, str]] = []

        def read_pushed(client: ServerClient) -> None:
            while len(received) < expected_frames:
                frame = client.recv_result()
                received.append(
                    (time.perf_counter(), frame["chunk_index"], frame["query_id"])
                )

        acked_at: dict[int, float] = {}
        with connect(server) as subscriber, connect(server) as feeder:
            subscriber.subscribe(maxsize=4096)  # default policy: drop_oldest
            reader = threading.Thread(
                target=read_pushed, args=(subscriber,), daemon=True
            )
            reader.start()
            for index in range(n_batches):
                ack = feeder.ingest(
                    stream[index * chunk_size : (index + 1) * chunk_size]
                )
                acked_at[ack["chunk_index"] - 1] = time.perf_counter()
                assert ack["chunks_dispatched"] == 1
                time.sleep(0.02)
            reader.join(timeout=30)
            assert not reader.is_alive()

        published = [(u.chunk_index, u.query_id) for u in witness.drain()]
        assert [(chunk, query) for _, chunk, query in received] == published
        last_frame_at: dict[int, float] = {}
        for at, chunk, _ in received:
            last_frame_at[chunk] = at
        lags = sorted(last_frame_at[chunk] - acked_at[chunk] for chunk in acked_at)
        # A chunk's frames trail its ack by a wake-up and a write, not by
        # the pump's 250 ms liveness timeout.
        assert lags[len(lags) // 2] < 0.05, lags

    def test_slow_peer_fills_the_queue_not_the_pump(self, server_factory):
        n_queries, chunk_size = 16, 2
        maxsize = 2 * n_queries
        specs = [make_spec(f"q{index}") for index in range(n_queries)]
        service = SurgeService(list(specs))
        server = server_factory(service, chunk_size=chunk_size)
        # Enough frames to fill any loopback socket buffer several times
        # over; the loop stops as soon as the peer's has filled.
        stream = make_clean(4000 * chunk_size, seed=14)
        subscriber = connect(server)
        subscriber.subscribe(maxsize=maxsize, name="stalled")
        stalled_rounds = 0
        previous = None
        with connect(server) as feeder:
            for round_no, start in enumerate(range(0, len(stream), chunk_size)):
                # The subscriber never reads, yet every ingest is acked.
                ack = feeder.ingest(stream[start : start + chunk_size])
                assert ack["chunks_dispatched"] == 1
                stats = feeder.stats()
                (record,) = stats["subscriptions"]
                # Updates the pump has taken and not finished writing: one
                # batch at most (get + drain), whatever the peer does.  The
                # snapshot reads the subscription before frames_out, which
                # only grows, so this never overestimates.
                replies = 2 + 2 * round_no  # subscribe ack, acks, stats so far
                pushed = stats["server"]["frames_out_total"] - replies
                assert record["delivered"] - pushed <= maxsize + 1, stats
                assert record["depth"] <= maxsize
                if previous is not None and record["delivered"] == previous:
                    stalled_rounds += 1
                    if stalled_rounds == 4:
                        break
                else:
                    stalled_rounds = 0
                previous = record["delivered"]
            assert stalled_rounds == 4, "the peer's socket never filled"
            # The pump is parked on its one write, so the counters are
            # quiescent: what it could not take was dropped and counted.
            assert record["dropped"] >= n_queries
            assert record["offered"] == (
                record["delivered"] + record["dropped"] + record["depth"]
            )
            assert record["peak_depth"] == maxsize
            # The peer reads again: the write completes and the newest
            # results (drop_oldest kept them) come through.
            last_chunk = ack["chunk_index"] - 1
            while subscriber.recv_result()["chunk_index"] != last_chunk:
                pass
        subscriber.close()


class TestOverloadOnTheWire:
    def test_service_overload_is_a_503_reply_not_a_hangup(self, server_factory):
        service = SurgeService([make_spec("q")])
        server = server_factory(service, chunk_size=4)
        # An in-process blocking subscription nobody drains: the publish
        # path times out into OverloadError once its one-slot queue is full.
        server.engine.submit(
            "subscribe",
            {"maxsize": 1, "policy": "block", "block_timeout": 0.1},
        ).result(timeout=10)
        stream = make_clean(16, seed=7)
        with connect(server) as client:
            with pytest.raises(ServerError) as excinfo:
                client.ingest(stream)
            assert excinfo.value.code == 503
            assert excinfo.value.overloaded
            assert "depth_chunks" in excinfo.value.info
            assert "advice" in excinfo.value.info
            # The connection is alive and the server keeps serving.
            assert client.ping()["pong"] is True
            assert isinstance(client.stats()["degraded"], bool)

    def test_engine_admission_bound_is_typed(self):
        service = SurgeService([make_spec("q")])
        engine = ServerEngine(service, chunk_size=4, max_queued_batches=1)
        try:
            release = threading.Event()
            started = threading.Event()

            class Stall:
                def __len__(self):
                    return 0

                def __iter__(self):
                    started.set()
                    release.wait(timeout=30)
                    return iter(())

            blocked = engine.submit("ingest", Stall())
            # Once the worker is provably stuck inside the first batch,
            # fill the one admission slot; the next submission must be
            # refused with a typed OverloadError at submit time.
            assert started.wait(timeout=10)
            queued = engine.submit("ingest", [])
            rejected = engine.submit("ingest", [])
            with pytest.raises(OverloadError) as excinfo:
                rejected.result(timeout=10)
            assert excinfo.value.depth_chunks >= 1
            assert engine.ingest_rejected == 1
            release.set()
            blocked.result(timeout=10)
            queued.result(timeout=10)
        finally:
            engine.stop()
            service.close()

    def test_degraded_transitions_pushed_as_control_frames(self, server_factory):
        service = SurgeService(
            [make_spec("q")],
            overload=OverloadConfig(
                high_watermark_chunks=3.0,
                low_watermark_chunks=1.0,
                policy="shed",
            ),
        )
        server = server_factory(service, chunk_size=4)
        # Depth source: an undrained in-process subscription (updates per
        # query count how many chunks' answers sit unconsumed).
        laggard = server.engine.submit(
            "subscribe", {"maxsize": 1024, "policy": "drop_oldest"}
        ).result(timeout=10)
        stream = make_clean(400, seed=8)
        subscriber = connect(server)
        subscriber.subscribe(maxsize=1024, name="ops")
        controls: list[dict] = []

        def read_pushed() -> None:
            # Consume every pushed frame (keeping the ops subscription
            # shallow) and collect the control events.
            try:
                while True:
                    frame = subscriber.recv()
                    if frame.get("type") == "control":
                        controls.append(frame)
            except (ConnectionError, OSError, ServerError):
                pass

        reader = threading.Thread(target=read_pushed, daemon=True)
        reader.start()

        def wait_for(event: str, deadline_seconds: float = 30.0) -> dict | None:
            deadline = time.monotonic() + deadline_seconds
            while time.monotonic() < deadline:
                for frame in list(controls):
                    if frame.get("event") == event:
                        return frame
                time.sleep(0.02)
            return None

        with connect(server) as feeder:
            feeder.ingest(stream[:32])  # 8 undrained chunks > high watermark
            entered = wait_for("degraded_entered")
            assert entered is not None
            assert entered["depth_chunks"] >= 3.0
            # Remove the laggard; subsequent ingests re-evaluate the
            # watermark against the (promptly pumped) wire subscription
            # and the service exits degraded mode.
            server.engine.submit("unsubscribe", laggard).result(timeout=10)
            cursor = 32
            exited = None
            while exited is None and cursor < len(stream):
                feeder.ingest(stream[cursor : cursor + 4])
                cursor += 4
                exited = wait_for("degraded_exited", 0.2)
            assert exited is not None
            stats = feeder.stats()
            assert stats["overload"]["entered_degraded"] >= 1
            assert stats["overload"]["exited_degraded"] >= 1
        subscriber.close()
        reader.join(timeout=10)


class TestMetricsEndpoint:
    SAMPLE = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE+.\-]+$"
    )
    COMMENT = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")

    def test_metrics_are_valid_prometheus_text(self, server_factory):
        service = SurgeService([make_spec("kw", "concert")])
        server = server_factory(service, chunk_size=8, metrics_port=0)
        with connect(server) as client:
            client.ingest(make_clean(24, seed=9))
            client.flush()
        status, body = http_get("127.0.0.1", server.metrics_port, "/metrics")
        assert status == 200
        names = set()
        for line in body.splitlines():
            if not line:
                continue
            if line.startswith("#"):
                assert self.COMMENT.match(line), line
            else:
                assert self.SAMPLE.match(line), line
                names.add(line.split("{")[0].split(" ")[0])
        # The surfaces the issue demands: overload, ingest, per-query lag.
        assert "repro_overload_degraded" in names
        assert "repro_overload_entered_degraded_total" in names
        assert "repro_ingest_quarantined_total" in names
        assert "repro_query_last_lag_seconds" in names
        assert "repro_service_objects_pushed_total 24" in body
        assert 'repro_query_objects_routed_total{query="kw"}' in body

    def test_healthz_and_404(self, server_factory):
        service = SurgeService([make_spec("q")])
        server = server_factory(service, metrics_port=0)
        status, body = http_get("127.0.0.1", server.metrics_port, "/healthz")
        assert (status, body) == (200, "ok\n")
        status, _ = http_get("127.0.0.1", server.metrics_port, "/nope")
        assert status == 404


class TestDrain:
    def test_drain_frame_notifies_subscribers_and_refuses_late_work(self):
        service = SurgeService([make_spec("q")])
        server = SurgeServer(service, port=0).start_background()
        subscriber = connect(server)
        subscriber.subscribe(maxsize=8, name="ops")
        with connect(server) as admin:
            admin.ingest(make_clean(8, seed=10))
            assert admin.drain()["draining"] is True
        # The draining control frame reaches the subscriber before the
        # connection is torn down.
        saw_draining = False
        try:
            while True:
                frame = subscriber.recv_raw()
                if frame.get("type") == "control" and frame.get("event") == "draining":
                    saw_draining = True
                    break
        except (ConnectionError, OSError):
            pass
        assert saw_draining
        subscriber.close()
        server.drain(timeout=30)
        assert server.drain_summary is not None
        # The engine refuses post-drain work with a typed error.
        with pytest.raises(EngineDrainingError):
            server.engine.submit("ingest", []).result(timeout=10)
        # And the listener is gone.
        with pytest.raises(OSError):
            ServerClient("127.0.0.1", server.port, timeout=2)

    def test_drain_is_bounded_when_a_subscriber_stops_reading(
        self, tmp_path, monkeypatch
    ):
        """A peer that never reads must not keep the drain from its checkpoint.

        Its pump sits inside the one write holding the connection's write
        lock, so the ``draining`` frame queues behind it; the drain gives
        the peer ``DRAIN_NOTIFY_TIMEOUT``, closes it and moves on — while a
        subscriber that does read still gets its notice.
        """
        from repro.server import server as server_module

        monkeypatch.setattr(server_module, "DRAIN_NOTIFY_TIMEOUT", 1.0)
        n_queries, chunk_size = 16, 2
        specs = [make_spec(f"q{index}") for index in range(n_queries)]
        service = SurgeService(specs, checkpoint_dir=tmp_path / "ckpt")
        server = SurgeServer(service, port=0, chunk_size=chunk_size)
        server.start_background()
        stalled = connect(server)
        stalled.subscribe(maxsize=2 * n_queries, name="stalled")
        reader = connect(server)
        reader.subscribe(maxsize=4 * n_queries, name="reader")
        reader_saw: list[str] = []

        def read_until_draining():
            try:
                while True:
                    frame = reader.recv_raw()
                    if frame.get("type") == "control":
                        reader_saw.append(frame["event"])
                        if frame["event"] == "draining":
                            return
            except (ConnectionError, OSError):
                pass

        reading = threading.Thread(target=read_until_draining, daemon=True)
        reading.start()
        stream = make_clean(4000 * chunk_size, seed=15)
        stalled_rounds, previous = 0, None
        with connect(server) as feeder:
            for start in range(0, len(stream), chunk_size):
                feeder.ingest(stream[start : start + chunk_size])
                by_name = {
                    record["name"]: record
                    for record in feeder.stats()["subscriptions"]
                }
                delivered = by_name["stalled"]["delivered"]
                stalled_rounds = stalled_rounds + 1 if delivered == previous else 0
                if stalled_rounds == 4:
                    break
                previous = delivered
        assert stalled_rounds == 4, "the stalled peer's socket never filled"
        started = time.monotonic()
        server.request_drain()
        summary = server.drain(timeout=20)
        elapsed = time.monotonic() - started
        assert summary["checkpoint"] is not None
        assert summary["chunk_offset"] == service.chunk_offset > 0
        assert elapsed < 10.0, elapsed  # the 1 s bound plus the checkpoint
        reading.join(timeout=10)
        assert not reading.is_alive()
        assert reader_saw[-1:] == ["draining"]
        stalled.close()
        reader.close()
        with SurgeService.restore(tmp_path / "ckpt", attach=False) as restored:
            assert restored.chunk_offset == summary["chunk_offset"]
        service.close()

    def test_drain_without_durability_flushes_pending(self):
        stream = make_clean(20, seed=11)
        specs = [make_spec("kw", "concert"), make_spec("all")]
        service = SurgeService(list(specs))
        server = SurgeServer(service, port=0, chunk_size=8).start_background()
        with connect(server) as client:
            client.ingest(stream)  # 20 objects -> 2 full chunks + 4 pending
        summary = server.drain(timeout=30)
        assert summary["chunks_flushed"] == 1
        assert service.stats().objects_pushed == 20
        assert service.results() == serial_reference(specs, stream)
        service.close()


class TestWireChurn:
    def test_concurrent_churn_preserves_bit_identity(self, server_factory):
        """Satellite: N registrants churn while M connections ingest.

        Determinism: the M ingest connections send consecutive batches of
        the one true arrival sequence round-robin, each waiting for its
        own ack before passing the turn — so the service observes exactly
        the injector's arrival order regardless of scheduling.  The
        churned queries use a keyword absent from the stream, so the
        stable queries' results must match a churn-free serial reference
        bit-for-bit.
        """
        clean = make_clean(120, seed=12)
        injector = FaultInjector(
            clean, seed=23, disorder_fraction=0.25, max_disorder=MAX_LATENESS
        )
        arrivals = injector.materialize()
        stable = [make_spec("kw", "concert"), make_spec("all")]
        service = SurgeService(list(stable), max_lateness=MAX_LATENESS)
        server = server_factory(service, chunk_size=8)

        subscriber = connect(server)
        subscriber.subscribe(maxsize=4096, name="audit", queries=["kw", "all"])

        batches = [arrivals[i : i + 10] for i in range(0, len(arrivals), 10)]
        n_feeders = 3
        turn = threading.Condition()
        state = {"next": 0}
        feeder_errors: list[BaseException] = []

        def feeder(slot: int) -> None:
            try:
                with connect(server) as client:
                    for index in range(slot, len(batches), n_feeders):
                        with turn:
                            turn.wait_for(lambda: state["next"] == index)
                        # Send inside my turn and wait for the ack: the
                        # engine has fully consumed this batch before the
                        # next connection may send the following one.
                        client.ingest(batches[index])
                        with turn:
                            state["next"] = index + 1
                            turn.notify_all()
            except BaseException as exc:  # pragma: no cover - surfaced below
                feeder_errors.append(exc)
                with turn:
                    state["next"] = len(batches)
                    turn.notify_all()

        stop_churn = threading.Event()
        churn_errors: list[BaseException] = []

        def churner(slot: int) -> None:
            try:
                with connect(server) as client:
                    round_no = 0
                    while not stop_churn.is_set():
                        query_id = f"churn-{slot}-{round_no}"
                        client.register(make_spec(query_id, keyword="absent"))
                        client.unregister(query_id)
                        round_no += 1
            except BaseException as exc:  # pragma: no cover - surfaced below
                churn_errors.append(exc)

        feeders = [
            threading.Thread(target=feeder, args=(slot,)) for slot in range(n_feeders)
        ]
        churners = [threading.Thread(target=churner, args=(slot,)) for slot in range(3)]
        for thread in feeders + churners:
            thread.start()
        for thread in feeders:
            thread.join(timeout=120)
        stop_churn.set()
        for thread in churners:
            thread.join(timeout=30)
        assert not feeder_errors and not churn_errors
        assert state["next"] == len(batches)

        with connect(server) as admin:
            admin.flush()
            results = {
                query_id: decode_result(record)
                for query_id, record in admin.results().items()
                if query_id in ("kw", "all")
            }
            # Quiesce the pump, then check the conservation law from the
            # server-side counters.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = admin.stats()
                records = stats["subscriptions"]
                if records and all(
                    record["offered"]
                    == record["delivered"] + record["dropped"] + record["depth"]
                    for record in records
                ):
                    break
                time.sleep(0.05)
            assert records
            for record in records:
                assert (
                    record["offered"]
                    == record["delivered"] + record["dropped"] + record["depth"]
                ), record
        subscriber.close()

        expected = serial_reference(
            stable, arrivals, max_lateness=MAX_LATENESS
        )
        assert results == expected


class TestClientConnectResilience:
    """Satellite: ServerClient connect retries, backoff and request deadlines."""

    def test_backoff_schedule_doubles_and_caps(self):
        schedule = connect_backoff_schedule(6, base=0.1, cap=0.8, jitter=0.0)
        assert schedule == [0.1, 0.2, 0.4, 0.8, 0.8, 0.8]
        assert connect_backoff_schedule(0) == []

    def test_backoff_schedule_jitter_is_seeded_and_bounded(self):
        kwargs = dict(base=0.05, cap=1.0, jitter=0.5)
        jittered = connect_backoff_schedule(10, rng=random.Random(1234), **kwargs)
        assert jittered == connect_backoff_schedule(
            10, rng=random.Random(1234), **kwargs
        )
        plain = connect_backoff_schedule(10, jitter=0.0, base=0.05, cap=1.0)
        for delay, base_delay in zip(jittered, plain):
            # Stretched by a uniform factor in [1, 1.5): never shorter than
            # the exponential floor, never past the jitter bound.
            assert base_delay <= delay < base_delay * 1.5

    def test_refused_connection_without_retries_fails_fast(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        started = time.monotonic()
        with pytest.raises(OSError):
            ServerClient("127.0.0.1", port, timeout=5.0)
        assert time.monotonic() - started < 2.0

    def test_connect_retries_ride_out_a_late_binding_listener(self):
        """A client started before its server connects once the bind lands."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        accepted = threading.Event()

        def late_bind():
            time.sleep(0.3)
            listener = socket.create_server(("127.0.0.1", port))
            try:
                conn, _ = listener.accept()
                accepted.set()
                conn.close()
            finally:
                listener.close()

        binder = threading.Thread(target=late_bind, daemon=True)
        binder.start()
        client = ServerClient(
            "127.0.0.1",
            port,
            timeout=5.0,
            connect_retries=40,
            connect_backoff=0.05,
            connect_backoff_max=0.2,
            connect_jitter=0.0,
        )
        client.close()
        binder.join(timeout=5.0)
        assert accepted.is_set()

    def test_request_deadline_bounds_a_stalled_reply(self):
        """A server that accepts but never answers cannot wedge the client."""
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            client = ServerClient(
                "127.0.0.1", listener.getsockname()[1], timeout=60.0
            )
            # Hold the accepted socket open: the server is connected but
            # will never answer.
            stalled, _ = listener.accept()
            started = time.monotonic()
            with pytest.raises(socket.timeout):
                client.request({"type": "ping"}, deadline=0.2)
            assert time.monotonic() - started < 5.0
            client.close()
            stalled.close()
        finally:
            listener.close()


class TestEndpointInUse:
    """Satellite: EADDRINUSE becomes a typed error naming the way out."""

    def test_start_background_raises_typed_error(self):
        occupier = socket.create_server(("127.0.0.1", 0))
        port = occupier.getsockname()[1]
        service = SurgeService([make_spec("q")])
        try:
            server = SurgeServer(service, host="127.0.0.1", port=port)
            with pytest.raises(EndpointInUseError) as excinfo:
                server.start_background()
            assert excinfo.value.port == port
            assert f"127.0.0.1:{port} is already in use" in str(excinfo.value)
        finally:
            service.close()
            occupier.close()

    def test_metrics_endpoint_collision_is_typed_too(self):
        occupier = socket.create_server(("127.0.0.1", 0))
        port = occupier.getsockname()[1]
        service = SurgeService([make_spec("q")])
        try:
            server = SurgeServer(
                service, host="127.0.0.1", port=0, metrics_port=port
            )
            with pytest.raises(EndpointInUseError) as excinfo:
                server.start_background()
            assert excinfo.value.kind == "metrics"
        finally:
            service.close()
            occupier.close()

    def test_cli_serve_exits_1_with_listen_advice(self, tmp_path, capsys):
        from repro.cli import main

        occupier = socket.create_server(("127.0.0.1", 0))
        port = occupier.getsockname()[1]
        queries_path = tmp_path / "queries.json"
        queries_path.write_text(
            '[{"id": "q", "rect": [1.5, 1.5], "window": 8, "backend": "python"}]'
        )
        try:
            code = main(
                [
                    "serve",
                    "--listen",
                    f"127.0.0.1:{port}",
                    "--queries",
                    str(queries_path),
                ]
            )
        finally:
            occupier.close()
        assert code == 1
        err = capsys.readouterr().err
        assert "already in use" in err
        assert "--listen" in err  # the advice names the override
