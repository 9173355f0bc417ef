"""Differential + fault-injection suite for the distributed shard tier.

The contract under test: the ``remote`` executor — shards hosted in
separate worker processes behind the coordinator's retry/heartbeat/
failover machinery — is *observationally identical* to the in-process
``serial`` executor:

* the full 10-detector differential replay (all detector names,
  heterogeneous keywords / rectangles / windows / k) is bit-identical to
  the single-monitor oracle;
* a worker SIGKILLed mid-stream is invisible in the results: its shards
  fail over to a survivor (checkpoint base + ledger replay) and the
  replayed trace still matches the oracle bit for bit;
* a retried scatter (deadline expired, worker merely slow) never
  double-applies a chunk — the worker's per-shard ``seq`` dedupe cache
  answers the resend, and the stale duplicate reply is discarded;
* elastic membership: a worker joining mid-stream takes shards at the
  next safe boundary without changing any answer.

Everything socket-level runs against real TCP connections on loopback;
the :class:`~repro.distributed.worker.WorkerShardHost` dedupe semantics
also get direct socket-free unit tests.
"""

from __future__ import annotations

import logging
import signal
import socket
import threading
import time

import pytest

from repro.core.query import SurgeQuery
from repro.distributed.executor import (
    REMOTE_CHECKPOINT_FLOOR_CHUNKS,
    RemoteExecutor,
)
from repro.distributed.protocol import (
    DISTRIBUTED_SCHEMA,
    assign_frame,
    decode_payload,
    encode_payload,
    heartbeat_frame,
    hello_frame,
    recv_frame,
    release_frame,
    scatter_frame,
    send_frame,
)
from repro.distributed.stats import DistributedStats
from repro.distributed.worker import WorkerShardHost
from repro.obs.counters import declared
from repro.server.metrics import render_prometheus
from repro.server.protocol import ProtocolError
from repro.service import QuerySpec, SurgeService, make_executor
from repro.service.shards import ShardState
from repro.state import CheckpointPolicy
from tests.helpers import make_objects, replay_oracle, result_key
from tests.test_service_differential import (
    CHUNK_SIZE,
    make_keyword_stream,
    make_specs,
)

#: Options that make a test-owned remote fleet self-contained and quick
#: to declare losses (the defaults are tuned for production patience).
FAST_FLEET = {
    "spawn_workers": 2,
    "workers": 2,
    "join_timeout": 60.0,
    "heartbeat_interval": 0.2,
    "heartbeat_miss_budget": 2,
}


def spec(query_id="q", **query_kwargs) -> QuerySpec:
    defaults = dict(rect_width=1.0, rect_height=1.0, window_length=20.0)
    defaults.update(query_kwargs)
    return QuerySpec(
        query_id=query_id, query=SurgeQuery(**defaults), backend="python"
    )


@pytest.fixture(scope="module")
def stream():
    return make_keyword_stream()


@pytest.fixture(scope="module")
def oracle(stream):
    return replay_oracle(stream, make_specs(), CHUNK_SIZE)


# ---------------------------------------------------------------------------
# WorkerShardHost: the dedupe/assignment brain, socket-free
# ---------------------------------------------------------------------------
class TestWorkerShardHost:
    def assign(self, host, shard=0, seq=1):
        frame = assign_frame(shard, seq, ("specs", (spec("a"),)))
        return host.handle_frame(frame)

    def test_assign_builds_and_reports_pipelines(self):
        host = WorkerShardHost()
        reply = self.assign(host)
        assert reply["type"] == "reply"
        assert decode_payload(reply["payload"]) == ["a"]
        assert 0 in host.shards

    def test_retried_scatter_is_not_double_applied(self):
        """The at-most-once core: a repeated seq answers from the cache."""
        host = WorkerShardHost()
        self.assign(host)
        chunk = make_objects(20, seed=3)
        frame = scatter_frame(0, 2, ("chunk", chunk, 0))
        first = host.handle_frame(frame)
        second = host.handle_frame(frame)  # the coordinator's resend
        assert second is first  # cached, not re-computed

        # The shard saw the chunk exactly once: its results match a fresh
        # shard that applied the message a single time.
        oracle_shard = ShardState([spec("a")])
        oracle_shard.handle(("chunk", chunk, 0))
        results = host.handle_frame(scatter_frame(0, 3, ("results",)))
        got = decode_payload(results["payload"])
        want = oracle_shard.handle(("results",))
        assert [(qid, result_key(r)) for qid, r in got] == [
            (qid, result_key(r)) for qid, r in want
        ]

    def test_checkpoint_reply_is_a_ckpt_ack(self, tmp_path):
        host = WorkerShardHost()
        self.assign(host)
        path = str(tmp_path / "shard-00.g000001.ckpt")
        reply = host.handle_frame(scatter_frame(0, 2, ("checkpoint", path, {})))
        assert reply["type"] == "ckpt_ack"

    def test_heartbeat_bye_and_unknown_frames(self):
        host = WorkerShardHost()
        ack = host.handle_frame(heartbeat_frame(7))
        assert ack["type"] == "heartbeat_ack" and ack["seq"] == 7
        assert host.handle_frame({"type": "bye"}) is None
        with pytest.raises(ProtocolError, match="unexpected frame"):
            host.handle_frame({"type": "results"})

    def test_deterministic_shard_failure_becomes_an_error_frame(self):
        host = WorkerShardHost()
        self.assign(host)
        reply = host.handle_frame(scatter_frame(0, 2, ("bogus",)))
        assert reply["type"] == "error"
        assert reply["error_type"] == "ValueError"
        assert "unknown shard message" in reply["error"]
        # An unassigned shard is a deterministic error too, not a crash.
        reply = host.handle_frame(scatter_frame(5, 1, ("results",)))
        assert reply["type"] == "error" and reply["error_type"] == "KeyError"

    def test_release_drops_the_shard(self):
        host = WorkerShardHost()
        self.assign(host)
        reply = host.handle_frame(release_frame(0, 2))
        assert reply["type"] == "reply"
        assert 0 not in host.shards


# ---------------------------------------------------------------------------
# An in-test worker: the wire worker's loop, in a thread we can shape
# ---------------------------------------------------------------------------
class ThreadWorker:
    """A protocol-faithful worker in a thread (injectable slowness)."""

    def __init__(self, host, port, *, name="thread-worker", delay_first_chunk=0.0):
        self.delay_first_chunk = delay_first_chunk
        self._delayed = False
        self.brain = WorkerShardHost()
        self.sock = socket.create_connection((host, port), timeout=30.0)
        send_frame(self.sock, hello_frame(name, 0))
        ack = recv_frame(self.sock)
        assert ack["type"] == "hello_ack"
        assert ack["schema"] == DISTRIBUTED_SCHEMA
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        try:
            while True:
                frame = recv_frame(self.sock)
                if (
                    self.delay_first_chunk
                    and not self._delayed
                    and frame.get("type") == "scatter"
                    and decode_payload(frame["payload"])[0] == "chunk"
                ):
                    # Simulate a stall past the coordinator's RPC deadline;
                    # both the original and the resent copy are queued behind
                    # this sleep and answered in order (the second from the
                    # dedupe cache).
                    self._delayed = True
                    time.sleep(self.delay_first_chunk)
                reply = self.brain.handle_frame(frame)
                if reply is None:
                    return
                send_frame(self.sock, reply)
        except (ConnectionError, OSError, ProtocolError):
            return

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass
        self.thread.join(timeout=10.0)


# ---------------------------------------------------------------------------
# RPC semantics over real sockets
# ---------------------------------------------------------------------------
class TestRpcSemantics:
    def test_retried_scatter_applies_once_and_counts(self):
        """Deadline expiry -> backoff resend -> dedupe: applied exactly once."""
        chunk = make_objects(30, seed=5)
        workers = []
        executor = RemoteExecutor(
            [[spec("a")]],
            workers=1,
            rpc_timeout=0.3,
            rpc_retries=5,
            retry_backoff=0.01,
            heartbeat_interval=60.0,  # keep probes out of this exchange
            join_timeout=30.0,
            on_listening=lambda host, port: workers.append(
                ThreadWorker(host, port, delay_first_chunk=1.0)
            ),
        )
        try:
            executor.send(0, ("chunk", chunk, 0))
            assert executor.stats.rpc_timeouts >= 1
            assert executor.stats.rpc_retries >= 1

            # The stale replies to the resent copies are discarded by seq.
            got = executor.send(0, ("results",))
            assert executor.stats.replies_discarded >= 1

            oracle_shard = ShardState([spec("a")])
            oracle_shard.handle(("chunk", chunk, 0))
            want = oracle_shard.handle(("results",))
            assert [(qid, result_key(r)) for qid, r in got] == [
                (qid, result_key(r)) for qid, r in want
            ]
        finally:
            executor.close()
            for worker in workers:
                worker.close()

    def test_deterministic_shard_error_propagates_without_failover(self):
        executor = RemoteExecutor(
            [[spec("a")]],
            workers=1,
            spawn_workers=1,
            join_timeout=60.0,
            heartbeat_interval=60.0,
        )
        with executor:
            with pytest.raises(RuntimeError, match="unknown shard message"):
                executor.send(0, ("bogus",))
            # The worker survives the error and keeps serving.
            assert executor.send(0, ("results",)) == [("a", None)]
            assert executor.stats.workers_lost == 0

    def test_refuses_mismatched_hello(self):
        executor = RemoteExecutor(
            [[spec("a")]],
            workers=1,
            spawn_workers=1,
            join_timeout=60.0,
            heartbeat_interval=60.0,
        )
        with executor:
            sock = socket.create_connection((executor.host, executor.port), 10.0)
            try:
                send_frame(sock, {"type": "hello", "schema": "remote-shard/v0"})
                reply = recv_frame(sock)
                assert reply["type"] == "error"
                assert DISTRIBUTED_SCHEMA in reply["error"]
            finally:
                sock.close()

    def test_elastic_join_rebalances_at_a_safe_boundary(self):
        """A late worker takes shards (restore+replay) without changing answers."""
        specs = [[spec("a")], [spec("b")], [spec("c")], [spec("d")]]
        workers = []
        executor = RemoteExecutor(
            [list(shard) for shard in specs],
            workers=1,
            heartbeat_interval=60.0,
            join_timeout=30.0,
            on_listening=lambda host, port: workers.append(
                ThreadWorker(host, port, name="first")
            ),
        )
        serial = make_executor("serial", [list(shard) for shard in specs])
        try:
            chunk = make_objects(40, seed=9)
            executor.broadcast(("chunk", chunk, 0))
            serial.broadcast(("chunk", chunk, 0))

            workers.append(
                ThreadWorker(executor.host, executor.port, name="late")
            )
            deadline = time.monotonic() + 30.0
            while executor.stats.workers_joined < 2:
                assert time.monotonic() < deadline, "late worker never joined"
                time.sleep(0.02)

            # The next dispatch is the safe boundary: rebalance happens
            # before the message, and every answer still matches serial.
            chunk2 = make_objects(80, seed=9)[40:]
            executor.broadcast(("chunk", chunk2, 1))
            serial.broadcast(("chunk", chunk2, 1))
            got = executor.broadcast(("results",))
            want = serial.broadcast(("results",))
            assert [
                [(qid, result_key(r)) for qid, r in shard] for shard in got
            ] == [[(qid, result_key(r)) for qid, r in shard] for shard in want]
            assert executor.stats.shards_migrated >= 1
            assert len(workers[1].brain.shards) >= 1  # the joiner hosts shards
        finally:
            executor.close()
            serial.close()
            for worker in workers:
                worker.close()


# ---------------------------------------------------------------------------
# Differential: remote == the single-monitor oracle
# ---------------------------------------------------------------------------
def test_remote_equals_independent_monitors(stream, oracle):
    """All 10 detectors, every chunk, bit for bit, across process boundaries."""
    oracle_trace, _, oracle_top_k, oracle_routed = oracle
    trace = []
    with SurgeService(
        make_specs(),
        shards=2,
        executor="remote",
        executor_options=dict(FAST_FLEET),
    ) as service:
        for updates in service.run(stream, CHUNK_SIZE):
            trace.append(
                {u.query_id: (result_key(u.result), u.objects_routed) for u in updates}
            )
        top_k = {
            query_id: tuple(result_key(r) for r in results)
            for query_id, results in service.top_k().items()
        }
        routed = {
            query_id: stats.objects_routed
            for query_id, stats in service.stats().per_query.items()
        }
    assert trace == oracle_trace
    assert top_k == oracle_top_k
    assert routed == oracle_routed


# ---------------------------------------------------------------------------
# Failover: SIGKILL a worker mid-stream, answers unchanged
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "with_checkpoint", [True, False], ids=["checkpointed", "ledger-only"]
)
def test_worker_kill_mid_stream_is_invisible(
    tmp_path, stream, oracle, with_checkpoint
):
    """Kill a worker process mid-run; failover keeps the trace bit-identical.

    With a checkpoint directory the failover base is the last durable
    generation plus a short ledger replay; without one the shard is rebuilt
    from specs and the full ledger — both must reproduce the oracle.
    """
    oracle_trace, _, oracle_top_k, _ = oracle
    options = dict(FAST_FLEET)
    kwargs = {}
    if with_checkpoint:
        kwargs = dict(
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_policy=CheckpointPolicy(every_chunks=2),
        )
    trace = []
    with SurgeService(
        make_specs(),
        shards=2,
        executor="remote",
        executor_options=options,
        **kwargs,
    ) as service:
        executor = service._executor
        for index, updates in enumerate(service.run(stream, CHUNK_SIZE)):
            trace.append(
                {u.query_id: (result_key(u.result), u.objects_routed) for u in updates}
            )
            if index == 2:
                # SIGKILL, not terminate: no goodbye, no flush — the
                # coordinator must *discover* the loss.
                executor.spawned[0].send_signal(signal.SIGKILL)
        top_k = {
            query_id: tuple(result_key(r) for r in results)
            for query_id, results in service.top_k().items()
        }
        distributed = service.distributed_stats()

    assert trace == oracle_trace
    assert top_k == oracle_top_k
    assert distributed is not None
    assert distributed["workers_lost"] >= 1
    assert distributed["shards_failed_over"] >= 1
    assert distributed["failover_seconds"] > 0.0
    assert distributed["workers_alive"] == 1


def test_losing_every_worker_is_a_loud_error():
    """No survivors and no joiner inside join_timeout: fail with guidance."""
    executor = RemoteExecutor(
        [[spec("a")]],
        workers=1,
        spawn_workers=1,
        join_timeout=1.0,
        heartbeat_interval=60.0,
    )
    with executor:
        executor.send(0, ("chunk", make_objects(5), 0))
        executor.spawned[0].send_signal(signal.SIGKILL)
        with pytest.raises(RuntimeError, match="no live workers"):
            # Loop: the first dispatches may still think the socket is up;
            # the mid-frame failure declares the loss and the retry path
            # must then surface the no-survivors error.
            for _ in range(10):
                executor.send(0, ("results",))
                time.sleep(0.1)


# ---------------------------------------------------------------------------
# Service integration: checkpoint floor, stats surface, metrics
# ---------------------------------------------------------------------------
class TestServiceIntegration:
    def test_checkpoint_policy_clamped_to_remote_floor(self):
        # The clamp is a plain function of the policy; drive it directly.
        from repro.state.durability import remote_cadence_floor

        loose = CheckpointPolicy(every_chunks=10_000, every_stream_seconds=5.0)
        clamped = remote_cadence_floor(loose)
        assert clamped.every_chunks == REMOTE_CHECKPOINT_FLOOR_CHUNKS
        assert clamped.every_stream_seconds == 5.0
        unbounded = remote_cadence_floor(CheckpointPolicy())
        assert unbounded.every_chunks == REMOTE_CHECKPOINT_FLOOR_CHUNKS
        tight = CheckpointPolicy(every_chunks=8)
        assert remote_cadence_floor(tight) is tight

    def test_remote_attach_applies_the_floor(self, tmp_path):
        with SurgeService(
            [spec("a")],
            executor="remote",
            executor_options={
                "workers": 1,
                "spawn_workers": 1,
                "join_timeout": 60.0,
                "heartbeat_interval": 60.0,
            },
            checkpoint_dir=tmp_path,
            checkpoint_policy=CheckpointPolicy(every_chunks=100_000),
        ) as service:
            assert (
                service.checkpoint_policy.every_chunks
                == REMOTE_CHECKPOINT_FLOOR_CHUNKS
            )

    def test_only_a_directoryless_remote_service_warns_about_the_ledger(
        self, tmp_path, caplog
    ):
        """An attached restore has its directory before the executor is built."""
        options = {
            "workers": 1,
            "spawn_workers": 1,
            "join_timeout": 60.0,
            "heartbeat_interval": 60.0,
        }

        def ledger_warnings():
            return [
                record
                for record in caplog.records
                if "remote executor without checkpoint_dir" in record.getMessage()
            ]

        with caplog.at_level(logging.WARNING, logger="repro.service.service"):
            with SurgeService(
                [spec("a")], executor="remote", executor_options=options
            ) as fresh:
                fresh.push_many(make_objects(10))
                fresh.checkpoint(tmp_path)
            assert len(ledger_warnings()) == 1
            caplog.clear()
            with SurgeService.restore(tmp_path, executor_options=options) as attached:
                assert attached.checkpoint_dir == tmp_path
            assert ledger_warnings() == []
            with SurgeService.restore(
                tmp_path, executor_options=options, attach=False
            ) as detached:
                assert detached.checkpoint_dir is None
            assert len(ledger_warnings()) == 1

    def test_distributed_stats_surface(self):
        with SurgeService([spec("a")]) as serial_service:
            assert serial_service.distributed_stats() is None
        with SurgeService(
            [spec("a")],
            executor="remote",
            executor_options={
                "workers": 1,
                "spawn_workers": 1,
                "join_timeout": 60.0,
                "heartbeat_interval": 60.0,
            },
        ) as service:
            service.push_many(make_objects(10))
            distributed = service.distributed_stats()
            assert distributed["workers_alive"] == 1
            assert distributed["workers_joined"] == 1
            assert distributed["workers_lost"] == 0
            assert distributed["ledger_depth"] >= 1  # the chunk just pushed

    def test_metrics_render_remote_families_only_when_distributed(self):
        base = {"service": {}, "queries": {}, "ingest": {}, "overload": {}}
        text = render_prometheus(dict(base))
        assert "repro_remote_" not in text
        assert "repro_checkpoint_prune_errors_total 0" in text

        stats = DistributedStats(
            rpc_retries=3, workers_lost=1, shards_failed_over=2,
            failover_seconds=0.5,
        )
        snapshot = declared(stats)
        snapshot.update(workers_alive=2, workers_total=3, ledger_depth=7)
        text = render_prometheus(dict(base, distributed=snapshot))
        assert "repro_remote_rpc_retries_total 3" in text
        assert "repro_remote_workers_lost_total 1" in text
        assert "repro_remote_shards_failed_over_total 2" in text
        assert "repro_remote_failover_seconds_total 0.5" in text
        assert "repro_remote_workers_alive 2" in text
        assert "repro_remote_ledger_depth 7" in text

    def test_remote_scatter_spans_reach_the_service_tracer(self):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        with SurgeService(
            [spec("a")],
            executor="remote",
            executor_options={
                "workers": 1,
                "spawn_workers": 1,
                "join_timeout": 60.0,
                "heartbeat_interval": 60.0,
            },
            tracer=tracer,
        ) as service:
            service.push_many(make_objects(20))
            stages = service.stage_stats()
        assert "remote.scatter" in stages
        assert stages["remote.scatter"]["count"] >= 1
