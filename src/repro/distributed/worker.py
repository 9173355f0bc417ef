"""The ``repro worker`` process: a remote host for service shards.

A worker is deliberately dumb: it dials the coordinator (with the
client's connect retry + backoff, so racing the coordinator's bind is
fine), says ``hello``, then serves one frame at a time — build or
restore a :class:`~repro.service.shards.ShardState` on ``assign``, apply
one shard message on ``scatter``, answer ``heartbeat`` probes, drop a
shard on ``release``, exit on ``bye`` or coordinator EOF.  All policy
(assignment, retries, failover, rebalancing) lives coordinator-side, so
any worker can host any shard at any time — the py_experimenter model of
interchangeable pull workers, applied to resident shard state.

Exactly-once under retries: :class:`WorkerShardHost` caches its last
reply per shard and answers a repeated ``seq`` from the cache without
re-applying the message (see :mod:`repro.distributed.protocol`).
"""

from __future__ import annotations

import logging
import os
import sys
from typing import Any

from repro.distributed.protocol import (
    DISTRIBUTED_SCHEMA,
    decode_payload,
    heartbeat_ack_frame,
    hello_frame,
    reply_frame,
    worker_error_frame,
)
from repro.server.client import ServerClient
from repro.server.protocol import ProtocolError
from repro.service.shards import ShardState

logger = logging.getLogger(__name__)


class WorkerShardHost:
    """Socket-free frame handler: the worker's whole brain.

    Kept separate from the connection loop so the dedupe and assignment
    semantics are directly unit-testable without a coordinator.
    """

    def __init__(self) -> None:
        self.shards: dict[int, ShardState] = {}
        #: Per-shard ``(seq, reply_frame)`` of the last applied request —
        #: the at-most-once cache consulted before applying anything.
        self._last: dict[int, tuple[int, dict[str, Any]]] = {}

    def _cached(self, shard: int, seq: int) -> dict[str, Any] | None:
        last = self._last.get(shard)
        if last is not None and last[0] == seq:
            return last[1]
        return None

    def handle_frame(self, frame: dict[str, Any]) -> dict[str, Any] | None:
        """Answer one coordinator frame; ``None`` means orderly shutdown."""
        kind = frame.get("type")
        if kind == "heartbeat":
            return heartbeat_ack_frame(int(frame.get("seq", 0)))
        if kind == "bye":
            return None
        if kind not in ("scatter", "assign", "release"):
            raise ProtocolError(f"unexpected frame type {kind!r} from coordinator")
        shard = int(frame["shard"])
        seq = int(frame["seq"])
        cached = self._cached(shard, seq)
        if cached is not None:
            return cached
        try:
            if kind == "assign":
                reply = reply_frame(shard, seq, self._assign(shard, frame))
            elif kind == "release":
                self.shards.pop(shard, None)
                reply = reply_frame(shard, seq, True)
            else:
                message = decode_payload(frame["payload"])
                state = self.shards.get(shard)
                if state is None:
                    raise KeyError(f"shard {shard} is not assigned to this worker")
                result = state.handle(message)
                reply = reply_frame(
                    shard, seq, result, ckpt=message[0] == "checkpoint"
                )
        except Exception as exc:  # deterministic shard failure, not transport
            reply = worker_error_frame(shard, seq, exc)
        self._last[shard] = (seq, reply)
        return reply

    def _assign(self, shard: int, frame: dict[str, Any]) -> list[str]:
        base = decode_payload(frame["payload"])
        base_kind, payload = base
        if base_kind == "specs":
            state = ShardState(payload)
        elif base_kind == "snapshot":
            state = ShardState()
            state.restore(payload)
        else:
            raise ValueError(f"unknown assign base {base_kind!r}")
        self.shards[shard] = state
        return list(state.pipelines)


class ShardWorker:
    """One worker process: dial, say hello, serve frames until told to stop."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: str | None = None,
        connect_retries: int = 10,
        connect_backoff: float = 0.1,
        connect_timeout: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name or f"worker-{os.getpid()}"
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self.connect_timeout = connect_timeout

    def run(self) -> int:
        """Serve until ``bye``/EOF; returns a process exit code."""
        try:
            client = ServerClient(
                self.host,
                self.port,
                timeout=None,  # the coordinator paces the connection
                connect_retries=self.connect_retries,
                connect_backoff=self.connect_backoff,
                connect_timeout=self.connect_timeout,
            )
        except OSError as exc:
            print(
                f"worker {self.name}: cannot reach coordinator "
                f"{self.host}:{self.port}: {exc}",
                file=sys.stderr,
            )
            return 1
        host = WorkerShardHost()
        try:
            client.send(hello_frame(self.name, os.getpid()))
            ack = client.recv_raw()
            if ack.get("type") != "hello_ack" or ack.get("schema") != DISTRIBUTED_SCHEMA:
                print(
                    f"worker {self.name}: coordinator refused admission: {ack}",
                    file=sys.stderr,
                )
                return 1
            print(
                f"worker {self.name}: joined coordinator "
                f"{self.host}:{self.port} as worker {ack.get('worker_id')}",
                file=sys.stderr,
                flush=True,
            )
            while True:
                try:
                    frame = client.recv_raw()
                except ConnectionError:
                    # The coordinator went away (crash or close without a
                    # bye); shard state dies with this process — by design,
                    # it is reconstructible from the checkpoint directory.
                    logger.info("worker %s: coordinator connection closed", self.name)
                    return 0
                reply = host.handle_frame(frame)
                if reply is None:
                    return 0
                client.send(reply)
        except ProtocolError as exc:
            print(f"worker {self.name}: protocol error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"worker {self.name}: connection error: {exc}", file=sys.stderr)
            return 1
        finally:
            client.close()


__all__ = ["ShardWorker", "WorkerShardHost"]
