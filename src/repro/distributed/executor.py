"""The coordinator: :class:`RemoteExecutor`, a fault-tolerant shard backend.

The executor listens on a TCP endpoint; ``repro worker`` processes dial
in and are admitted with a ``hello``/``hello_ack`` exchange.  Shards are
assigned round-robin over the fleet and every shard message becomes one
RPC over the worker's connection:

* **Deadlines + bounded retries** — each RPC has a deadline
  (``rpc_timeout``); on expiry the request is re-sent with the same
  per-shard ``seq`` after an exponential backoff, up to ``rpc_retries``
  times.  The worker deduplicates by ``seq`` (see
  :mod:`repro.distributed.worker`), so a resend can never double-apply a
  chunk; stale replies to earlier copies are discarded by ``seq`` match.
* **Heartbeats** — a monitor thread probes idle workers every
  ``heartbeat_interval`` seconds (a worker busy computing a chunk is
  skipped: its held RPC lock *is* liveness).  ``heartbeat_miss_budget``
  consecutive unanswered probes declare the worker dead.
* **Checkpoint-driven failover** — the executor records, per shard, the
  snapshot file of the last acknowledged checkpoint generation (its
  *base*, on shared storage) and keeps a replay ledger of every
  state-mutating message since (the WAL bounds this tail: the service's
  checkpoint floor guarantees a checkpoint at least every
  ``REMOTE_CHECKPOINT_FLOOR_CHUNKS`` chunks).  When a worker dies, each
  of its shards is re-assigned to a surviving/new worker, restored from
  its base, and the ledger is replayed in order — bit-identical to
  having never crashed, because :class:`ShardState` is deterministic.
  The message in flight when the worker died is then re-dispatched
  normally.
* **Elastic membership** — workers may join at any time; the coordinator
  rebalances at the next safe chunk boundary (executor calls happen
  between chunks by construction of the service loop) by migrating
  shards through the same restore-and-replay path.  A worker may leave
  by dropping its connection; its shards fail over.

Everything observable goes through :class:`DistributedStats` and the
``remote.scatter`` / ``remote.failover`` tracer spans.
"""

from __future__ import annotations

import logging
import os
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Sequence

from repro.distributed.protocol import (
    DISTRIBUTED_SCHEMA,
    assign_frame,
    bye_frame,
    decode_payload,
    heartbeat_frame,
    hello_ack_frame,
    recv_frame,
    release_frame,
    scatter_frame,
    send_frame,
)
from repro.distributed.stats import DistributedStats
from repro.obs.counters import declared
from repro.obs.tracer import current as _current_tracer
from repro.server.protocol import ProtocolError, error_frame
from repro.service.shards import ShardExecutor
from repro.service.spec import QuerySpec
from repro.state.snapshot import SnapshotError

logger = logging.getLogger(__name__)

#: Maximum chunks between checkpoints the service enforces when running
#: remote: a shard can only fail over to its last durable generation plus
#: the replay ledger, so the ledger tail must stay bounded.
REMOTE_CHECKPOINT_FLOOR_CHUNKS = 64

#: Shard-message kinds that mutate shard state and therefore enter the
#: replay ledger.  Read-only kinds (results/top_k/stats) and the kinds
#: with their own bookkeeping (checkpoint/restore/trace) stay out.
_MUTATING_KINDS = frozenset({"chunk", "advance", "add", "remove", "compact"})


class WorkerLostError(RuntimeError):
    """Transport-level loss of a worker (drop, or retry budget exhausted)."""

    def __init__(self, worker: "_WorkerHandle", reason: str) -> None:
        super().__init__(f"worker {worker.name} (id {worker.id}) lost: {reason}")
        self.worker = worker


class RemoteShardError(RuntimeError):
    """A deterministic failure inside a remote shard, re-raised here.

    Not retried and not a failover trigger: the same message would fail
    the same way on any worker (exactly the in-process behaviour).
    """


class _WorkerHandle:
    """Coordinator-side state of one admitted worker connection."""

    def __init__(self, sock: socket.socket, worker_id: int, name: str) -> None:
        self.sock = sock
        self.id = worker_id
        self.name = name
        #: Serialises RPCs on the connection; held for the whole
        #: request/reply exchange.  The heartbeat thread only probes when
        #: it can take this without blocking — a held lock is liveness.
        self.lock = threading.Lock()
        self.alive = True
        self.shards: set[int] = set()
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<worker {self.name} id={self.id} alive={self.alive} shards={sorted(self.shards)}>"


class RemoteExecutor(ShardExecutor):
    """Dispatch shard messages to remote worker processes, fault-tolerantly."""

    name = "remote"

    def __init__(
        self,
        shard_specs: Sequence[Sequence[QuerySpec]],
        *,
        workers: int = 1,
        listen: tuple[str, int] = ("127.0.0.1", 0),
        spawn_workers: int = 0,
        rpc_timeout: float = 30.0,
        rpc_retries: int = 3,
        retry_backoff: float = 0.05,
        retry_backoff_max: float = 1.0,
        heartbeat_interval: float = 1.0,
        heartbeat_miss_budget: int = 3,
        join_timeout: float = 60.0,
        on_listening=None,
    ) -> None:
        super().__init__(shard_specs)
        if workers < 1:
            raise ValueError("the remote executor needs at least one worker")
        self._specs = [tuple(specs) for specs in shard_specs]
        self.rpc_timeout = float(rpc_timeout)
        self.rpc_retries = int(rpc_retries)
        self.retry_backoff = float(retry_backoff)
        self.retry_backoff_max = float(retry_backoff_max)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_miss_budget = int(heartbeat_miss_budget)
        self.join_timeout = float(join_timeout)
        self.stats = DistributedStats()

        #: Guards membership (worker list, alive flags) and wakes waiters
        #: on join/loss.
        self._membership = threading.Condition()
        self._workers: list[_WorkerHandle] = []
        self._next_worker_id = 0
        self._rebalance_pending = False
        self._closed = False

        # Dispatch-side state: only ever touched by the service thread.
        self._owner: list[_WorkerHandle | None] = [None] * self.n_shards
        self._seq = [0] * self.n_shards
        self._hb_seq = 0
        #: Per-shard snapshot path of the last acknowledged checkpoint /
        #: restore generation; ``None`` = no durable base yet (failover
        #: rebuilds from specs and replays the full ledger).
        self._base: list[str | None] = [None] * self.n_shards
        #: Mutating messages since the last acknowledged checkpoint:
        #: ``("b", None, message)`` for broadcasts, ``("s", shard,
        #: message)`` for single-shard sends.
        self._ledger: list[tuple[str, int | None, tuple]] = []
        self._trace_enabled = False
        self._tracer = None  # set by the owning service via set_tracer()

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(tuple(listen))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="remote-accept", daemon=True
        )
        self._accept_thread.start()
        if on_listening is not None:
            on_listening(self.host, self.port)

        self.spawned: list[subprocess.Popen] = []
        if spawn_workers:
            self._spawn(spawn_workers)

        try:
            self._wait_for_workers(workers)
            with self._membership:
                fleet = [w for w in self._workers if w.alive]
                self._rebalance_pending = False
            for shard in range(self.n_shards):
                target = fleet[shard % len(fleet)]
                self._install_shard(target, shard)
        except BaseException:
            self.close()
            raise

        self._hb_stop = threading.Event()
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop, name="remote-heartbeat", daemon=True
        )
        self._hb_thread.start()
        #: Batches run one thread per worker; the fleet never needs more
        #: concurrent batches than it has shards.
        self._pool = ThreadPoolExecutor(
            max_workers=self.n_shards, thread_name_prefix="remote-dispatch"
        )

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _spawn(self, count: int) -> None:
        """Launch local worker subprocesses pointed at this coordinator."""
        import repro

        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + (os.pathsep + existing if existing else "")
            )
        for index in range(count):
            self.spawned.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-c",
                        "from repro.cli import main; raise SystemExit(main())",
                        "worker",
                        "--connect",
                        f"{self.host}:{self.port}",
                        "--name",
                        f"spawned-{index}",
                        "--connect-retries",
                        "10",
                    ],
                    env=env,
                    stderr=subprocess.DEVNULL,
                )
            )

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            try:
                conn.settimeout(10.0)
                hello = recv_frame(conn)
                if (
                    hello.get("type") != "hello"
                    or hello.get("schema") != DISTRIBUTED_SCHEMA
                ):
                    send_frame(
                        conn,
                        error_frame(
                            400,
                            f"expected a {DISTRIBUTED_SCHEMA} hello, got "
                            f"{hello.get('type')!r}/{hello.get('schema')!r}",
                        ),
                    )
                    conn.close()
                    continue
                with self._membership:
                    if self._closed:
                        conn.close()
                        return
                    worker = _WorkerHandle(
                        conn,
                        self._next_worker_id,
                        str(hello.get("name") or f"worker-{self._next_worker_id}"),
                    )
                    self._next_worker_id += 1
                    # The admission ack must hit the socket before any
                    # assignment RPC can (FIFO per connection), so send it
                    # while the membership lock still hides the worker
                    # from dispatch.
                    conn.settimeout(None)
                    send_frame(conn, hello_ack_frame(worker.id))
                    self._workers.append(worker)
                    self.stats.workers_joined += 1
                    self._rebalance_pending = True
                    self._membership.notify_all()
                logger.info(
                    "remote: worker %s joined (%d total)",
                    worker.name,
                    len(self._workers),
                    extra={"event": "remote_worker_joined", "worker": worker.name},
                )
            except (ProtocolError, OSError, ConnectionError):
                try:
                    conn.close()
                except OSError:
                    pass

    def _wait_for_workers(self, count: int) -> None:
        deadline = time.monotonic() + self.join_timeout
        with self._membership:
            while sum(1 for w in self._workers if w.alive) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    alive = sum(1 for w in self._workers if w.alive)
                    raise RuntimeError(
                        f"only {alive} of {count} workers joined the "
                        f"coordinator at {self.host}:{self.port} within "
                        f"{self.join_timeout:.0f}s — start workers with "
                        f"`repro worker --connect {self.host}:{self.port}`"
                    )
                self._membership.wait(remaining)

    def _declare_lost(self, worker: _WorkerHandle, reason: str) -> None:
        with self._membership:
            if not worker.alive:
                return
            worker.alive = False
            self.stats.workers_lost += 1
            self._membership.notify_all()
        try:
            worker.sock.close()
        except OSError:
            pass
        logger.warning(
            "remote: worker %s declared lost: %s (its %d shard(s) will "
            "fail over from their last checkpoint generation)",
            worker.name,
            reason,
            len(worker.shards),
            extra={
                "event": "remote_worker_lost",
                "worker": worker.name,
                "reason": reason,
                "shards": sorted(worker.shards),
            },
        )

    def _alive_workers(self) -> list[_WorkerHandle]:
        with self._membership:
            return [w for w in self._workers if w.alive]

    def _pick_target(self) -> _WorkerHandle:
        """The least-loaded live worker, waiting for an elastic join if none."""
        deadline = time.monotonic() + self.join_timeout
        with self._membership:
            while True:
                alive = [w for w in self._workers if w.alive]
                if alive:
                    return min(alive, key=lambda w: (len(w.shards), w.id))
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        f"no live workers left and none joined within "
                        f"{self.join_timeout:.0f}s — shard state is intact "
                        f"in the checkpoint directory; start workers with "
                        f"`repro worker --connect {self.host}:{self.port}` "
                        f"and resume"
                    )
                self._membership.wait(remaining)

    # ------------------------------------------------------------------
    # RPC core
    # ------------------------------------------------------------------
    def _next_seq(self, shard: int) -> int:
        self._seq[shard] += 1
        return self._seq[shard]

    def _exchange(
        self,
        worker: _WorkerHandle,
        frame: dict[str, Any],
        *,
        timeout: float,
        retries: int,
    ) -> dict[str, Any]:
        """One request/reply on a connection whose lock the caller holds."""
        expected_shard = frame.get("shard")
        expected_seq = frame.get("seq")
        try:
            worker.sock.settimeout(timeout)
            send_frame(worker.sock, frame)
            attempt = 0
            while True:
                try:
                    reply = recv_frame(worker.sock)
                except socket.timeout:
                    self.stats.rpc_timeouts += 1
                    if attempt >= retries:
                        raise WorkerLostError(
                            worker,
                            f"no reply to {frame.get('type')} seq {expected_seq} "
                            f"after {attempt + 1} deadline(s) of {timeout:.1f}s",
                        ) from None
                    backoff = min(
                        self.retry_backoff_max, self.retry_backoff * (2.0**attempt)
                    )
                    time.sleep(backoff)
                    attempt += 1
                    self.stats.rpc_retries += 1
                    # Resend with the same seq: the worker answers from its
                    # dedupe cache if the first copy already applied.
                    send_frame(worker.sock, frame)
                    continue
                if (
                    reply.get("shard") != expected_shard
                    or reply.get("seq") != expected_seq
                ):
                    self.stats.replies_discarded += 1
                    continue
                if reply.get("type") == "error":
                    error_type = reply.get("error_type", "Exception")
                    detail = (
                        f"shard {expected_shard} on worker {worker.name}: "
                        f"{error_type}: {reply.get('error', 'unknown error')}"
                    )
                    if error_type in ("SnapshotError", "SnapshotSchemaError"):
                        # Keep the snapshot-error type across the wire:
                        # SurgeService.restore's fallback to the previous
                        # manifest generation catches SnapshotError.
                        raise SnapshotError(detail)
                    raise RemoteShardError(detail)
                return reply
        except WorkerLostError:
            raise
        except (RemoteShardError, SnapshotError):
            raise
        except (ProtocolError, ConnectionError, OSError) as exc:
            raise WorkerLostError(worker, str(exc)) from exc

    def _rpc(self, worker: _WorkerHandle, frame: dict[str, Any]) -> Any:
        with worker.lock:
            if not worker.alive:
                raise WorkerLostError(worker, "connection already declared lost")
            reply = self._exchange(
                worker, frame, timeout=self.rpc_timeout, retries=self.rpc_retries
            )
        payload = reply.get("payload")
        return decode_payload(payload) if payload is not None else None

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        while not self._hb_stop.wait(self.heartbeat_interval):
            for worker in self._alive_workers():
                if not worker.lock.acquire(blocking=False):
                    # Busy with an RPC — the in-flight exchange's own
                    # deadline covers a hang; don't double-probe.
                    continue
                try:
                    if not worker.alive:
                        continue
                    self._hb_seq += 1
                    self.stats.heartbeats_sent += 1
                    self._exchange(
                        worker,
                        heartbeat_frame(self._hb_seq),
                        timeout=self.heartbeat_interval,
                        retries=0,
                    )
                    worker.misses = 0
                except WorkerLostError:
                    worker.misses += 1
                    self.stats.heartbeat_misses += 1
                    if worker.misses >= self.heartbeat_miss_budget:
                        self._declare_lost(
                            worker,
                            f"{worker.misses} consecutive heartbeat misses",
                        )
                except RemoteShardError:  # pragma: no cover - defensive
                    pass
                finally:
                    worker.lock.release()

    # ------------------------------------------------------------------
    # Assignment, failover, rebalance
    # ------------------------------------------------------------------
    def _install_shard(
        self, target: _WorkerHandle, shard: int, *, replay: bool = False
    ) -> None:
        """Assign ``shard`` to ``target`` from its base, optionally replaying."""
        base_path = self._base[shard]
        if base_path is None:
            base = ("specs", self._specs[shard])
        else:
            base = ("snapshot", base_path)
        self._rpc(target, assign_frame(shard, self._next_seq(shard), base))
        old = self._owner[shard]
        if old is not None:
            old.shards.discard(shard)
            if old.alive and old is not target:
                try:
                    self._rpc(old, release_frame(shard, self._next_seq(shard)))
                except WorkerLostError as exc:
                    self._declare_lost(old, str(exc))
        self._owner[shard] = target
        target.shards.add(shard)
        if self._trace_enabled:
            # Snapshots never carry a tracer (ShardState drops it when
            # pickled), so re-arm tracing before any replayed message.
            self._rpc(
                target, scatter_frame(shard, self._next_seq(shard), ("trace", True))
            )
        if replay:
            for kind, target_shard, message in self._ledger:
                if kind == "b" or target_shard == shard:
                    self._rpc(
                        target, scatter_frame(shard, self._next_seq(shard), message)
                    )

    def _failover(self, shards: Sequence[int]) -> None:
        started = time.perf_counter()
        for shard in sorted(shards):
            target = self._pick_target()
            logger.warning(
                "remote: failing shard %d over to worker %s "
                "(base=%s, ledger=%d message(s))",
                shard,
                target.name,
                self._base[shard] or "fresh specs",
                len(self._ledger),
                extra={
                    "event": "remote_shard_failover",
                    "shard": shard,
                    "worker": target.name,
                },
            )
            self._install_shard(target, shard, replay=True)
            self.stats.shards_failed_over += 1
        elapsed = time.perf_counter() - started
        self.stats.failover_seconds += elapsed
        self._record_span(
            "remote.failover",
            started,
            started + elapsed,
            meta={"shards": len(shards)},
        )

    def _maintenance(self) -> None:
        """Safe-boundary work before a dispatch: failover + rebalance."""
        dead_shards = [
            shard
            for shard, owner in enumerate(self._owner)
            if owner is not None and not owner.alive
        ]
        if dead_shards:
            self._failover(dead_shards)
        if not self._rebalance_pending:
            return
        self._rebalance_pending = False
        alive = self._alive_workers()
        if len(alive) < 2:
            return
        quota = -(-self.n_shards // len(alive))  # ceil
        for worker in sorted(alive, key=lambda w: -len(w.shards)):
            while len(worker.shards) > quota:
                target = min(alive, key=lambda w: (len(w.shards), w.id))
                if target is worker or len(target.shards) + 1 > quota:
                    break
                shard = min(worker.shards)
                logger.info(
                    "remote: rebalancing shard %d from worker %s to %s",
                    shard,
                    worker.name,
                    target.name,
                    extra={"event": "remote_shard_migrated", "shard": shard},
                )
                self._install_shard(target, shard, replay=True)
                self.stats.shards_migrated += 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _worker_batch(
        self, worker: _WorkerHandle, items: list[tuple[int, tuple]]
    ) -> list[tuple[int, str, Any]]:
        """Run one worker's share of a dispatch; never raises."""
        outcomes: list[tuple[int, str, Any]] = []
        for shard, message in items:
            try:
                frame = scatter_frame(shard, self._next_seq(shard), message)
                outcomes.append((shard, "ok", self._rpc(worker, frame)))
            except WorkerLostError as exc:
                self._declare_lost(worker, str(exc))
                outcomes.append((shard, "lost", None))
            except (RemoteShardError, SnapshotError) as exc:
                outcomes.append((shard, "fail", exc))
        return outcomes

    def _dispatch(self, pairs: Sequence[tuple[int, tuple]]) -> dict[int, Any]:
        """Deliver one message per (shard, message) pair, surviving losses."""
        started = time.perf_counter()
        self._maintenance()
        pending: dict[int, tuple] = dict(pairs)
        replies: dict[int, Any] = {}
        while pending:
            lost = [
                shard
                for shard in pending
                if self._owner[shard] is None or not self._owner[shard].alive
            ]
            if lost:
                self._failover(lost)
            by_worker: dict[_WorkerHandle, list[tuple[int, tuple]]] = {}
            for shard, message in pending.items():
                by_worker.setdefault(self._owner[shard], []).append((shard, message))
            futures = [
                self._pool.submit(self._worker_batch, worker, items)
                for worker, items in by_worker.items()
            ]
            failure: Exception | None = None
            for future in futures:
                for shard, status, value in future.result():
                    if status == "ok":
                        replies[shard] = value
                        del pending[shard]
                    elif status == "fail":
                        failure = value
                    # "lost" stays pending: the next loop iteration fails
                    # the shard over and re-dispatches the same message.
            if failure is not None:
                raise failure
        self._record_span(
            "remote.scatter",
            started,
            time.perf_counter(),
            meta={"messages": len(pairs)},
        )
        return replies

    def send(self, shard_index: int, message: tuple) -> Any:
        reply = self._dispatch([(shard_index, message)])[shard_index]
        if message[0] in _MUTATING_KINDS:
            self._ledger.append(("s", shard_index, message))
        return reply

    def broadcast(self, message: tuple) -> list[Any]:
        replies = self._dispatch(
            [(shard, message) for shard in range(self.n_shards)]
        )
        kind = message[0]
        if kind == "trace":
            self._trace_enabled = bool(message[1])
        elif kind in _MUTATING_KINDS:
            self._ledger.append(("b", None, message))
        return [replies[shard] for shard in range(self.n_shards)]

    def _scatter(self, messages: Sequence[tuple]) -> list[Any]:
        replies = self._dispatch(list(enumerate(messages)))
        kinds = {message[0] for message in messages}
        if kinds <= {"checkpoint", "restore"} and kinds:
            # All shards are durable at the paths just written/read: they
            # become the new failover bases and the ledger restarts empty.
            for shard, message in enumerate(messages):
                self._base[shard] = message[1]
            self._ledger.clear()
        else:
            for shard, message in enumerate(messages):
                if message[0] == "trace":
                    self._trace_enabled = bool(message[1])
                elif message[0] in _MUTATING_KINDS:
                    self._ledger.append(("s", shard, message))
        return [replies[shard] for shard in range(self.n_shards)]

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def set_tracer(self, tracer) -> None:
        """Adopt the owning service's tracer for coordinator-side spans."""
        self._tracer = tracer

    def _record_span(
        self, stage: str, started: float, ended: float, *, meta: dict | None = None
    ) -> None:
        tracer = self._tracer if self._tracer is not None else _current_tracer()
        if tracer is None or not tracer.enabled:
            return
        tracer.record(stage, started, ended, lane="remote", meta=meta)

    def stats_snapshot(self) -> dict[str, Any]:
        """Counters plus live fleet gauges, for the stats/metrics surface."""
        with self._membership:
            alive = sum(1 for w in self._workers if w.alive)
            total = len(self._workers)
        snapshot = declared(self.stats)
        snapshot["workers_alive"] = alive
        snapshot["workers_total"] = total
        snapshot["ledger_depth"] = len(self._ledger)
        return snapshot

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._membership:
            if self._closed:
                return
            self._closed = True
        if hasattr(self, "_hb_stop"):
            self._hb_stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        for worker in self._alive_workers():
            try:
                with worker.lock:
                    send_frame(worker.sock, bye_frame())
            except (OSError, ConnectionError):
                pass
            try:
                worker.sock.close()
            except OSError:
                pass
        if hasattr(self, "_pool"):
            self._pool.shutdown(wait=True)
        for proc in self.spawned:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)


__all__ = [
    "REMOTE_CHECKPOINT_FLOOR_CHUNKS",
    "RemoteExecutor",
    "RemoteShardError",
    "WorkerLostError",
]
