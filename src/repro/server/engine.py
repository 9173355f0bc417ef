"""Command engine: one worker thread owning the service, many front ends.

:class:`SurgeService` is single-threaded by contract — every mutation
(ingest, registry change, checkpoint, flush) must come from one thread.
The asyncio front end (:mod:`repro.server.server`) is inherently
concurrent, so the engine funnels *every* operation through a FIFO command
queue drained by a single worker thread that owns the service.  Callers
get a :class:`concurrent.futures.Future` back; the asyncio side awaits it
via :func:`asyncio.wrap_future`, blocking pump threads wait on it
directly.

Overload maps onto the queue in two layers:

* **admission** — ingest submissions beyond ``max_queued_batches`` are
  refused *at submit time* with a typed
  :class:`~repro.service.overload.OverloadError` (the wire turns it into
  a ``503`` reply, never a dropped connection);
* **service** — an ``OverloadError`` raised inside the service (error
  policy, or a blocking subscription's ``block_timeout``) propagates
  through the command's future and maps to the same ``503``.

Degraded-mode transitions are detected after every command (the worker
compares ``service.degraded`` against the last observed value) and pushed
through the ``on_control`` callback — the server broadcasts them to
subscribers as ``control`` frames.

Draining (SIGTERM/SIGINT or the ``drain`` admin frame) is FIFO-exact:
commands accepted before the drain request are settled, later submissions
are refused with :class:`EngineDrainingError`, and the drain step itself
takes the final checkpoint (when durability is attached) *without*
flushing the reorder buffer — the checkpoint persists the held-back
arrivals, so a ``--resume`` continues bit-identically to an uninterrupted
run.  Without durability the buffer is flushed instead, so accepted data
is reflected in the final results rather than silently lost.
"""

from __future__ import annotations

import logging
import queue
import threading
from concurrent.futures import Future
from typing import Any, Callable

from repro.obs.counters import declared
from repro.server import protocol
from repro.service.bus import Subscription
from repro.service.overload import OverloadError
from repro.service.service import SurgeService
from repro.service.spec import QuerySpec
from repro.state.recovery import encode_stream_time

logger = logging.getLogger(__name__)

_STOP = object()


class EngineDrainingError(RuntimeError):
    """The engine is draining and no longer accepts commands."""


class ServerEngine:
    """Serialise service operations behind a bounded command queue."""

    def __init__(
        self,
        service: SurgeService,
        *,
        chunk_size: int = 512,
        max_queued_batches: int = 256,
        on_control: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if max_queued_batches < 1:
            raise ValueError(
                f"max_queued_batches must be >= 1, got {max_queued_batches}"
            )
        self._service = service
        self.chunk_size = chunk_size
        self.max_queued_batches = max_queued_batches
        self.on_control = on_control
        self._commands: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._queued_ingest = 0
        self._draining = False
        self._drain_future: Future | None = None
        self._degraded_seen = service.degraded
        self.ingest_rejected = 0
        self._worker = threading.Thread(
            target=self._run, name="surge-engine", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Submission (any thread)
    # ------------------------------------------------------------------
    def submit(self, kind: str, payload: Any = None) -> Future:
        """Enqueue one command; the returned future carries its result."""
        future: Future = Future()
        with self._lock:
            if self._draining:
                future.set_exception(
                    EngineDrainingError(
                        "server is draining and no longer accepts commands"
                    )
                )
                return future
            if kind == "ingest":
                if self._queued_ingest >= self.max_queued_batches:
                    self.ingest_rejected += 1
                    future.set_exception(
                        OverloadError(
                            f"ingest queue full: {self._queued_ingest} "
                            f"batches already queued "
                            f"(max_queued_batches={self.max_queued_batches})",
                            depth_chunks=float(self._queued_ingest),
                        )
                    )
                    return future
                self._queued_ingest += 1
            self._commands.put((kind, payload, future))
        return future

    def request_drain(self) -> Future:
        """Begin draining (idempotent): settle the queue, then finalise.

        Returns the future of the drain step itself — it resolves (with a
        summary dict) once every previously-accepted command has settled
        and the final checkpoint/flush is done.
        """
        with self._lock:
            if self._drain_future is not None:
                return self._drain_future
            self._draining = True
            self._drain_future = Future()
            self._commands.put(("_drain", None, self._drain_future))
            self._commands.put(_STOP)
        return self._drain_future

    @property
    def draining(self) -> bool:
        return self._draining

    def stop(self) -> None:
        """Hard stop (tests): end the worker without the drain step."""
        with self._lock:
            if not self._draining:
                self._draining = True
                self._commands.put(_STOP)
        self._worker.join(timeout=30)

    def join(self, timeout: float | None = None) -> None:
        self._worker.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Worker thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            command = self._commands.get()
            if command is _STOP:
                break
            kind, payload, future = command
            if kind == "ingest":
                with self._lock:
                    self._queued_ingest -= 1
            try:
                result = self._execute(kind, payload)
            except BaseException as exc:  # noqa: BLE001 - forwarded verbatim
                if not future.set_running_or_notify_cancel():
                    continue
                future.set_exception(exc)
            else:
                if future.set_running_or_notify_cancel():
                    future.set_result(result)
            self._observe_degraded()
            if kind == "_drain":
                break
        # Fail whatever slipped in behind the stop/drain marker instead of
        # leaving its submitters waiting forever.
        while True:
            try:
                command = self._commands.get_nowait()
            except queue.Empty:
                break
            if command is _STOP:
                continue
            _, _, future = command
            if future.set_running_or_notify_cancel():
                future.set_exception(
                    EngineDrainingError("server drained before this command ran")
                )

    def _observe_degraded(self) -> None:
        degraded = self._service.degraded
        if degraded == self._degraded_seen:
            return
        self._degraded_seen = degraded
        stats = self._service.overload_stats()
        event = {
            "type": "control",
            "event": "degraded_entered" if degraded else "degraded_exited",
            "depth_chunks": self._service.queue_depth_chunks(),
            "shedding": list(stats.shedding),
        }
        logger.info(
            "service %s degraded mode at depth %.2f chunks",
            "entered" if degraded else "exited",
            event["depth_chunks"],
            extra={
                "degraded": degraded,
                "depth_chunks": event["depth_chunks"],
                "shedding": event["shedding"],
            },
        )
        if self.on_control is None:
            return
        try:
            self.on_control(event)
        except Exception:  # pragma: no cover - defensive isolation
            logger.exception("control-event callback failed (isolated)")

    def _execute(self, kind: str, payload: Any) -> Any:
        service = self._service
        if kind == "ingest":
            chunks = 0
            updates = 0
            for chunk_updates in service.feed(payload, self.chunk_size):
                chunks += 1
                updates += len(chunk_updates)
            return {
                "accepted": len(payload),
                "chunks_dispatched": chunks,
                "updates": updates,
                "chunk_offset": service.chunk_offset,
                "chunk_index": service.chunk_index,
            }
        if kind == "register":
            spec = payload
            if not isinstance(spec, QuerySpec):
                spec = QuerySpec.from_dict(spec)
            service.add_query(spec)
            return {"query_id": spec.query_id, "queries": len(service.query_ids)}
        if kind == "unregister":
            service.remove_query(payload)
            return {"query_id": payload, "queries": len(service.query_ids)}
        if kind == "subscribe":
            options = dict(payload)
            return service.bus.open_subscription(
                maxsize=options.get("maxsize", 64),
                policy=options.get("policy", "drop_oldest"),
                block_timeout=options.get("block_timeout"),
                name=options.get("name"),
                query_ids=options.get("query_ids"),
            )
        if kind == "unsubscribe":
            service.bus.unsubscribe(payload)
            return None
        if kind == "flush":
            chunks = 0
            for _ in service.flush_pending(self.chunk_size):
                chunks += 1
            return {
                "chunks_dispatched": chunks,
                "chunk_offset": service.chunk_offset,
                "chunk_index": service.chunk_index,
            }
        if kind == "results":
            return {
                query_id: protocol.encode_result(result)
                for query_id, result in service.results().items()
            }
        if kind == "stats":
            return self._snapshot_stats()
        if kind == "checkpoint":
            return str(service.checkpoint())
        if kind == "_drain":
            return self._finalise()
        raise ValueError(f"unknown engine command {kind!r}")

    def _finalise(self) -> dict[str, Any]:
        service = self._service
        flushed = 0
        checkpoint: str | None = None
        if service.checkpoint_dir is not None:
            # Do NOT flush: the held-back reorder buffer and the pending
            # remainder are checkpoint state, and persisting them (instead
            # of force-dispatching) is what makes a resume bit-identical
            # to the uninterrupted run.
            checkpoint = str(service.checkpoint())
        else:
            for _ in service.flush_pending(self.chunk_size):
                flushed += 1
        for subscription in service.bus.subscriptions():
            subscription.close()
        return {
            "chunks_flushed": flushed,
            "checkpoint": checkpoint,
            "chunk_offset": service.chunk_offset,
        }

    # ------------------------------------------------------------------
    # Stats snapshot (worker thread only, via the "stats" command)
    # ------------------------------------------------------------------
    def _snapshot_stats(self) -> dict[str, Any]:
        service = self._service
        stats = service.stats()
        subscriptions: list[dict[str, Any]] = []
        for subscription in service.bus.subscriptions():
            record: dict[str, Any] = {
                "name": subscription.name,
                "policy": subscription.policy,
                "maxsize": subscription.maxsize,
            }
            record.update(subscription.counters())
            subscriptions.append(record)
        return {
            "service": dict(
                declared(stats), pairs_per_second=stats.pairs_per_second
            ),
            "queries": {
                query_id: declared(stats.per_query[query_id])
                for query_id in service.query_ids
            },
            "ingest": declared(stats.ingest),
            "overload": declared(stats.overload),
            "degraded": service.degraded,
            "queue_depth_chunks": service.queue_depth_chunks(),
            "queued_ingest_batches": self._queued_ingest,
            "ingest_rejected": self.ingest_rejected,
            "chunk_offset": service.chunk_offset,
            "chunk_index": service.chunk_index,
            "stream_time": encode_stream_time(service.stream_time),
            "subscriptions": subscriptions,
            "stages": service.stage_stats(),
            "checkpoint_prune_errors": service.checkpoint_prune_errors,
            "distributed": service.distributed_stats(),
        }


def subscription_options(payload: dict[str, Any]) -> dict[str, Any]:
    """Validate and normalise a ``subscribe`` request's options."""
    maxsize = payload.get("maxsize", 64)
    if not isinstance(maxsize, int) or maxsize < 0:
        raise ValueError(f"subscribe maxsize must be a non-negative int, got {maxsize!r}")
    policy = payload.get("policy", "drop_oldest")
    block_timeout = payload.get("block_timeout")
    if block_timeout is not None:
        block_timeout = float(block_timeout)
    queries = payload.get("queries")
    if queries is not None:
        if not isinstance(queries, list) or not all(
            isinstance(query_id, str) for query_id in queries
        ):
            raise ValueError("subscribe queries must be a list of query ids")
    return {
        "maxsize": maxsize,
        "policy": policy,
        "block_timeout": block_timeout,
        "query_ids": queries,
        "name": payload.get("name"),
    }


__all__ = [
    "EngineDrainingError",
    "ServerEngine",
    "Subscription",
    "subscription_options",
]
