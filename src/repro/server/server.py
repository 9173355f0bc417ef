"""The asyncio network front end for :class:`~repro.service.SurgeService`.

One :class:`SurgeServer` owns:

* a TCP listener speaking the length-prefixed JSON frame protocol
  (:mod:`repro.server.protocol`) — ingest batches, registry changes,
  subscriptions, stats;
* an optional HTTP listener serving ``GET /metrics`` in Prometheus text
  format (:mod:`repro.server.metrics`) and ``GET /healthz``;
* a :class:`~repro.server.engine.ServerEngine` worker thread that owns
  the service — every operation from every connection funnels through it.

Overload semantics on the wire (the PR 7 tier, surfaced):

* an :class:`~repro.service.overload.OverloadError` — from the engine's
  admission bound, the service's ``error`` policy, or a blocking
  subscription's timeout — becomes a typed ``503 overloaded`` reply with
  the observed depth and retry advice; the connection stays open;
* degraded-mode entry/exit is pushed to every subscribed connection as a
  ``control`` frame;
* SIGINT/SIGTERM (or a ``drain`` admin frame) triggers a graceful drain:
  stop accepting connections, settle every already-accepted command,
  take the final checkpoint (durability attached) or flush (not), notify
  subscribers with a ``draining`` control frame (one that does not take it
  within :data:`DRAIN_NOTIFY_TIMEOUT` is closed), close, exit 0.

Subscribed connections get a dedicated *pump thread*: it blocks on the
bounded :class:`~repro.service.bus.Subscription` and is woken by the
publish itself.  On each wake-up it takes the head update plus everything
else buffered, encodes every frame, and hands the event loop one joined
byte string — one socket write, one ``drain`` and one thread↔loop hop per
wake-up, however many frames it carries (``pump_writes_total`` beside
``frames_out_total`` in the stats; their ratio is the coalescing factor).
The pump waits for that write before taking more, so a slow TCP peer
fills the subscription and the chosen ``block``/``drop_oldest``/``evict``
policy engages on the engine's publish path, exactly as in-process.
Per-subscriber memory is therefore bounded by the subscription's queue
(≤ ``maxsize`` updates) plus the one batch in flight (≤ ``maxsize + 1``:
the head plus a queue the publisher refilled before the drain).
"""

from __future__ import annotations

import asyncio
import errno
import itertools
import logging
import signal
import threading
from time import perf_counter
from typing import Any

from repro.server import protocol
from repro.server.engine import EngineDrainingError, ServerEngine, subscription_options
from repro.server.metrics import render_prometheus
from repro.server.protocol import (
    ProtocolError,
    decode_frame_body,
    decode_frame_length,
    decode_object,
    encode_frame,
    encode_update,
    error_frame,
    overloaded_frame,
)
from repro.service.bus import Subscription
from repro.service.overload import OverloadError
from repro.service.service import SurgeService
from repro.service.spec import QuerySpec

logger = logging.getLogger(__name__)

#: Advice string attached to 503 replies caused by queue pressure.
BACKPRESSURE_ADVICE = (
    "slow down, drain subscribers, and retry after a backoff"
)
DRAINING_ADVICE = "server is draining; reconnect to the resumed instance"
#: Longest a graceful drain waits for one subscriber to take the ``draining``
#: control frame.  A peer that stopped reading parks its pump inside
#: :meth:`_Connection.write` holding the write lock; past this bound the
#: drain closes that connection and proceeds to the final checkpoint.
DRAIN_NOTIFY_TIMEOUT = 5.0


class EndpointInUseError(OSError):
    """A listener's endpoint is already bound by another process.

    The common operational trip-wire: ``repro serve --resume`` re-serves
    the endpoint recorded in the manifest, and the previous instance (or
    an unrelated process) is still holding it.  Typed so the CLI can turn
    it into advice naming the ``--listen`` override instead of a raw
    ``OSError: [Errno 98]`` traceback.
    """

    def __init__(self, host: str, port: int, kind: str = "listener") -> None:
        super().__init__(
            errno.EADDRINUSE,
            f"{kind} endpoint {host}:{port} is already in use",
        )
        self.host = host
        self.port = port
        self.kind = kind


def _endpoint_in_use(exc: OSError) -> bool:
    return exc.errno == errno.EADDRINUSE


class _Connection:
    """Per-connection state: serialised writes, one optional subscription."""

    _ids = itertools.count(1)

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.id = next(self._ids)
        self.reader = reader
        self.writer = writer
        self.closed = False
        self.subscription: Subscription | None = None
        self._write_lock = asyncio.Lock()

    async def send(self, frame: dict[str, Any], server: "SurgeServer") -> None:
        await self.write(encode_frame(frame), 1, server)

    async def write(self, data: bytes, frames: int, server: "SurgeServer") -> None:
        """One socket write carrying ``frames`` already-encoded frames."""
        async with self._write_lock:
            if self.closed:
                raise ConnectionResetError("connection already closed")
            self.writer.write(data)
            await self.writer.drain()
        server.frames_out += frames


class SurgeServer:
    """Serve a :class:`SurgeService` over TCP (+ optional HTTP metrics)."""

    def __init__(
        self,
        service: SurgeService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics_host: str | None = None,
        metrics_port: int | None = None,
        chunk_size: int = 512,
        max_queued_batches: int = 256,
    ) -> None:
        self._service = service
        self.host = host
        self.port = port
        self.metrics_host = metrics_host
        self.metrics_port = metrics_port
        self.chunk_size = chunk_size
        self.max_queued_batches = max_queued_batches
        self._engine: ServerEngine | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._connections: set[_Connection] = set()
        self._tasks: set[asyncio.Task] = set()
        self._pumps: list[threading.Thread] = []
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None
        self._drain_requested = False
        self.drain_summary: dict[str, Any] | None = None
        self.connections_total = 0
        self.frames_in = 0
        self.frames_out = 0
        #: Socket writes made by subscription pumps; ``frames_out`` counts
        #: every frame, so pushed frames ÷ this is the coalescing factor.
        self.pump_writes = 0

    @property
    def engine(self) -> ServerEngine:
        if self._engine is None:
            raise RuntimeError("server is not running")
        return self._engine

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run_forever(self, *, install_signals: bool = True) -> dict[str, Any]:
        """Serve on the calling thread until drained; returns the summary."""
        asyncio.run(self._main(install_signals=install_signals))
        return self.drain_summary or {}

    def start_background(self) -> "SurgeServer":
        """Serve on a daemon thread; returns once the listeners are bound."""
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._thread_main, args=(ready,), name="surge-server", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        if self._startup_error is not None:
            if isinstance(self._startup_error, EndpointInUseError):
                # Keep the typed refusal typed: the CLI maps it to advice
                # naming the --listen override.
                raise self._startup_error
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def _thread_main(self, ready: threading.Event) -> None:
        try:
            asyncio.run(self._main(ready=ready, install_signals=False))
        except BaseException as exc:  # pragma: no cover - startup failures
            self._startup_error = exc
        finally:
            ready.set()

    def request_drain(self) -> None:
        """Begin a graceful drain (thread- and signal-safe, idempotent)."""
        self._drain_requested = True
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    def drain(self, timeout: float = 120.0) -> dict[str, Any]:
        """Drain a background server and join its thread."""
        self.request_drain()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                raise RuntimeError("server did not drain within the timeout")
        return self.drain_summary or {}

    async def _main(
        self,
        *,
        ready: threading.Event | None = None,
        install_signals: bool = False,
    ) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._engine = ServerEngine(
            self._service,
            chunk_size=self.chunk_size,
            max_queued_batches=self.max_queued_batches,
            on_control=self._on_control_event,
        )
        try:
            server = await asyncio.start_server(
                self._handle_conn, self.host, self.port
            )
        except OSError as exc:
            if _endpoint_in_use(exc):
                raise EndpointInUseError(self.host, self.port) from exc
            raise
        self.port = server.sockets[0].getsockname()[1]
        metrics_server = None
        if self.metrics_port is not None:
            try:
                metrics_server = await asyncio.start_server(
                    self._handle_http,
                    self.metrics_host or self.host,
                    self.metrics_port,
                )
            except OSError as exc:
                server.close()
                if _endpoint_in_use(exc):
                    raise EndpointInUseError(
                        self.metrics_host or self.host,
                        self.metrics_port,
                        kind="metrics",
                    ) from exc
                raise
            self.metrics_port = metrics_server.sockets[0].getsockname()[1]
        # Record the listener in the service so checkpoints carry it and a
        # --resume can re-serve the same endpoint (manifest "server" field).
        self._service.server_info = {
            "host": self.host,
            "port": self.port,
            "metrics_host": self.metrics_host or self.host,
            "metrics_port": self.metrics_port,
        }
        if install_signals:
            for signum in (signal.SIGINT, signal.SIGTERM):
                self._loop.add_signal_handler(signum, self.request_drain)
        if ready is not None:
            ready.set()
        if self._drain_requested:
            self._stop_event.set()
        try:
            await self._stop_event.wait()
        finally:
            # 1. Stop accepting new connections.
            server.close()
            await server.wait_closed()
            if metrics_server is not None:
                metrics_server.close()
                await metrics_server.wait_closed()
            # 2. Tell subscribers we are going away (best effort, bounded).
            await self._broadcast(
                {"type": "control", "event": "draining"}, bound=DRAIN_NOTIFY_TIMEOUT
            )
            # 3. Settle every accepted command, then checkpoint/flush.
            summary = await asyncio.wrap_future(self._engine.request_drain())
            self.drain_summary = summary
            # 4. Close every connection; pump threads notice their closed
            #    subscriptions and exit once the buffered tail is delivered.
            for conn in list(self._connections):
                conn.closed = True
                try:
                    conn.writer.close()
                except Exception:
                    pass
            # Let the handler coroutines observe their closed transports
            # and finish cleanly — leaving them to be cancelled at loop
            # teardown makes asyncio log spurious CancelledErrors.
            pending = [task for task in self._tasks if not task.done()]
            if pending:
                await asyncio.wait(pending, timeout=10)
            for pump in self._pumps:
                pump.join(timeout=10)
            if install_signals:
                for signum in (signal.SIGINT, signal.SIGTERM):
                    self._loop.remove_signal_handler(signum)

    # ------------------------------------------------------------------
    # Frame protocol
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        self.connections_total += 1
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        try:
            while not conn.closed:
                prefix = await reader.readexactly(protocol.LENGTH_STRUCT.size)
                length = decode_frame_length(prefix)
                body = await reader.readexactly(length)
                self.frames_in += 1
                try:
                    payload = decode_frame_body(body)
                except ProtocolError as exc:
                    await conn.send(error_frame(400, str(exc)), self)
                    continue
                await self._dispatch(conn, payload)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        except ProtocolError as exc:
            # A bad length prefix means the byte stream is desynchronised:
            # reply once (best effort) and hang up.
            try:
                await conn.send(error_frame(400, str(exc)), self)
            except Exception:
                pass
        finally:
            conn.closed = True
            self._connections.discard(conn)
            if conn.subscription is not None and self._engine is not None:
                # Detach through the engine so publish never races a close.
                self._engine.submit("unsubscribe", conn.subscription)
            try:
                writer.close()
            except Exception:
                pass

    async def _call(self, kind: str, payload: Any = None) -> Any:
        return await asyncio.wrap_future(self.engine.submit(kind, payload))

    def _error_reply(self, exc: BaseException) -> dict[str, Any]:
        if isinstance(exc, OverloadError):
            return overloaded_frame(
                str(exc),
                depth_chunks=exc.depth_chunks,
                advice=BACKPRESSURE_ADVICE,
            )
        if isinstance(exc, EngineDrainingError):
            return error_frame(
                503, str(exc), advice=DRAINING_ADVICE, draining=True
            )
        if isinstance(exc, KeyError):
            message = exc.args[0] if exc.args else str(exc)
            return error_frame(404, str(message))
        if isinstance(exc, ValueError):
            code = 409 if "already registered" in str(exc) else 400
            return error_frame(code, str(exc))
        logger.exception(
            "unexpected error handling a frame",
            exc_info=exc,
            extra={"error_type": type(exc).__name__},
        )
        return error_frame(500, f"internal error: {exc}")

    async def _dispatch(self, conn: _Connection, payload: dict[str, Any]) -> None:
        kind = payload.get("type")
        try:
            if kind == "ingest":
                records = payload.get("objects")
                if not isinstance(records, list):
                    raise ValueError('ingest frame needs an "objects" list')
                objects = [decode_object(record) for record in records]
                reply = await self._call("ingest", objects)
                reply["type"] = "ack"
                await conn.send(reply, self)
            elif kind == "register":
                record = payload.get("spec")
                if not isinstance(record, dict):
                    raise ValueError('register frame needs a "spec" object')
                try:
                    spec = QuerySpec.from_dict(record)
                except ValueError:
                    raise
                except Exception as exc:
                    raise ValueError(f"malformed query spec: {exc}") from exc
                reply = await self._call("register", spec)
                reply["type"] = "ack"
                await conn.send(reply, self)
            elif kind == "unregister":
                query_id = payload.get("query_id")
                if not isinstance(query_id, str):
                    raise ValueError('unregister frame needs a "query_id" string')
                reply = await self._call("unregister", query_id)
                reply["type"] = "ack"
                await conn.send(reply, self)
            elif kind == "subscribe":
                if conn.subscription is not None:
                    await conn.send(
                        error_frame(409, "connection already has a subscription"),
                        self,
                    )
                    return
                options = subscription_options(payload)
                if options["name"] is None:
                    options["name"] = f"conn-{conn.id}"
                subscription = await self._call("subscribe", options)
                conn.subscription = subscription
                pump = threading.Thread(
                    target=self._pump,
                    args=(conn, subscription),
                    name=f"surge-pump-{conn.id}",
                    daemon=True,
                )
                self._pumps.append(pump)
                pump.start()
                await conn.send(
                    {
                        "type": "ack",
                        "subscription": options["name"],
                        "policy": subscription.policy,
                        "maxsize": subscription.maxsize,
                    },
                    self,
                )
            elif kind == "stats":
                snapshot = await self._stats_snapshot()
                await conn.send({"type": "stats", "stats": snapshot}, self)
            elif kind == "results":
                results = await self._call("results")
                await conn.send({"type": "results", "results": results}, self)
            elif kind == "flush":
                reply = await self._call("flush")
                reply["type"] = "ack"
                await conn.send(reply, self)
            elif kind == "checkpoint":
                path = await self._call("checkpoint")
                await conn.send({"type": "ack", "checkpoint": path}, self)
            elif kind == "ping":
                await conn.send({"type": "ack", "pong": True}, self)
            elif kind == "drain":
                self.request_drain()
                await conn.send({"type": "ack", "draining": True}, self)
            else:
                await conn.send(
                    error_frame(400, f"unknown frame type {kind!r}"), self
                )
        except (ConnectionResetError, BrokenPipeError):
            raise
        except BaseException as exc:  # noqa: BLE001 - typed reply, never a drop
            await conn.send(self._error_reply(exc), self)

    # ------------------------------------------------------------------
    # Subscription pump (one thread per subscribed connection)
    # ------------------------------------------------------------------
    def _pump(self, conn: _Connection, subscription: Subscription) -> None:
        loop = self._loop
        assert loop is not None
        tracer = self._service.tracer
        while True:
            # Woken by the publish (or the close); the timeout only lets a
            # pump whose connection died without a publish notice and exit.
            head = subscription.get(timeout=0.25)
            if head is None:
                if conn.closed or (
                    subscription.closed and subscription.depth == 0
                ):
                    return
                continue
            batch = [head, *subscription.drain()]
            traced = tracer is not None and tracer.enabled
            pump_started = perf_counter() if traced else 0.0
            data = b"".join(
                encode_frame(encode_update(update)) for update in batch
            )
            try:
                future = asyncio.run_coroutine_threadsafe(
                    self._pump_write(conn, data, len(batch)), loop
                )
                # Wait for the write: a slow peer must fill the bounded
                # subscription (engaging its policy), not an unbounded
                # asyncio write buffer.
                future.result()
            except Exception:
                return
            if traced:
                tracer.record(
                    "server.pump",
                    pump_started,
                    perf_counter(),
                    lane="server",
                    meta={"frames": len(batch), "bytes": len(data)},
                )

    async def _pump_write(self, conn: _Connection, data: bytes, frames: int) -> None:
        await conn.write(data, frames, self)
        # Counted on the loop thread: pumps are many, the loop is one.
        self.pump_writes += 1

    def _on_control_event(self, event: dict[str, Any]) -> None:
        # Engine worker thread: hand the broadcast to the event loop and
        # return immediately (publishing must not wait on slow sockets).
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            asyncio.run_coroutine_threadsafe(self._broadcast(event), loop)
        except RuntimeError:  # pragma: no cover - loop shutting down
            pass

    async def _broadcast(
        self, frame: dict[str, Any], *, bound: float | None = None
    ) -> None:
        """Send ``frame`` to every subscribed connection (best effort).

        With a ``bound`` (the drain path) a peer that does not take the
        frame in time is closed, so the broadcast always returns.
        """

        async def notify(conn: _Connection) -> None:
            try:
                await asyncio.wait_for(conn.send(frame, self), bound)
            except asyncio.TimeoutError:
                # Not reading: abort rather than close, so the write its
                # pump is parked in fails now and releases the lock.
                conn.closed = True
                conn.writer.transport.abort()
            except Exception:
                pass

        # Concurrently: a stuck peer must not delay a reading one's notice.
        await asyncio.gather(
            *(
                notify(conn)
                for conn in list(self._connections)
                if conn.subscription is not None
            )
        )

    # ------------------------------------------------------------------
    # Stats + metrics
    # ------------------------------------------------------------------
    async def _stats_snapshot(self) -> dict[str, Any]:
        snapshot = await self._call("stats")
        snapshot["server"] = {
            "connections": len(self._connections),
            "subscribers": sum(
                1 for conn in self._connections if conn.subscription is not None
            ),
            "connections_total": self.connections_total,
            "frames_in_total": self.frames_in,
            "frames_out_total": self.frames_out,
            "pump_writes_total": self.pump_writes,
            "ingest_rejected_total": self.engine.ingest_rejected,
            "listen": f"{self.host}:{self.port}",
        }
        return snapshot

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status, content_type, body = 500, "text/plain; charset=utf-8", b"error\n"
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=10)
            parts = request_line.decode("latin-1", "replace").split()
            while True:  # drain request headers
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                if line in (b"\r\n", b"\n", b""):
                    break
            method = parts[0] if parts else ""
            path = (parts[1] if len(parts) > 1 else "").split("?", 1)[0]
            if method != "GET":
                status, body = 405, b"method not allowed\n"
            elif path == "/metrics":
                try:
                    snapshot = await self._stats_snapshot()
                except EngineDrainingError:
                    status, body = 503, b"draining\n"
                else:
                    status = 200
                    content_type = "text/plain; version=0.0.4; charset=utf-8"
                    body = render_prometheus(snapshot).encode("utf-8")
            elif path == "/healthz":
                status, body = 200, b"ok\n"
            else:
                status, body = 404, b"not found\n"
        except (asyncio.TimeoutError, ConnectionResetError):
            return
        finally:
            reasons = {200: "OK", 404: "Not Found", 405: "Method Not Allowed",
                       503: "Service Unavailable", 500: "Internal Server Error"}
            head = (
                f"HTTP/1.0 {status} {reasons.get(status, 'Error')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
            try:
                writer.write(head + body)
                await writer.drain()
                writer.close()
            except Exception:
                pass


__all__ = [
    "SurgeServer",
    "BACKPRESSURE_ADVICE",
    "DRAINING_ADVICE",
    "EndpointInUseError",
]
