"""Result bus: the service-side surface for per-query updates and stats.

Every chunk broadcast produces one :class:`QueryUpdate` per live query.
Shards answer once per *detector unit* (the queries sharing one monitor,
see :class:`~repro.service.shards.UnitRecord`); the service expands each
unit's record into its members' updates, with the lag already stamped, so
the bus only ever sees per-query updates.  The :class:`ResultBus` keeps the
latest update per query, fans updates out to subscribers (dashboards, alert
hooks, tests), and accumulates the per-query :class:`QueryStats` — objects
routed, shard busy time, and the chunk *lag* (how long a query's answer
trailed the service receiving the chunk, i.e. wall time of the whole
broadcast minus nothing: the query's result is only available once its
shard's reply is gathered).  Members of one unit share the unit's result
object; their updates, stats, drop credits and subscription filters stay
per query.

Two subscriber surfaces coexist:

* :meth:`ResultBus.subscribe` — the legacy synchronous callback, still
  isolated (a raising callback is counted and skipped, never kills
  ingestion) but *unbounded*: a slow callback slows the publish path.
* :meth:`ResultBus.open_subscription` — a bounded queue with a selectable
  slow-consumer policy (:data:`SUBSCRIPTION_POLICIES`): ``block``
  propagates backpressure to the publisher, ``drop_oldest`` discards the
  stalest update (counted globally and per query in
  :attr:`QueryStats.dropped_results`), ``evict`` unsubscribes the laggard.
  Whatever the consumer does, bus memory is bounded by
  ``sum(maxsize)`` updates.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, NamedTuple

from repro.core.base import RegionResult
from repro.obs.counters import counter, declared, gauge
from repro.service.overload import OverloadError, OverloadStats
from repro.streams.watermark import IngestStats

logger = logging.getLogger(__name__)

#: Selectable slow-consumer policies for bounded subscriptions.
SUBSCRIPTION_POLICIES = ("block", "drop_oldest", "evict")


class SubscriptionSelfBlockError(RuntimeError):
    """A blocking subscription would deadlock its own publisher.

    Raised by a ``policy="block"`` subscription with no ``block_timeout``
    when the publishing thread is also the only thread that has ever
    consumed from it and the queue is full: waiting would hang forever,
    because the one thread able to make room is the one about to wait.
    Single-threaded callers that both publish and drain should drain
    first, set a ``block_timeout``, or use ``drop_oldest``.
    """

    def __init__(self, message: str, *, subscription_name: str) -> None:
        super().__init__(message)
        self.subscription_name = subscription_name


class QueryUpdate(NamedTuple):
    """One query's answer after one ingestion step.

    ``busy_seconds`` is the time the query's pipeline spent routing and
    detecting inside its shard; ``lag_seconds`` (stamped by the service, not
    the shard) is the wall time from chunk submission until this update was
    surfaced — the queueing/transport overhead a tenant actually observes.
    ``shed`` marks an update whose chunk was load-shed for this query: the
    carried ``result`` is the last computed answer, not a fresh one.

    Immutable, because subscribers share one instance by reference; a named
    tuple because the service builds one per query per chunk, at a third of
    a frozen dataclass's construction cost.
    """

    query_id: str
    chunk_index: int
    result: RegionResult | None
    objects_routed: int
    busy_seconds: float
    lag_seconds: float = 0.0
    shed: bool = False


@dataclass
class QueryStats:
    """Cumulative per-query counters maintained by the bus."""

    objects_routed: int = counter("Objects routed to the query.")
    chunks_processed: int = counter("Chunks the query's pipeline processed.")
    busy_seconds: float = counter(
        "Seconds the query's pipeline spent routing and detecting.", 0.0
    )
    last_lag_seconds: float = gauge(
        "Result lag of the latest update: wall time from chunk submission "
        "to the update surfacing.",
        0.0,
    )
    max_lag_seconds: float = gauge(
        "Largest result lag observed: wall time from chunk submission to "
        "the update surfacing.",
        0.0,
    )
    dropped_results: int = counter(
        "Updates discarded by bounded subscriptions' drop_oldest policy "
        "(summed across subscriptions)."
    )
    chunks_shed: int = counter(
        "Chunks load-shed for the query while the service was degraded."
    )

    @property
    def objects_per_second(self) -> float:
        """Routed-object throughput against this query's own busy time."""
        if self.busy_seconds <= 0.0:
            return 0.0
        return self.objects_routed / self.busy_seconds

    def observe(self, update: QueryUpdate) -> None:
        if update.shed:
            self.chunks_shed += 1
            return
        self.objects_routed += update.objects_routed
        self.chunks_processed += 1
        self.busy_seconds += update.busy_seconds
        self.last_lag_seconds = update.lag_seconds
        if update.lag_seconds > self.max_lag_seconds:
            self.max_lag_seconds = update.lag_seconds

    @classmethod
    def from_dict(cls, record: dict) -> "QueryStats":
        return cls(**record)


@dataclass
class ServiceStats:
    """Aggregate counters for one service instance.

    ``object_query_pairs`` is the multi-tenant work unit: every pushed
    object is examined by every live query, so a chunk of ``n`` objects
    against ``m`` queries contributes ``n·m`` pairs.  The aggregate
    ``pairs_per_second`` over the ingestion wall time is the benchmark
    headline (``benchmarks/bench_service.py``).

    ``per_query``, ``ingest`` and ``overload`` are views over state the
    bus, the ingest tier and the overload governor own and persist
    themselves, so they are not counters of this record.
    """

    objects_pushed: int = counter("Objects pushed into the service.")
    chunks_pushed: int = counter("Chunks dispatched to the shards.")
    object_query_pairs: int = counter(
        "Object-query pairs examined: each chunk of n objects against m "
        "live queries adds n*m."
    )
    wall_seconds: float = counter(
        "Wall-clock seconds spent dispatching chunks.", 0.0
    )
    per_query: dict[str, QueryStats] = field(default_factory=dict)
    ingest: IngestStats = field(default_factory=IngestStats)
    overload: OverloadStats = field(default_factory=OverloadStats)

    @property
    def pairs_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.object_query_pairs / self.wall_seconds


class Subscription:
    """A bounded per-subscriber queue with a slow-consumer policy.

    Consumers pull with :meth:`get` / :meth:`drain`; the publisher enqueues
    through the owning bus.  The queue never holds more than ``maxsize``
    updates, whatever the consumer does:

    * ``block`` — the publisher waits for space (backpressure propagates to
      the ingestion path); a ``block_timeout`` bounds the wait and raises
      :class:`~repro.service.overload.OverloadError` on expiry, so a dead
      consumer cannot hang the service forever.  ``maxsize`` must be
      positive (a zero-capacity blocking queue could never accept).
    * ``drop_oldest`` — the stalest update is discarded to make room,
      counted in :attr:`dropped` and per query.  ``maxsize == 0`` degrades
      to dropping every offered update — still bounded, still counted.
    * ``evict`` — the subscription is closed and detached from the bus on
      the first overflowing publish (``maxsize == 0`` evicts on the first
      publish), counted in ``ResultBus.evicted_subscribers``.

    Every publish that enqueues (or closes) wakes consumers blocked in
    :meth:`get`, under every policy: a ``timeout`` there bounds the wait
    for a publish that never comes, it is not how updates are delivered.

    Memory per subscriber is the queue (buffered ≤ ``maxsize``) plus
    whatever the consumer has taken and not yet finished with.  The wire
    pump (:mod:`repro.server.server`) holds at most one drained batch in
    flight — :meth:`get` then :meth:`drain`, so ≤ ``maxsize + 1`` updates —
    and takes no more until that batch is written.

    Counters satisfy ``offered == delivered + dropped + depth`` at every
    quiescent point (i.e. outside a concurrent :meth:`get`); ``delivered``
    counts an update the moment :meth:`get`/:meth:`drain` hands it over, so
    an in-flight batch is already on the ``delivered`` side.  With a
    ``query_ids`` filter, updates for other queries bypass the subscription
    entirely — they are not offered, so the identity holds over the
    filtered updates alone.
    """

    def __init__(
        self,
        *,
        maxsize: int,
        policy: str = "block",
        block_timeout: float | None = None,
        name: str | None = None,
        query_ids: Iterable[str] | None = None,
    ) -> None:
        maxsize = int(maxsize)
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        if policy not in SUBSCRIPTION_POLICIES:
            raise ValueError(
                f"policy must be one of {SUBSCRIPTION_POLICIES}, got {policy!r}"
            )
        if policy == "block" and maxsize == 0:
            raise ValueError(
                "a zero-capacity blocking subscription could never accept an "
                "update; use maxsize >= 1 or the drop_oldest/evict policy"
            )
        if block_timeout is not None and block_timeout <= 0:
            raise ValueError(f"block_timeout must be positive, got {block_timeout!r}")
        self.maxsize = maxsize
        self.policy = policy
        self.block_timeout = block_timeout
        self.name = name
        #: Optional per-query filter: ``None`` = every update, otherwise
        #: only updates whose ``query_id`` is in the set are offered.
        self.query_ids: frozenset[str] | None = (
            frozenset(query_ids) if query_ids is not None else None
        )
        self._queue: deque[QueryUpdate] = deque()
        self._cond = threading.Condition()
        #: Thread idents that have ever consumed (get/drain) — the
        #: self-block detector's evidence that nobody else can make room.
        self._consumer_idents: set[int] = set()
        self.offered = 0
        self.delivered = 0
        self.dropped = 0
        self.peak_depth = 0
        self.closed = False
        self.evicted = False

    @property
    def depth(self) -> int:
        """Updates currently buffered."""
        return len(self._queue)

    def _offer(self, update: QueryUpdate) -> list[str] | None:
        """Enqueue one update (publisher side).

        Returns the query ids of any updates discarded to make room, or
        ``None`` when the subscription must be evicted.

        Single exit: whichever policy ran, a change a consumer could be
        waiting for (an enqueue or a close) reaches ``peak_depth`` and
        ``notify_all`` at the bottom — a policy branch that returned early
        would leave a blocked :meth:`get` asleep until its timeout.
        """
        if self.query_ids is not None and update.query_id not in self.query_ids:
            return []
        with self._cond:
            if self.closed:
                return []
            self.offered += 1
            dropped_ids: list[str] = []
            if self.policy == "evict":
                if len(self._queue) >= self.maxsize:
                    self.evicted = True
                    self.closed = True
                else:
                    self._queue.append(update)
            elif self.policy == "drop_oldest":
                if self.maxsize == 0:
                    self.dropped += 1
                    dropped_ids.append(update.query_id)
                else:
                    while len(self._queue) >= self.maxsize:
                        stale = self._queue.popleft()
                        self.dropped += 1
                        dropped_ids.append(stale.query_id)
                    self._queue.append(update)
            else:  # block
                if (
                    self.block_timeout is None
                    and len(self._queue) >= self.maxsize
                    and self._consumer_idents == {threading.get_ident()}
                ):
                    # The queue is full, the wait would be unbounded, and
                    # the only thread that has ever drained this
                    # subscription is the one publishing: nobody else can
                    # make room, so waiting would deadlock.  Fail typed
                    # and loud instead of hanging the ingestion path.
                    label = self.name if self.name is not None else "<anonymous>"
                    raise SubscriptionSelfBlockError(
                        f"subscription {label!r} would self-deadlock: "
                        f"policy=block with no block_timeout, queue full "
                        f"(maxsize={self.maxsize}), and the publishing "
                        f"thread is the only consumer this subscription "
                        f"has ever had; drain first, set a block_timeout, "
                        f"or use the drop_oldest policy",
                        subscription_name=label,
                    )
                if not self._cond.wait_for(
                    lambda: self.closed or len(self._queue) < self.maxsize,
                    timeout=self.block_timeout,
                ):
                    raise OverloadError(
                        f"subscriber queue full for {self.block_timeout}s "
                        f"(maxsize={self.maxsize}, policy=block)",
                        depth_chunks=float(len(self._queue)),
                    )
                if not self.closed:
                    self._queue.append(update)
            if len(self._queue) > self.peak_depth:
                self.peak_depth = len(self._queue)
            self._cond.notify_all()
            return None if self.evicted else dropped_ids

    def get(self, timeout: float | None = None) -> QueryUpdate | None:
        """Pop the oldest buffered update (``None`` on timeout/closed-empty)."""
        with self._cond:
            self._consumer_idents.add(threading.get_ident())
            if not self._cond.wait_for(
                lambda: self._queue or self.closed, timeout=timeout
            ):
                return None
            if not self._queue:
                return None
            update = self._queue.popleft()
            self.delivered += 1
            self._cond.notify_all()
            return update

    def drain(self) -> list[QueryUpdate]:
        """Pop everything currently buffered, oldest first."""
        with self._cond:
            self._consumer_idents.add(threading.get_ident())
            drained = list(self._queue)
            self._queue.clear()
            self.delivered += len(drained)
            self._cond.notify_all()
            return drained

    def close(self) -> None:
        """Stop accepting updates (buffered ones remain drainable)."""
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    def counters(self) -> dict[str, int]:
        """The subscription's accounting as a plain dict."""
        return {
            "offered": self.offered,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "depth": self.depth,
            "peak_depth": self.peak_depth,
        }


class ResultBus:
    """Latest-result cache plus subscriber fan-out for query updates.

    Subscriber callbacks are *isolated*: a raising callback must not kill
    ingestion (it runs on the service's push path), so :meth:`publish`
    catches the exception, counts it in :attr:`subscriber_errors`, logs it,
    and keeps delivering the update to the remaining subscribers.  Bounded
    :class:`Subscription` queues (see :meth:`open_subscription`) bound the
    memory a slow consumer can pin.
    """

    def __init__(self) -> None:
        self._latest: dict[str, QueryUpdate] = {}
        self._stats: dict[str, QueryStats] = {}
        self._subscribers: list[Callable[[QueryUpdate], None]] = []
        self._subscriptions: list[Subscription] = []
        #: Exceptions raised (and swallowed) by subscriber callbacks.
        self.subscriber_errors = 0
        #: Subscriptions detached by the ``evict`` policy.
        self.evicted_subscribers = 0
        #: Optional :class:`~repro.obs.tracer.Tracer` (set by the owning
        #: service); when enabled, every :meth:`publish` records one
        #: ``bus.publish`` span covering the whole fan-out.
        self.tracer = None

    def subscribe(self, callback: Callable[[QueryUpdate], None]) -> None:
        """Register a callback invoked once per update, in publish order."""
        self._subscribers.append(callback)

    def open_subscription(
        self,
        *,
        maxsize: int,
        policy: str = "block",
        block_timeout: float | None = None,
        name: str | None = None,
        query_ids: Iterable[str] | None = None,
    ) -> Subscription:
        """Open a bounded pull subscription (see :class:`Subscription`)."""
        subscription = Subscription(
            maxsize=maxsize,
            policy=policy,
            block_timeout=block_timeout,
            name=name,
            query_ids=query_ids,
        )
        self._subscriptions.append(subscription)
        return subscription

    def subscriptions(self) -> list[Subscription]:
        """The live bounded subscriptions (a copy; for stats surfaces)."""
        return list(self._subscriptions)

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach and close a bounded subscription."""
        subscription.close()
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            pass

    def publish(self, updates: Iterable[QueryUpdate]) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            started = perf_counter()
            self._publish(updates)
            tracer.record("bus.publish", started, perf_counter(), lane="bus")
            return
        self._publish(updates)

    def _publish(self, updates: Iterable[QueryUpdate]) -> None:
        latest, all_stats = self._latest, self._stats
        for update in updates:
            query_id = update.query_id
            latest[query_id] = update
            stats = all_stats.get(query_id)
            if stats is None:
                stats = all_stats[query_id] = QueryStats()
            stats.observe(update)
            for callback in self._subscribers:
                try:
                    callback(update)
                except Exception:
                    self.subscriber_errors += 1
                    logger.exception(
                        "result-bus subscriber %r failed on update for query %s "
                        "(isolated; delivery continues)",
                        callback,
                        query_id,
                    )
            if self._subscriptions:
                evicted: list[Subscription] = []
                for subscription in self._subscriptions:
                    dropped_ids = subscription._offer(update)
                    if dropped_ids is None:
                        evicted.append(subscription)
                        continue
                    for dropped_id in dropped_ids:
                        self.stats(dropped_id).dropped_results += 1
                for subscription in evicted:
                    self._subscriptions.remove(subscription)
                    self.evicted_subscribers += 1
                    logger.warning(
                        "result-bus subscription evicted after overflowing its "
                        "%d-update queue (policy=evict)",
                        subscription.maxsize,
                    )

    def latest(self, query_id: str) -> QueryUpdate | None:
        """The most recent update for a query (``None`` before the first)."""
        return self._latest.get(query_id)

    def stats(self, query_id: str) -> QueryStats:
        """Cumulative stats for a query (zeros before its first update)."""
        stats = self._stats.get(query_id)
        if stats is None:
            stats = self._stats[query_id] = QueryStats()
        return stats

    def forget(self, query_id: str) -> None:
        """Drop the cached state of a removed query."""
        self._latest.pop(query_id, None)
        self._stats.pop(query_id, None)

    def max_queue_depth(self) -> int:
        """Deepest bounded-subscription queue right now (0 with none open)."""
        if not self._subscriptions:
            return 0
        return max(subscription.depth for subscription in self._subscriptions)

    def peak_queue_depth(self) -> int:
        """Deepest any bounded-subscription queue has ever been."""
        if not self._subscriptions:
            return 0
        return max(subscription.peak_depth for subscription in self._subscriptions)

    # ------------------------------------------------------------------
    # Durability (service checkpoints carry the cumulative stats along)
    # ------------------------------------------------------------------
    def export_stats(self) -> dict[str, dict]:
        """Per-query stats in JSON form: each record's declared counters."""
        return {query_id: declared(stats) for query_id, stats in self._stats.items()}

    def load_stats(self, records: dict[str, dict]) -> None:
        """Replace the cumulative per-query stats (checkpoint restore)."""
        self._stats = {
            query_id: QueryStats.from_dict(record)
            for query_id, record in records.items()
        }
