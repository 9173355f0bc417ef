"""Shard execution backends for the multi-query service.

A *shard* owns a disjoint subset of the registered queries: one
:class:`QueryPipeline` per query (spec + per-query
:class:`~repro.core.monitor.SurgeMonitor`).  The service broadcasts each
stream chunk to every shard exactly once; inside the shard the chunk is
routed and applied through the batched event path.

Shared-work execution plan
--------------------------
Each shard runs a three-tier plan that eliminates the work N queries would
redundantly repeat on one shared chunk, while staying **bit-identical** to
running every query in isolation (N independent monitors over
keyword-filtered substreams — the oracle the differential suites replay,
``tests/helpers.replay_oracle``):

1. **Inverted keyword routing** — instead of every query scanning the whole
   chunk through its own predicate (O(queries × chunk)), the shard buckets
   the chunk *once* by keyword (``keyword → sub-chunk``, plus the chunk
   itself for match-all queries), so routing costs O(chunk + matches).
2. **Shared window groups** — queries with identical (routing keyword,
   window lengths) registered at the same point of the stream see the exact
   same substream, so their sliding-window pairs are provably identical.
   Each :class:`WindowGroup` owns one
   :class:`~repro.streams.windows.SlidingWindowPair` and runs one
   ``observe_batch()`` per chunk; the resulting
   :class:`~repro.streams.objects.EventBatch` is fanned out to each member
   detector's ``apply_events()``.
3. **Shared detector units** — queries whose *entire* spec (query rectangle,
   window, α, k, algorithm, backend, options, keyword) is identical — the
   multi-tenant case of many users registering the same popular query —
   share one monitor: the unit leader applies the batch and settles once,
   the followers mirror its result.

The reply follows the plan: a shard answers a chunk with one
:class:`UnitRecord` per detector unit (member ids, result, routed count,
busy seconds, shed flag), not one update per query.  The service expands
each record into one :class:`~repro.service.bus.QueryUpdate` per member, so
with N tenants per spec a chunk's reply crosses an executor boundary as N×
fewer records and each query's update is built once.

Empty routes take a settle-free fast path: a query whose sub-chunk is empty
never moved its window clock, so no deadline can have crossed and the
previous settled result is returned as-is (counted in ``chunks_skipped``
and, honestly, in ``busy_seconds`` — the fast path costs what it costs,
essentially nothing).

Sharing never crosses a registration boundary: pipelines record the shard's
ingestion *epoch* at registration, and only same-epoch queries may share
state (a query added mid-stream starts with empty windows, so it must not
adopt a group's history).  Checkpoints pickle the whole shard in one
snapshot, so group-owned windows and unit-owned monitors are stored exactly
once (pickle memoisation) and restored with the sharing intact; a restore
re-derives the plan from the restored pipelines (re-aliasing provably
identical state).

Two in-process executors drive the shards (a third, ``remote``, lives in
:mod:`repro.distributed`):

``serial``
    All shards run inline in the calling thread.  The reference backend —
    every other backend must produce bit-identical results.

``process``
    One persistent single-worker :class:`concurrent.futures.ProcessPoolExecutor`
    per shard.  The shard's query specs are pickled to the worker once at
    start-up (the worker builds its monitors locally and keeps them alive
    across chunks); each chunk is pickled to every shard once, and each
    shard pickles back one record per detector unit.  This is the backend
    that scales with cores.

All executors speak the same message protocol (:meth:`ShardState.handle`), so
the executors contain no query logic — determinism across backends falls out
of running the identical per-shard code.
"""

from __future__ import annotations

import abc
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, NamedTuple, Sequence

from repro.core.base import RegionResult
from repro.obs.tracer import Tracer, activate
from repro.service.spec import QuerySpec
from repro.streams.objects import SpatialObject
from repro.streams.windows import SlidingWindowPair

#: Executor backends accepted by :class:`repro.service.SurgeService`.
#: ``remote`` lives in :mod:`repro.distributed` and is imported lazily by
#: :func:`make_executor` (it pulls in the network stack).
EXECUTOR_NAMES = ("serial", "process", "remote")


class QueryPipeline:
    """Spec + monitor + counters for one registered query.

    ``epoch`` is the owning shard's ingestion counter at registration time —
    the shared plan only groups pipelines with equal epochs, because only
    they have seen the same message history.  ``last_result`` caches the
    most recent settled result so chunks that route nothing to this query
    (``chunks_skipped`` counts them) can answer without re-settling the
    detector.
    """

    __slots__ = (
        "spec",
        "monitor",
        "chunks_skipped",
        "epoch",
        "last_result",
    )

    def __init__(self, spec: QuerySpec, epoch: int = 0) -> None:
        self.spec = spec
        self.monitor = spec.build_monitor()
        self.chunks_skipped = 0
        self.epoch = epoch
        self.last_result = self.monitor.result()


class UnitRecord(NamedTuple):
    """One detector unit's reply to one ``chunk`` / ``advance`` message.

    Every member of a unit holds the same settled result, so a shard answers
    once per unit rather than once per query; the service expands the record
    into one :class:`~repro.service.bus.QueryUpdate` per member.
    ``query_ids`` lists the members in registration order, leader first.
    ``leader_busy`` is the leader's settle (or fast-path) time plus its
    routing and window-observe shares; ``follower_busy`` is the shares alone,
    so the members' busy seconds still sum to the shard's measured work.
    """

    query_ids: tuple[str, ...]
    result: RegionResult | None
    objects_routed: int
    leader_busy: float
    follower_busy: float
    shed: bool = False


class WindowGroup:
    """One shared sliding-window pair plus the pipelines riding it.

    ``units`` partitions the member pipelines by full spec identity: each
    unit is a list whose head (the *leader*) owns the shared monitor and
    whose tail (the *followers*) mirror the leader's result.  Window-only
    sharing is the single-pipeline-per-unit case.  ``unit_ids`` holds each
    unit's member ids, as its :class:`UnitRecord` reports them.
    """

    __slots__ = ("keyword", "windows", "units", "unit_ids")

    def __init__(self, keyword: str | None, windows: SlidingWindowPair, units) -> None:
        self.keyword = keyword
        self.windows = windows
        self.units = units
        self.unit_ids = [
            tuple(pipeline.spec.query_id for pipeline in unit) for unit in units
        ]


#: Detectors whose settled results are a pure function of current window
#: *content*: two monitors holding element-wise equal windows settle to
#: bit-identical answers regardless of how each arrived at that content.
#: The grid-family approximations (``gaps``/``mgaps`` and their top-k
#: variants) are excluded — their cell accumulators are maintained
#: incrementally (``+=``/``-=`` on floats), so an add-then-expire cycle
#: leaves a path-dependent residue that can shift a result by an ulp.
#: Compaction therefore merges grid-family queries at the window tier only
#: (whole units move; monitors are never aliased across histories).
_PURE_RESULT_ALGORITHMS = frozenset({"ccs", "kccs", "bccs", "base", "ag2", "naive"})


def _windows_equal(a: SlidingWindowPair, b: SlidingWindowPair) -> bool:
    """Element-wise equality of two window pairs (the compaction gate).

    Two pairs are mergeable when they hold the same objects, the same
    clock, and the same stability flag: from that point on, identical
    inputs produce identical events from either pair, so aliasing one for
    the other is unobservable downstream.
    """
    if a is b:
        return True
    return (
        a.window_length == b.window_length
        and a.past_window_length == b.past_window_length
        and a._time == b._time
        and a._expired_seen == b._expired_seen
        and len(a._current) == len(b._current)
        and len(a._past) == len(b._past)
        and all(x == y for x, y in zip(a._current, b._current))
        and all(x == y for x, y in zip(a._past, b._past))
    )


def _detector_unit_key(spec: QuerySpec):
    """Hashable identity of everything that shapes a monitor's evolution.

    Two pipelines whose specs agree on this key (and on the registration
    epoch) run monitors through byte-for-byte identical state trajectories,
    so the shard keeps only one.  ``None`` (unhashable options) opts the
    spec out of detector sharing; it still shares windows.
    """
    try:
        options = tuple(sorted(spec.options.items()))
        key = (spec.query, spec.algorithm, spec.keyword, spec.backend, options)
        hash(key)  # equality-compared dict key; collisions are impossible
        return key
    except TypeError:
        return None


class ShardState:
    """The per-shard query pipelines plus the message protocol driving them.

    Messages are ``(kind, *payload)`` tuples so they cross process
    boundaries as plain pickles:

    ``("chunk", objects, chunk_index)`` / ``("chunk", objects, chunk_index, shed)``
        Route a shared-stream chunk through every pipeline; returns one
        :class:`UnitRecord` per detector unit (member ids, settled result,
        objects routed, leader and follower busy seconds, shed flag), never
        one reply per query.  The optional ``shed`` frozenset names queries
        whose chunk is load-shed (degraded mode): their window clocks stay
        unmoved and their records carry ``shed=True``.  The service only
        sheds whole route classes, so a window group is always fully shed
        or fully active.
    ``("compact",)``
        Safe-boundary re-epoching (see :meth:`compact`); returns the
        number of pipelines merged back into older sharing groups.
    ``("advance", stream_time, chunk_index)``
        Advance every pipeline's clock; returns one :class:`UnitRecord` per
        detector unit, as ``chunk`` does.
    ``("add", spec)`` / ``("remove", query_id)``
        Register / drop a pipeline; returns the shard's query ids.
    ``("results",)``
        ``[(query_id, RegionResult | None), ...]`` without ingesting.
    ``("top_k", k)``
        ``[(query_id, [RegionResult, ...]), ...]`` without ingesting.
    ``("checkpoint", path, meta)``
        Atomically snapshot the whole shard (every pipeline's monitor and
        counters) to ``path`` — *inside* the shard, so under the process
        executor each worker process persists its own state without it ever
        crossing the pipe; returns the shard's query ids.
    ``("restore", path)``
        Replace the shard's pipelines with the snapshot at ``path``;
        returns the restored query ids.
    ``("trace", enabled)``
        Attach (or detach) a shard-local :class:`~repro.obs.tracer.Tracer`.
        While attached, ``chunk``/``advance`` replies become
        ``(records, spans)`` tuples: the spans recorded during the message
        (routing, window observe, settle, sweep kernel) ship back with the
        reply so the service can merge them into its flight recorder —
        this is how process shards get their lane in the Chrome trace.
    """

    def __init__(self, specs: Sequence[QuerySpec] = ()) -> None:
        self.pipelines: dict[str, QueryPipeline] = {}
        self._epoch = 0
        self._groups: list[WindowGroup] = []
        self._routed_keywords: frozenset[str] = frozenset()
        self._tracer: Tracer | None = None
        for spec in specs:
            self._register(spec)
        self._rebuild_plan()

    def __getstate__(self) -> dict:
        # Tracers hold a lock and per-run history; a checkpoint must carry
        # neither (the service snapshots the recorder separately).
        state = self.__dict__.copy()
        state["_tracer"] = None
        return state

    def _register(self, spec: QuerySpec) -> None:
        if spec.query_id in self.pipelines:
            raise ValueError(f"query {spec.query_id!r} is already registered")
        self.pipelines[spec.query_id] = QueryPipeline(spec, epoch=self._epoch)

    def add(self, spec: QuerySpec) -> None:
        self._register(spec)
        self._rebuild_plan()

    def remove(self, query_id: str) -> None:
        if query_id not in self.pipelines:
            raise KeyError(f"query {query_id!r} is not registered on this shard")
        del self.pipelines[query_id]
        self._rebuild_plan()

    def compact(self) -> int:
        """Safe-boundary re-epoching: merge equal-state pipelines back together.

        The epoch rule keeps a mid-stream registration out of every sharing
        group *forever*, because at registration time its (empty) windows
        provably differ from its route-mates'.  But the difference is not
        forever: once the stream has run past the late registration by the
        full window span, the old content has expired from the veterans'
        windows and both hold exactly the objects of the recent past — the
        states have *converged*.  Compaction detects that convergence by
        direct comparison (:func:`_windows_equal`) at a chunk boundary
        (every pipeline settled, no partial chunk anywhere) and restamps
        the late pipeline's epoch to its route-mates', so the next
        :meth:`_rebuild_plan` re-aliases them into one group: sharing is
        restored after churn.

        Merging moves whole *units* (pipelines that already share a
        monitor move together — splitting a unit across groups would leave
        one monitor referenced by two groups).  A pipeline whose algorithm
        is in :data:`_PURE_RESULT_ALGORITHMS` may additionally join an
        existing detector unit (adopting the veteran monitor, which by
        purity settles to the same answers its own would); grid-family
        pipelines only ever share windows, never monitors, across
        histories.  All decisions are pure functions of pipeline state, so
        every executor compacts identically.

        Returns the number of pipelines merged into an older epoch.
        """
        clusters: dict[tuple, list[QueryPipeline]] = {}
        for pipeline in self.pipelines.values():
            windows = pipeline.monitor.windows
            key = (
                pipeline.spec.keyword,
                windows.window_length,
                windows.past_window_length,
            )
            clusters.setdefault(key, []).append(pipeline)
        merged = 0
        for members in clusters.values():
            if len(members) < 2:
                continue
            representative = min(members, key=lambda p: p.epoch)
            rep_windows = representative.monitor.windows
            # Unit keys already present at the representative's epoch: a
            # pure-algorithm unit may join them; an impure one must not
            # alias a monitor with a different history.
            rep_keys = {
                _detector_unit_key(p.spec)
                for p in members
                if p.epoch == representative.epoch
            }
            rep_keys.discard(None)
            units: dict[tuple, list[QueryPipeline]] = {}
            for pipeline in members:
                if pipeline.epoch == representative.epoch:
                    continue
                unit_key = _detector_unit_key(pipeline.spec)
                if unit_key is None:
                    # Unshareable options: never aliased with anyone, so it
                    # moves (or stays) alone.
                    bucket = ("own", id(pipeline))
                else:
                    bucket = ("unit", pipeline.epoch, unit_key)
                units.setdefault(bucket, []).append(pipeline)
            for unit_members in units.values():
                if not all(
                    _windows_equal(p.monitor.windows, rep_windows)
                    for p in unit_members
                ):
                    continue
                unit_key = _detector_unit_key(unit_members[0].spec)
                pure = (
                    unit_members[0].spec.algorithm.lower()
                    in _PURE_RESULT_ALGORITHMS
                )
                if unit_key is not None and unit_key in rep_keys and not pure:
                    continue
                for pipeline in unit_members:
                    pipeline.epoch = representative.epoch
                merged += len(unit_members)
                if unit_key is not None:
                    rep_keys.add(unit_key)
        if merged:
            self._rebuild_plan()
        return merged

    # ------------------------------------------------------------------
    # Shared-work execution plan
    # ------------------------------------------------------------------
    def _rebuild_plan(self) -> None:
        """Re-derive the sharing structure from the live pipelines.

        The plan is a *pure function* of the pipelines: group by
        (keyword, window lengths, epoch), alias member window pairs to one
        shared :class:`~repro.streams.windows.SlidingWindowPair`, then
        sub-group by full spec identity and alias those monitors outright.
        Aliasing is sound because same-key pipelines provably hold
        bit-identical state (same substream, same message history since the
        same epoch), so rebuilding is safe at any time — including over
        restored pipelines whose snapshot stored them unaliased.
        """
        window_groups: dict[tuple, list[QueryPipeline]] = {}
        for pipeline in self.pipelines.values():
            windows = pipeline.monitor.windows
            key = (
                pipeline.spec.keyword,
                windows.window_length,
                windows.past_window_length,
                pipeline.epoch,
            )
            window_groups.setdefault(key, []).append(pipeline)
        groups: list[WindowGroup] = []
        for key, members in window_groups.items():
            units: dict[object, list[QueryPipeline]] = {}
            unshared_units: list[list[QueryPipeline]] = []
            for pipeline in members:
                unit_key = _detector_unit_key(pipeline.spec)
                if unit_key is None:
                    unshared_units.append([pipeline])
                else:
                    units.setdefault(unit_key, []).append(pipeline)
            all_units = list(units.values()) + unshared_units
            # The group's pair is the first leader's; every other monitor in
            # the group aliases it (followers alias the leader's monitor
            # wholesale, which carries the windows along).
            shared_windows = all_units[0][0].monitor.windows
            for unit in all_units:
                leader = unit[0]
                leader.monitor.windows = shared_windows
                for follower in unit[1:]:
                    follower.monitor = leader.monitor
            groups.append(WindowGroup(key[0], shared_windows, all_units))
        self._groups = groups
        self._routed_keywords = frozenset(
            group.keyword for group in groups if group.keyword is not None
        )

    def _route_chunk(self, chunk: Sequence[SpatialObject]) -> dict[str, list[SpatialObject]]:
        """Bucket the chunk by routed keyword in one pass (inverted index).

        Only keywords some live query routes on get a bucket; objects
        carrying several routed keywords land in each matching bucket once
        (duplicate keywords on one object are collapsed, matching the
        membership semantics of the per-query predicate).  Buckets preserve
        chunk order, so they are valid ``observe_batch`` inputs.
        """
        wanted = self._routed_keywords
        buckets: dict[str, list[SpatialObject]] = {}
        if not wanted:
            return buckets
        for obj in chunk:
            keywords = obj.attributes.get("keywords", ())
            if not keywords:
                continue
            if isinstance(keywords, str):
                # A bare string predates the tuple normalisation the file
                # loaders apply.  The per-query predicate
                # (``QuerySpec.matches``) evaluates ``keyword in <str>`` —
                # substring membership — so the router must replicate
                # exactly that to stay identical to independent monitors.
                for keyword in wanted:
                    if keyword in keywords:
                        bucket = buckets.get(keyword)
                        if bucket is None:
                            bucket = buckets[keyword] = []
                        bucket.append(obj)
                continue
            if len(keywords) != 1:
                keywords = dict.fromkeys(keywords)
            for keyword in keywords:
                if keyword in wanted:
                    bucket = buckets.get(keyword)
                    if bucket is None:
                        bucket = buckets[keyword] = []
                    bucket.append(obj)
        return buckets

    @staticmethod
    def _skip_units(
        group: WindowGroup, shared_seconds: float, shed: bool = False
    ) -> list[UnitRecord]:
        """The settle-free fast path: nothing routed, clock unmoved.

        Every member reports its previous settled result.  With
        ``shed=True`` the chunk was load-shed for the group (degraded mode),
        not merely empty: the records are marked so the bus can count them
        separately and consumers know the carried result is stale.
        """
        records = []
        for unit, ids in zip(group.units, group.unit_ids):
            started = time.perf_counter()
            for pipeline in unit:
                pipeline.chunks_skipped += 1
            busy = time.perf_counter() - started + shared_seconds
            records.append(
                UnitRecord(ids, unit[0].last_result, 0, busy, shared_seconds, shed)
            )
        return records

    def _push_chunk(
        self,
        chunk: Sequence[SpatialObject],
        chunk_index: int,
        shed: frozenset[str] = frozenset(),
    ) -> list[UnitRecord]:
        tracer = self._tracer if self._tracer is not None and self._tracer.enabled else None
        started = time.perf_counter()
        buckets = self._route_chunk(chunk)
        routed_at = time.perf_counter()
        if tracer is not None:
            tracer.record("route.bucket", started, routed_at, chunk=chunk_index)
        # The one-pass routing scan is shard-level work; spread it evenly so
        # per-query busy_seconds still sums to the shard's true cost.
        shared_seconds = (
            (routed_at - started) / len(self.pipelines) if self.pipelines else 0.0
        )
        records: list[UnitRecord] = []
        for group in self._groups:
            if shed and all(
                query_id in shed for ids in group.unit_ids for query_id in ids
            ):
                # The whole group is shed: its window clock stays unmoved
                # (the service only sheds whole route classes).  Shedding a
                # *partial* group is never requested — it would advance the
                # shared windows past the shed members — so a partial shed
                # set is ignored and the group processes normally.
                records += self._skip_units(group, shared_seconds, shed=True)
                continue
            sub = chunk if group.keyword is None else buckets.get(group.keyword, ())
            if sub:
                observe_started = time.perf_counter()
                batch = group.windows.observe_batch(sub)
                observe_ended = time.perf_counter()
                if tracer is not None:
                    tracer.record(
                        "window.observe", observe_started, observe_ended,
                        chunk=chunk_index,
                    )
                # The group-level window ingest is work every member causes;
                # spread it across the group (it ran once *for* all of them)
                # on top of each member's routing slice.  Summed over the
                # shard, busy_seconds stays routing + observe + settle — a
                # strict lower bound on the handle wall time, never above it.
                members = sum(len(unit) for unit in group.units)
                group_seconds = (
                    shared_seconds + (observe_ended - observe_started) / members
                )
                n_routed = len(sub)
                for unit, ids in zip(group.units, group.unit_ids):
                    # The leader owns the unit's monitor: it pays the
                    # detector half once, and every member adopts the result.
                    settle_started = time.perf_counter()
                    result = unit[0].monitor.apply_batch(batch)
                    busy = time.perf_counter() - settle_started + group_seconds
                    for pipeline in unit:
                        pipeline.last_result = result
                    records.append(
                        UnitRecord(ids, result, n_routed, busy, group_seconds)
                    )
            else:
                records += self._skip_units(group, shared_seconds)
        self._epoch += 1
        return records

    def _advance(self, stream_time: float) -> list[UnitRecord]:
        records: list[UnitRecord] = []
        for group in self._groups:
            events = group.windows.advance_time(stream_time)
            for unit, ids in zip(group.units, group.unit_ids):
                # With no events the advance crossed no deadline, so the
                # previous settled result is reused without touching the
                # detector.
                started = time.perf_counter()
                if events:
                    result = unit[0].monitor.push_events(events)
                    for pipeline in unit:
                        pipeline.last_result = result
                else:
                    result = unit[0].last_result
                busy = time.perf_counter() - started
                records.append(UnitRecord(ids, result, 0, busy, 0.0))
        self._epoch += 1
        return records

    # ------------------------------------------------------------------
    # Durability (see repro.state)
    # ------------------------------------------------------------------
    def checkpoint(self, path: str, meta: dict | None = None) -> list[str]:
        """Write this shard's complete state to ``path`` (atomic snapshot).

        The payload is the :class:`ShardState` itself: every pipeline's spec,
        monitor (window deques + full detector state) and routing counters.
        Group-owned windows and unit-owned monitors are referenced by many
        pipelines but stored exactly once — pickle memoisation preserves the
        sharing graph.  Restoring it resumes the shard bit-identically.
        """
        from repro.state.recovery import SHARD_SNAPSHOT_KIND
        from repro.state.snapshot import write_snapshot

        header_meta = {"queries": list(self.pipelines)}
        if meta:
            header_meta.update(meta)
        write_snapshot(path, SHARD_SNAPSHOT_KIND, self, meta=header_meta)
        return list(self.pipelines)

    def restore(self, path: str) -> list[str]:
        """Replace this shard's pipelines with the snapshot at ``path``.

        The snapshot's sharing structure is not adopted as stored: the plan
        is a pure function of the pipelines and is re-derived from the
        restored ones.
        """
        from repro.state.recovery import SHARD_SNAPSHOT_KIND
        from repro.state.snapshot import read_snapshot

        _, state = read_snapshot(path, expected_kind=SHARD_SNAPSHOT_KIND)
        self.pipelines = state.pipelines
        self._epoch = state._epoch
        self._rebuild_plan()
        return list(self.pipelines)

    def _handle_ingest(self, message: tuple) -> list[UnitRecord]:
        """The ``chunk``/``advance`` half of :meth:`handle`."""
        kind = message[0]
        if kind == "chunk":
            if len(message) == 4:
                _, chunk, chunk_index, shed = message
            else:
                _, chunk, chunk_index = message
                shed = frozenset()
            return self._push_chunk(chunk, chunk_index, shed)
        return self._advance(message[1])

    def handle(self, message: tuple) -> Any:
        kind = message[0]
        if kind in ("chunk", "advance"):
            tracer = self._tracer
            if tracer is None:
                return self._handle_ingest(message)
            # Activate the shard's tracer thread-locally so spans recorded
            # by shared code underneath (the window pair, the sweep kernel)
            # land here, then ship everything recorded during this message
            # back with the reply: under the process executor the spans
            # cross the pipe as plain tuples, and the service stamps this
            # shard's lane and rebases the worker-local clock.
            with activate(tracer):
                records = self._handle_ingest(message)
            return (records, tracer.drain_spans())
        if kind == "trace":
            enabled = bool(message[1])
            self._tracer = Tracer(enabled=True) if enabled else None
            return enabled
        if kind == "add":
            self.add(message[1])
            return list(self.pipelines)
        if kind == "remove":
            self.remove(message[1])
            return list(self.pipelines)
        if kind == "results":
            return [
                (query_id, pipeline.monitor.result())
                for query_id, pipeline in self.pipelines.items()
            ]
        if kind == "top_k":
            return [
                (query_id, pipeline.monitor.top_k(message[1]))
                for query_id, pipeline in self.pipelines.items()
            ]
        if kind == "checkpoint":
            return self.checkpoint(message[1], message[2])
        if kind == "restore":
            return self.restore(message[1])
        if kind == "compact":
            return self.compact()
        raise ValueError(f"unknown shard message kind {kind!r}")


class ShardExecutor(abc.ABC):
    """Common interface of the shard execution backends."""

    #: Name under which the backend is selectable.
    name: str = "executor"

    def __init__(self, shard_specs: Sequence[Sequence[QuerySpec]]) -> None:
        if not shard_specs:
            raise ValueError("an executor needs at least one shard")
        self.n_shards = len(shard_specs)

    @abc.abstractmethod
    def send(self, shard_index: int, message: tuple) -> Any:
        """Deliver one message to one shard and return its reply."""

    @abc.abstractmethod
    def broadcast(self, message: tuple) -> list[Any]:
        """Deliver one message to every shard; replies in shard order."""

    def scatter(self, messages: Sequence[tuple]) -> list[Any]:
        """Deliver ``messages[i]`` to shard ``i``; replies in shard order.

        The per-shard variant of :meth:`broadcast`, used by the checkpoint
        path (every shard persists to its own file, so each shard gets its
        own message).  Concurrent backends overlap the per-shard work just
        like a broadcast.
        """
        if len(messages) != self.n_shards:
            raise ValueError(
                f"scatter needs one message per shard "
                f"({self.n_shards}), got {len(messages)}"
            )
        return self._scatter(messages)

    def _scatter(self, messages: Sequence[tuple]) -> list[Any]:
        """Backend hook behind the validated :meth:`scatter`."""
        return [self.send(index, message) for index, message in enumerate(messages)]

    def close(self) -> None:
        """Release worker threads / processes (idempotent)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(ShardExecutor):
    """All shards inline in the calling thread (the reference backend)."""

    name = "serial"

    def __init__(self, shard_specs: Sequence[Sequence[QuerySpec]]) -> None:
        super().__init__(shard_specs)
        self._shards = [ShardState(specs) for specs in shard_specs]

    def send(self, shard_index: int, message: tuple) -> Any:
        return self._shards[shard_index].handle(message)

    def broadcast(self, message: tuple) -> list[Any]:
        return [shard.handle(message) for shard in self._shards]


# ---------------------------------------------------------------------------
# Process backend: persistent single-worker pool per shard
# ---------------------------------------------------------------------------
#: Worker-process global holding that worker's shard state.  Each shard has
#: its own single-worker pool, so each worker process sees exactly one shard.
_WORKER_SHARD: ShardState | None = None


def _init_worker_shard(specs: Sequence[QuerySpec]) -> None:
    """Pool initializer: build the shard's pipelines inside the worker."""
    global _WORKER_SHARD
    _WORKER_SHARD = ShardState(specs)


def _worker_handle(message: tuple) -> Any:
    assert _WORKER_SHARD is not None, "shard worker used before initialisation"
    return _WORKER_SHARD.handle(message)


class ProcessExecutor(ShardExecutor):
    """One persistent worker process per shard.

    Each shard is a ``ProcessPoolExecutor(max_workers=1)``: the single
    worker keeps the shard's monitors alive across chunks, and the pool's
    FIFO task queue preserves message order per shard.  Specs are pickled
    once at start-up via the pool initializer; chunks and the
    :class:`UnitRecord` replies (one per detector unit, not per query) are
    pickled per message.
    """

    name = "process"

    def __init__(self, shard_specs: Sequence[Sequence[QuerySpec]]) -> None:
        super().__init__(shard_specs)
        self._pools = [
            ProcessPoolExecutor(
                max_workers=1,
                initializer=_init_worker_shard,
                initargs=(tuple(specs),),
            )
            for specs in shard_specs
        ]

    def send(self, shard_index: int, message: tuple) -> Any:
        return self._pools[shard_index].submit(_worker_handle, message).result()

    def broadcast(self, message: tuple) -> list[Any]:
        futures = [pool.submit(_worker_handle, message) for pool in self._pools]
        return [future.result() for future in futures]

    def _scatter(self, messages: Sequence[tuple]) -> list[Any]:
        futures = [
            pool.submit(_worker_handle, message)
            for pool, message in zip(self._pools, messages)
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)


_EXECUTORS = {
    "serial": SerialExecutor,
    "process": ProcessExecutor,
}


def make_executor(
    name: str,
    shard_specs: Sequence[Sequence[QuerySpec]],
    **options: Any,
) -> ShardExecutor:
    """Instantiate a shard executor by backend name.

    ``options`` are backend-specific keyword arguments; only the ``remote``
    backend accepts any (worker count, listen endpoint, checkpoint
    directory, RPC tuning — see
    :class:`repro.distributed.executor.RemoteExecutor`).
    """
    key = name.lower()
    if key == "remote":
        from repro.distributed.executor import RemoteExecutor

        return RemoteExecutor(shard_specs, **options)
    if key not in _EXECUTORS:
        raise ValueError(
            f"unknown executor {name!r}; expected one of {', '.join(EXECUTOR_NAMES)}"
        )
    if options:
        raise ValueError(
            f"executor {key!r} accepts no options, got {sorted(options)}"
        )
    return _EXECUTORS[key](shard_specs)
